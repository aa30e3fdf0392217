// Command perfbench is the MoDisSENSE end-to-end benchmark. It boots the
// platform in-process behind a real loopback HTTP server, loads a dataset
// drawn from --seed through the public API, drives one named workload for
// --seconds, checks sampled answers against an oracle, and prints every
// metric with its unit and sample count. The last line of its output is a
// one-line JSON result. With --trace 1 it runs the workload again in two
// halves — untraced, then traced — and reports per-layer numbers instead.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload search_scan --seed 1 --seconds 10 --trace 0
//
// README.md beside this file describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"modissense/internal/core"
	"modissense/internal/exec"
	"modissense/internal/model"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "scratch directory for WALs and span dumps")
	flag.Parse()
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	// The server's -scatter-workers default: one scatter worker per CPU.
	exec.SetDefaultWorkers(0)
	r := &runner{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: scratch, spanDir: *dir}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := r.failed == 0
	r.rep.print(r.trace, correct, r.attempted, r.failed)
	if !correct {
		return 1
	}
	return 0
}

// runner holds one invocation's state.
type runner struct {
	wl      *workload
	seed    int64
	dur     time.Duration
	trace   bool
	dir     string // this run's scratch directory, removed at exit
	spanDir string // where the traced run leaves its span dump
	ds      *dataset
	catalog map[int64]model.POI
	rep     report

	attempted, failed int
	failures          []string
}

// fail records one failed operation; the first few are printed.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.keep(fmt.Sprintf(format, args...))
}

func (r *runner) keep(failure string) {
	if len(r.failures) < 5 {
		r.failures = append(r.failures, failure)
	}
}

// absorb folds a phase's attempt and failure counts into the run's.
func (r *runner) absorb(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	for _, f := range ph.failures {
		r.keep(f)
	}
}

// walDir returns a fresh WAL directory inside the run's scratch space.
func (r *runner) walDir(tag string) string {
	return filepath.Join(r.dir, tag)
}

// serverConfig returns the platform configuration of cmd/modissense-server
// at its flag defaults, with the population raised to the dataset's users.
// The block cache is the server's 64 MiB, owned by this platform instead of
// shared process-wide, so set-up repeats and side instances in this
// process cannot warm or pollute it.
func serverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.RegionsPerNode = 4
	cfg.POIs = numPOIs
	cfg.NetworkPopulation = numUsers
	cfg.Seed = platformSeed
	cfg.QueryTimeout = 30 * time.Second
	cfg.WALSync = "os"
	cfg.BlockCacheMB = 64
	cfg.BlockCompression = "none"
	cfg.HotInBucket = time.Hour
	cfg.HotInHorizon = 336 * time.Hour
	cfg.ResultCacheMB = 32
	return cfg
}

// execute runs the whole benchmark: set-up, warm-up, the timed phase (or
// the untraced and traced halves), the post-run checks and the report.
func (r *runner) execute() error {
	r.ds = newDataset(r.seed)
	r.rep.note("workload %s (seed %d): %s", r.wl.name, r.seed, r.wl.why)
	r.rep.note("load: %s; %d users, %d check-ins loaded over one connection", r.wl.loop, numUsers, r.ds.total())
	r.rep.note("config deviations from modissense-server defaults: %s", strings.Join(r.wl.deviations, " "))
	if r.wl.walSync != "" {
		r.rep.note("flush policy: -wal-sync %s (one fsync per commit group)", r.wl.walSync)
	}
	if r.trace {
		return r.executeTraced()
	}

	// A read workload's probe restarts in a block before each set-up.
	var rb *rebooter
	if r.wl.walSync == "" {
		var err error
		if rb, err = r.probeRebooter(); err != nil {
			return err
		}
	}
	// Set-up runs setupRepeats times; each is timed and all but the last
	// are torn down. The median is setup_s.
	var setupTimes samples
	var loadLat samples
	var l *live
	for i := 0; i < setupRepeats; i++ {
		if l != nil {
			if err := l.close(); err != nil {
				return err
			}
		}
		if rb != nil {
			if err := rb.block(rebootBlock); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		runtime.GC() // every set-up starts from the same heap state
		l, d, err = r.setup(r.wl.config(r.walDir("wal-"+strconv.Itoa(i))), &loadLat, nil)
		if err != nil {
			return err
		}
		setupTimes.add(d.Seconds())
	}
	defer l.closeQuietly()
	drv := r.wl.driver(r, l)
	if err := r.settle(l, drv); err != nil {
		return err
	}
	ph := drv.loop(l, r.dur, nil)
	heap := liveHeapMiB()
	r.absorb(ph)
	r.verify(l, ph)
	post, err := drv.finish(l, nil)
	if err != nil {
		return err
	}
	r.absorb(post)
	r.verify(l, post)
	if h := max(ph.heap, post.heap); h > 0 {
		heap = h // taken after a fixed amount of work instead
	}
	// The restarts after the timed phase: one block for a read workload,
	// whose probe restarted before each set-up too, and every block,
	// rebootGap apart, for a durable one. l is closed first, so no restart
	// shares the heap with it.
	if err := l.close(); err != nil {
		return err
	}
	blocks := 1
	if rb == nil {
		rb, blocks = r.rebooterFor(l), rebootBlocks
	}
	for i := 0; i < blocks; i++ {
		if i > 0 {
			time.Sleep(rebootGap)
		}
		if err := rb.block(rebootBlock); err != nil {
			return err
		}
	}

	checkins := &ph.checkin
	if checkins.n() == 0 {
		checkins = &loadLat // read workloads: the set-up load's batches
	}
	r.rep.e2e(metric{Name: "setup_s", Unit: "s", Value: setupTimes.quantile(0.5), N: setupTimes.n()})
	r.rep.timing("search", &ph.search, false)
	perS := ph.search.chunkedRate(ph.start) * ratio(float64(ph.searchOK), float64(ph.search.n()))
	r.rep.e2e(metric{Name: "search_per_s", Unit: "1/s", Value: perS, N: ph.searchOK})
	r.rep.e2e(metric{Name: "search_sim_mean_ms", Unit: "ms", Value: ph.sim.mean(), N: ph.sim.n()})
	// The check-in and trending p99s are printed but not gated: on the read
	// workloads they time sub-millisecond round trips, whose tails moved
	// by 2-5x between runs with the shared host's load.
	r.rep.timing("checkin", checkins, true)
	r.rep.timing("trending", &ph.trending, true)
	r.rep.note("reboot: %d restarts, fastest %.4g s, median %.4g s, slowest %.4g s",
		rb.took.n(), rb.took.quantile(0), rb.took.quantile(0.5), rb.took.quantile(1))
	r.rep.e2e(metric{Name: "reboot_s", Unit: "s", Value: rb.took.quantile(0.5), N: rb.took.n()})
	r.rep.e2e(metric{Name: "heap_mb", Unit: "MiB", Value: heap, N: 1})
	r.reportLoad(ph, post)
	return nil
}

// settle readies a set-up platform for timing: the warm-up, then the
// flushes and compactions the load left behind, then a collection, so
// every timed phase starts from the same state.
func (r *runner) settle(l *live, drv driver) error {
	if err := drv.warm(l); err != nil {
		return err
	}
	if err := l.p.Visits.Table().WaitMaintenance(); err != nil {
		return fmt.Errorf("wait for maintenance: %w", err)
	}
	runtime.GC()
	return nil
}

// reportLoad prints what is not a BENCHMARK.json metric: the failure
// share, the open-loop writer's lateness, and the oracle sample sizes.
func (r *runner) reportLoad(ph, post *phase) {
	r.rep.note("failed_share %.6g ratio (failed %d of %d attempted operations)",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if ph.lateness.n() > 0 {
		r.rep.note("open-loop writer lateness (send - due): p99 %.4g ms, max %.4g ms, n=%d; %d batches sent, %d due but unsent at the end, %d check-ins acknowledged",
			ph.lateness.quantile(0.99), ph.lateness.quantile(1), ph.lateness.n(), ph.batches, ph.backlog, ph.checkinsAcked)
	}
	r.rep.note("result cache: %d of %d timed searches were hits", ph.hits, ph.searchOK)
	r.rep.note("oracle: %d searches and %d trending answers checked (%d of them after the timed phase)",
		ph.checkedSearches+post.checkedSearches, ph.checkedTrending+post.checkedTrending,
		post.checkedSearches+post.checkedTrending)
	for _, f := range r.failures {
		r.rep.note("FAILURE: %s", f)
	}
}

// executeTraced runs the traced variant: one set-up whose load the tracer
// samples, the warm-up, an untraced half of the timed phase with counters
// read around it, a traced half, the post-run checks and the reboot.
func (r *runner) executeTraced() error {
	cfg := r.wl.config(r.walDir("wal"))
	tr, err := newTracer(r, cfg, r.walDir("side"))
	if err != nil {
		return err
	}
	defer tr.close()
	l, _, err := r.setup(cfg, nil, tr)
	if err != nil {
		return err
	}
	defer l.closeQuietly()
	drv := r.wl.driver(r, l)
	if err := r.settle(l, drv); err != nil {
		return err
	}
	if err := tr.side.p.Visits.Table().WaitMaintenance(); err != nil {
		return err
	}
	half := r.dur / 2
	before, err := takeSnapshot(l)
	if err != nil {
		return err
	}
	u := drv.loop(l, half, nil)
	after, err := takeSnapshot(l)
	if err != nil {
		return err
	}
	tr.begin()
	t := drv.loop(l, half, tr)
	for _, ph := range []*phase{u, t} {
		r.absorb(ph)
		r.verify(l, ph)
	}
	post, err := drv.finish(l, tr)
	if err != nil {
		return err
	}
	r.absorb(post)
	r.verify(l, post)
	// One restart checks durability and counts the WAL records replayed.
	if err := l.close(); err != nil {
		return err
	}
	rb := r.rebooterFor(l)
	if r.wl.walSync == "" {
		if rb, err = r.probeRebooter(); err != nil {
			return err
		}
	}
	if err := rb.block(1); err != nil {
		return err
	}
	r.layerReport(l, u, t, before, after, tr, rb.replayed)
	path, err := tr.dump(r.spanDir, r.wl.name, r.seed)
	if err != nil {
		return err
	}
	r.rep.note("spans: %d traces, %d spans written to %s", tr.nextTrace, len(tr.records), path)
	r.reportLoad(u, post)
	return nil
}
