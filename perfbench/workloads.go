package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"modissense/internal/core"
)

// Workload sizing.
const (
	setupRepeats   = 3    // set-ups per untraced run; setup_s is their median
	rebootBlock    = 5    // restarts over the WAL per block; reboot_s is the median of all
	checkEvery     = 4    // one in checkEvery answers is checked against the oracle
	repeatVariants = 2    // fixed query variants per search_repeat user
	scanWarm       = 40   // untimed search_scan requests before timing
	trendShare     = 10   // read workloads spend the last 1/trendShare of a phase on trending
	subscriptions  = 1000 // standing queries on ingest_mixed
	writeRate      = 100  // ingest_mixed batches per second, open loop
	readerSpecs    = 2048 // ingest_mixed reader's fixed search specs
	recheckOpen    = 256  // open-window specs re-checked after ingest_mixed's writer stops
	// numWriters users receive ingest_mixed's check-ins. Spread over this
	// many, an open-window reader search's rows grow by about a fifth in a
	// 30-second run; with 64 writers they grew fourfold, and search
	// latency climbed through every run.
	numWriters = 1024
	// stampStepMs advances ingest_mixed's stamps per batch so that a
	// stamped hour holds about as many check-ins (200) as a loaded one,
	// and trending windows cost the same early and late in a run.
	stampStepMs = 360_000
	// ingestMemtable is ingest_mixed's per-region memtable: flushes and a
	// few compactions finish in every run. With 128 KiB a run's check-in
	// p99 hinged on whether a large compaction landed in it (its spread
	// over five runs was 0.4-0.7 of the median).
	ingestMemtable = 512 << 10
	// heapAt is how many timed searches search_scan sends before it takes
	// the live heap. Every fresh spec adds a result-cache entry and
	// registers it under each of its friends, so the heap grows with the
	// searches sent; at the end of a time-bounded phase it moved with the
	// host's speed, and by 20-50 MiB once the per-friend index maps
	// doubled at about 2000 searches. After a fixed count, three runs of one
	// seed read it within 0.1 MiB of each other.
	heapAt = 1500
	// Restarts are timed in rebootBlocks blocks spread over the run: the
	// shared host's speed drifts over seconds, and nine back-to-back
	// restarts at the end of a run moved together by up to a quarter
	// between runs. A read workload restarts its probe before each set-up
	// and after the timed phase; a durable workload can restart over its
	// own WAL only after the timed phase, so it waits rebootGap between
	// blocks instead.
	rebootBlocks = setupRepeats + 1
	rebootGap    = 3 * time.Second
)

// workload is one named traffic mix.
type workload struct {
	name, why  string
	loop       string   // loop type and connection count
	deviations []string // server flags that differ from their defaults
	walSync    string   // flush policy when the workload keeps a WAL
	subs       int      // standing subscriptions created during set-up
	config     func(walDir string) core.Config
	driver     func(r *runner, l *live) driver
}

// driver runs a workload against a set-up platform.
type driver interface {
	// warm sends untimed requests until caches reach steady state.
	warm(l *live) error
	// loop drives the workload for d; a non-nil tracer replays sampled
	// requests layer by layer.
	loop(l *live, d time.Duration, tr *tracer) *phase
	// finish runs the untimed checks that follow the timed phase.
	finish(l *live, tr *tracer) (*phase, error)
}

var workloads = []*workload{
	{
		name:       "search_repeat",
		why:        "returning users re-run their own searches, so nearly every search is a result-cache hit and kvstore does almost nothing",
		loop:       "closed loop, 1 connection",
		deviations: []string{"-population 4000"},
		config:     func(string) core.Config { return serverConfig() },
		driver:     newSearchRepeat,
	},
	{
		name:       "search_scan",
		why:        "the paper's Fig. 2 query over HTTP: fresh 250-2000-friend specs always miss the result cache and scan segments 4x the block cache",
		loop:       "closed loop, 1 connection",
		deviations: []string{"-population 4000", "-memtable-flush-bytes 131072", "-block-cache-mb 2"},
		config: func(string) core.Config {
			cfg := serverConfig()
			cfg.MemtableFlushBytes = 131072
			cfg.BlockCacheMB = 2
			return cfg
		},
		driver: newSearchScan,
	},
	{
		name:       "ingest_mixed",
		why:        "open-loop check-in batches through a group-committed WAL beside a reader whose cached searches they invalidate",
		loop:       fmt.Sprintf("writer: open loop at %d batches/s on connection A; reader: closed loop on connection B", writeRate),
		deviations: []string{"-population 4000", "-wal-dir <tmp>", "-wal-sync group", "-memtable-flush-bytes 524288"},
		walSync:    "group",
		subs:       subscriptions,
		config: func(walDir string) core.Config {
			cfg := serverConfig()
			cfg.WALDir = walDir
			cfg.WALSync = "group"
			cfg.MemtableFlushBytes = ingestMemtable
			return cfg
		},
		driver: newIngestMixed,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// check is one answer kept for the oracle.
type check struct {
	search *searchSpec
	trend  *trendingSpec
	got    []item
}

// phase accumulates what one stretch of load measured.
type phase struct {
	start                                    time.Time
	search, sim, checkin, trending, lateness samples

	attempted, failed int
	failures          []string
	checks            []check
	checkedSearches   int
	checkedTrending   int

	searches, searchOK, hits   int
	batches, checkinsAcked     int
	backlog                    int     // open-loop batches due but unsent at the end
	heap                       float64 // live heap in MiB, when the driver takes it
	rows, tasks, blocks        int64
	results, simEvents, respBy int64
	sampled                    []*searchSpec // every checkEvery-th search, for the region map
}

func newPhase() *phase { return &phase{start: time.Now()} }

// failOp records a failed operation; a failure counts as over any limit.
func (ph *phase) failOp(s *samples, format string, args ...any) {
	ph.failed++
	if s != nil {
		s.addDur(time.Duration(math.MaxInt64))
	}
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds o into ph.
func (ph *phase) merge(o *phase) {
	for _, p := range []struct{ dst, src *samples }{
		{&ph.search, &o.search}, {&ph.sim, &o.sim}, {&ph.checkin, &o.checkin},
		{&ph.trending, &o.trending}, {&ph.lateness, &o.lateness},
	} {
		p.dst.v = append(p.dst.v, p.src.v...)
		p.dst.at = append(p.dst.at, p.src.at...)
	}
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.failures = append(ph.failures, o.failures...)
	ph.checks = append(ph.checks, o.checks...)
	ph.searches += o.searches
	ph.searchOK += o.searchOK
	ph.hits += o.hits
	ph.batches += o.batches
	ph.checkinsAcked += o.checkinsAcked
	ph.backlog += o.backlog
	ph.rows += o.rows
	ph.tasks += o.tasks
	ph.blocks += o.blocks
	ph.results += o.results
	ph.simEvents += o.simEvents
	ph.respBy += o.respBy
	ph.sampled = append(ph.sampled, o.sampled...)
}

// doSearch sends one search over c and records it. With keep set the
// answer is kept for the oracle.
func doSearch(l *live, c *client, ph *phase, s *searchSpec, body []byte, keep bool, tr *tracer) *answer {
	ph.attempted++
	ph.searches++
	// The simulated cluster runs only inside requests, and this loop is
	// the only sender of simulator-using requests, so reading its event
	// count between requests observes a quiescent engine.
	events := l.p.Cluster.Engine().EventsFired()
	var a answer
	start := time.Now()
	_, n, err := c.do("POST", "/api/v1/search", body, &a)
	rt := time.Since(start)
	if err != nil {
		ph.failOp(&ph.search, "search: %v", err)
		return nil
	}
	ph.search.addDur(rt)
	ph.sim.add(a.LatencySeconds * 1000)
	ph.simEvents += int64(l.p.Cluster.Engine().EventsFired() - events)
	ph.searchOK++
	ph.rows += a.Exec.RowsScanned
	ph.tasks += a.Exec.Tasks
	ph.blocks += a.Exec.BlocksDecoded
	ph.results += int64(len(a.POIs))
	ph.respBy += int64(n)
	if a.Cached {
		ph.hits++
	}
	if ph.searches%checkEvery == 0 {
		ph.sampled = append(ph.sampled, s)
	}
	if keep {
		ph.checks = append(ph.checks, check{search: s, got: a.items()})
	}
	if tr != nil {
		tr.search(l, s, l.tokens[s.User-1], start, rt, &a)
	}
	return &a
}

// doTrending sends one friendless trending query over c and records it.
func doTrending(l *live, c *client, ph *phase, s *trendingSpec, keep bool, tr *tracer) {
	ph.attempted++
	var a answer
	start := time.Now()
	_, _, err := c.do("GET", trendingPath(s), nil, &a)
	rt := time.Since(start)
	if err != nil {
		ph.failOp(&ph.trending, "trending: %v", err)
		return
	}
	ph.trending.addDur(rt)
	if keep {
		ph.checks = append(ph.checks, check{trend: s, got: a.items()})
	}
	if tr != nil {
		tr.trending(l, s, start, rt)
	}
}

// readTrending is the trending side of a read workload: friendless
// queries over the last 1–48 hours before the newest loaded check-in, in
// a closed loop of their own at the end of each phase. Interleaved with
// searches, a trending query's tail depended on whether the collector was
// still reclaiming the previous search's garbage.
type readTrending struct {
	r *runner
	m *specMaker
	n int
}

func newReadTrending(r *runner) *readTrending {
	return &readTrending{r: r, m: &specMaker{rng: rand.New(rand.NewSource(r.seed*131 + 7)), catalog: r.catalog}}
}

// searchTime returns how much of a phase of length d goes to searches;
// the rest goes to trending.
func searchTime(d time.Duration) time.Duration { return d - d/trendShare }

// loop sends trending queries until stop.
func (t *readTrending) loop(l *live, ph *phase, stop time.Time, tr *tracer) {
	for time.Now().Before(stop) {
		s := t.m.trending(t.r.ds.newest)
		t.n++
		doTrending(l, l.c, ph, &s, t.n%checkEvery == 0, tr)
	}
}

// searchRepeat: users drawn Zipf over the population re-run a few fixed
// query variants each.
type searchRepeat struct {
	trend    *readTrending
	rng      *rand.Rand
	zipf     *rand.Zipf
	rankUser []int
	variants [][]repeatSpec // index uid-1
}

type repeatSpec struct {
	spec searchSpec
	body []byte
}

// newSearchRepeat builds every user's friend list and variants, each from
// a generator seeded by the user alone. The Zipf draw (exponent 1.1,
// offset 10) spreads the timed searches over many users: the most popular
// one draws about 2% of them, so the latency mix does not hang on a few
// users' friend-list sizes.
func newSearchRepeat(r *runner, l *live) driver {
	rng := rand.New(rand.NewSource(r.seed*31 + 1))
	d := &searchRepeat{trend: newReadTrending(r), rng: rng, rankUser: rng.Perm(numUsers),
		zipf: rand.NewZipf(rng, 1.1, 10, numUsers-1)}
	for u := int64(1); u <= numUsers; u++ {
		m := &specMaker{rng: rand.New(rand.NewSource(r.seed*7919 + u)), catalog: r.catalog}
		friends := m.friends(u, m.logUniform(20, 500))
		var vs []repeatSpec
		for i := 0; i < repeatVariants; i++ {
			s := searchSpec{User: u, Friends: friends, From: loadStart}
			if m.rng.Intn(2) == 0 {
				s.From, s.To = m.window()
			}
			m.decorate(&s)
			vs = append(vs, repeatSpec{spec: s, body: searchBody(l.tokens[u-1], &s, 0)})
		}
		d.variants = append(d.variants, vs)
	}
	return d
}

// warm caches every variant of every user, about 21 MB of the 32 MiB
// result cache, so every timed search can hit.
func (d *searchRepeat) warm(l *live) error {
	ph := newPhase()
	for _, vs := range d.variants {
		for i := range vs {
			doSearch(l, l.c, ph, &vs[i].spec, vs[i].body, false, nil)
		}
	}
	return warmErr(ph)
}

func (d *searchRepeat) loop(l *live, dur time.Duration, tr *tracer) *phase {
	ph := newPhase()
	for stop := ph.start.Add(searchTime(dur)); time.Now().Before(stop); {
		vs := d.variants[d.rankUser[d.zipf.Uint64()]]
		v := &vs[d.rng.Intn(len(vs))]
		doSearch(l, l.c, ph, &v.spec, v.body, d.rng.Intn(4*checkEvery) == 0, tr)
	}
	d.trend.loop(l, ph, ph.start.Add(dur), tr)
	return ph
}

func (d *searchRepeat) finish(*live, *tracer) (*phase, error) { return newPhase(), nil }

// warmErr turns a failed warm-up into an error.
func warmErr(ph *phase) error {
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", ph.failed, ph.attempted, ph.failures)
	}
	return nil
}

// searchScan: every search is a fresh spec over a random subset of
// 250–2000 friends (log-uniform) and a random window.
type searchScan struct {
	m      *specMaker
	trend  *readTrending
	sent   int // searches sent after the warm-up
	heapAt int // heapAt, or 0 in the traced run, which reports no heap
}

func newSearchScan(r *runner, l *live) driver {
	d := &searchScan{m: &specMaker{rng: rand.New(rand.NewSource(r.seed*37 + 2)), catalog: r.catalog},
		trend: newReadTrending(r)}
	if !r.trace {
		d.heapAt = heapAt
	}
	return d
}

func (d *searchScan) next(l *live) (*searchSpec, []byte) {
	u := int64(1 + d.m.rng.Intn(numUsers))
	s := &searchSpec{User: u, Friends: d.m.friends(u, d.m.logUniform(250, 2000))}
	s.From, s.To = d.m.window()
	d.m.decorate(s)
	return s, searchBody(l.tokens[u-1], s, 0)
}

func (d *searchScan) warm(l *live) error {
	ph := newPhase()
	for i := 0; i < scanWarm; i++ {
		s, body := d.next(l)
		doSearch(l, l.c, ph, s, body, false, nil)
	}
	return warmErr(ph)
}

func (d *searchScan) loop(l *live, dur time.Duration, tr *tracer) *phase {
	ph := newPhase()
	for stop := ph.start.Add(searchTime(dur)); time.Now().Before(stop); {
		d.search(l, ph, tr)
	}
	d.trend.loop(l, ph, ph.start.Add(dur), tr)
	return ph
}

// search sends the next timed search. After the heapAt-th, it takes the
// live heap; the forced collection pauses the loop for about 0.1 s.
func (d *searchScan) search(l *live, ph *phase, tr *tracer) {
	s, body := d.next(l)
	doSearch(l, l.c, ph, s, body, d.sent%checkEvery == 0, tr)
	if d.sent++; d.sent == d.heapAt {
		ph.heap = liveHeapMiB()
	}
}

// finish tops the timed searches up to heapAt when the timed phase sent
// fewer, so that the heap is always taken after the same work.
func (d *searchScan) finish(l *live, tr *tracer) (*phase, error) {
	ph := newPhase()
	for d.sent < d.heapAt {
		d.search(l, ph, tr)
	}
	return ph, nil
}

// ingestMixed: an open-loop writer pushes check-in batches on one
// connection while a closed-loop reader alternates cached personalized
// searches over the writers and friendless trending queries on another.
type ingestMixed struct {
	r      *runner
	writer *client
	wrng   *rand.Rand
	zipf   *rand.Zipf
	stamp  int64 // next batch's first timestamp
	reader *specMaker
	specs  []searchSpec
	bodies [][]byte
	// open marks specs whose window is open-ended: concurrent writes move
	// their answers, so they are checked only after the writer stops.
	open     []bool
	answered map[int]bool
}

func newIngestMixed(r *runner, l *live) driver {
	d := &ingestMixed{
		r: r, writer: newClient(l.base),
		wrng:     rand.New(rand.NewSource(r.seed*41 + 3)),
		stamp:    loadEnd,
		reader:   &specMaker{rng: rand.New(rand.NewSource(r.seed*43 + 4)), catalog: r.catalog},
		answered: map[int]bool{},
	}
	d.zipf = rand.NewZipf(d.wrng, 1.1, 4, numPOIs-1)
	m := d.reader
	for i := 0; i < readerSpecs; i++ {
		u := int64(1 + m.rng.Intn(numUsers))
		friends := m.friends(u, m.logUniform(15, 100))
		for j, n := 0, 1+m.rng.Intn(4); j < n; j++ {
			friends = append(friends, r.ds.writers[m.rng.Intn(len(r.ds.writers))])
		}
		s := searchSpec{User: u, Friends: friends, From: loadStart, Order: "hotness", Limit: resultLimit}
		open := i%2 == 1
		if !open {
			s.From, s.To = m.window()
			m.decorate(&s)
		} else if m.rng.Intn(2) == 0 {
			s.Order = "interest"
		}
		d.specs = append(d.specs, s)
		d.open = append(d.open, open)
		d.bodies = append(d.bodies, searchBody(l.tokens[u-1], &s, 0))
	}
	return d
}

// nextBatch draws one writer batch of 8–32 check-ins. Timestamps advance
// past the loaded window, one second apart inside a batch and
// stampStepMs between batches, so later batches always carry newer stamps.
func (d *ingestMixed) nextBatch() []checkin {
	u := d.r.ds.writers[d.wrng.Intn(len(d.r.ds.writers))]
	n := 8 + d.wrng.Intn(25)
	batch := make([]checkin, n)
	for i := range batch {
		batch[i] = checkin{User: u, POI: d.r.ds.poi(d.zipf), Time: d.stamp + int64(i)*1000,
			Grade: float64(1 + d.wrng.Intn(5))}
	}
	d.stamp += stampStepMs
	return batch
}

// warm sends a few of the reader's searches. Caching the whole pool
// would be wasted: with 2048 specs each one is requested far less often
// than its writer friends invalidate it, so nearly every reader search
// misses whatever the reader's speed. A smaller pool let the hit share,
// and with it the reader's speed, swing between runs.
func (d *ingestMixed) warm(l *live) error {
	ph := newPhase()
	for i := 0; i < scanWarm; i++ {
		doSearch(l, l.c, ph, &d.specs[i], d.bodies[i], false, nil)
	}
	return warmErr(ph)
}

func (d *ingestMixed) loop(l *live, dur time.Duration, tr *tracer) *phase {
	stop := time.Now().Add(dur)
	wph, rph := newPhase(), newPhase()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.write(l, stop, wph, tr)
	}()
	go func() {
		defer wg.Done()
		d.read(l, stop, rph, tr)
	}()
	wg.Wait()
	wph.merge(rph)
	return wph
}

// write is the open-loop writer: batch k is due k/writeRate after the
// start and its latency runs from the due time, so a stall also charges
// the batches queued behind it. Batches still due but unsent when the
// phase ends are the backlog.
func (d *ingestMixed) write(l *live, stop time.Time, ph *phase, tr *tracer) {
	start := time.Now()
	period := time.Second / writeRate
	k := 0
	for ; time.Now().Before(stop); k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(stop) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		batch := d.nextBatch()
		body := checkinBody(l.tokens[batch[0].User-1], batch)
		sent := time.Now()
		ph.lateness.addDur(sent.Sub(due))
		ph.attempted++
		ph.batches++
		var resp struct {
			Stored int `json:"stored"`
		}
		_, _, err := d.writer.do("POST", "/api/v1/checkins", body, &resp)
		acked := time.Now()
		if err == nil && resp.Stored != len(batch) {
			err = fmt.Errorf("stored %d of %d", resp.Stored, len(batch))
		}
		if err != nil {
			ph.failOp(&ph.checkin, "check-in batch: %v", err)
			continue
		}
		l.acked.add(batch)
		ph.checkin.addDur(acked.Sub(due))
		ph.checkinsAcked += len(batch)
		if tr != nil {
			tr.checkin(l, batch, sent, acked.Sub(sent))
		}
	}
	ph.backlog += max(0, int(stop.Sub(start)/period)-k)
}

// read is the closed-loop reader. Trending windows end at the newest
// acknowledged stamp rounded down to the hour: every check-in before that
// instant is acknowledged and any in flight falls in a later bucket, so
// the answer is fixed by the acknowledged check-ins alone.
func (d *ingestMixed) read(l *live, stop time.Time, ph *phase, tr *tracer) {
	for i := 0; time.Now().Before(stop); i++ {
		keep := d.reader.rng.Intn(checkEvery) == 0
		if i%2 == 0 {
			j := d.reader.rng.Intn(len(d.specs))
			if a := doSearch(l, l.c, ph, &d.specs[j], d.bodies[j], keep && !d.open[j], tr); a != nil && d.open[j] {
				d.answered[j] = true
			}
			continue
		}
		s := d.reader.trending(floorBucket(l.acked.newestStamp()))
		doTrending(l, l.c, ph, &s, keep, tr)
	}
}

// finish re-issues open-window specs the reader got an answer for, up to
// recheckOpen of them: each was cached before its writer friends' later
// check-ins, so a stale result-cache entry shows as an oracle mismatch.
func (d *ingestMixed) finish(l *live, tr *tracer) (*phase, error) {
	ph := newPhase()
	var idx []int
	for j := range d.answered {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	for _, j := range idx[:min(len(idx), recheckOpen)] {
		doSearch(l, l.c, ph, &d.specs[j], d.bodies[j], true, nil)
	}
	d.writer.closeIdle()
	return ph, nil
}
