package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"modissense/internal/core"
)

// scrape is one reading of the server's /metrics: every series summed
// over its labels, keyed by metric name.
type scrape map[string]float64

// readMetrics fetches and parses GET /metrics over the given client.
func readMetrics(c *client) (scrape, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read /metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// tableCounters sums the live Visits table's per-region store counters.
// Unlike /metrics these belong to one platform, so set-up runs and side
// instances in the same process do not leak into them.
type tableCounters struct {
	flushes, compactions, stalls, puts uint64
	logical, resident                  int64
}

func readTable(p *core.Platform) tableCounters {
	var t tableCounters
	for _, r := range p.Visits.Table().Regions() {
		s := r.Store().Stats()
		t.flushes += s.Flushes
		t.compactions += s.Compactions + s.BackgroundCompactions
		t.stalls += s.WriteStalls
		t.puts += s.Puts
		t.logical += s.SegmentLogicalBytes
		t.resident += s.SegmentResidentBytes
	}
	return t
}

// runtimeReading is a process-wide snapshot of allocation and CPU time.
type runtimeReading struct {
	totalAlloc uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
	at         time.Time
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	r := runtimeReading{totalAlloc: ms.TotalAlloc, at: time.Now()}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = cpuSamples[1].Value.Float64()
	}
	return r
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
