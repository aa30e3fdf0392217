package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// samples is one statistic's raw observations in the order they were
// taken. Timings also keep when each was taken.
type samples struct {
	v  []float64
	at []time.Time
}

func (s *samples) add(x float64) { s.v = append(s.v, x) }
func (s *samples) n() int        { return len(s.v) }

// addDur records a timing in milliseconds, taken now.
func (s *samples) addDur(d time.Duration) {
	s.add(float64(d) / float64(time.Millisecond))
	s.at = append(s.at, time.Now())
}

// Chunking: a run's timings are cut, in the order they were taken, into
// up to maxChunks consecutive chunks of at least chunkMin samples, and a
// timing statistic is the median of its per-chunk values. A stall of the
// shared machine then moves one chunk, not the run's figure, and every
// chunk's p99 still has ten samples beyond it.
const (
	chunkMin  = 1000
	maxChunks = 9
)

// chunks splits the samples into consecutive index ranges.
func (s *samples) chunks() [][2]int {
	k := max(1, min(maxChunks, len(s.v)/chunkMin))
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * len(s.v) / k, (i + 1) * len(s.v) / k}
	}
	return out
}

// chunked returns the median over chunks of each chunk's q-quantile.
func (s *samples) chunked(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	var per samples
	for _, c := range s.chunks() {
		part := samples{v: s.v[c[0]:c[1]]}
		per.add(part.quantile(q))
	}
	return per.quantile(0.5)
}

// chunkedRate returns the median over chunks of completions per second,
// each chunk running from the previous chunk's last completion (or from
// start) to its own last one.
func (s *samples) chunkedRate(start time.Time) float64 {
	if len(s.at) == 0 {
		return 0
	}
	var per samples
	prev := start
	for _, c := range s.chunks() {
		end := s.at[c[1]-1]
		per.add(ratio(float64(c[1]-c[0]), end.Sub(prev).Seconds()))
		prev = end
	}
	return per.quantile(0.5)
}

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// mean returns the arithmetic mean (0 for no samples).
func (s *samples) mean() float64 {
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return ratio(sum, float64(len(s.v)))
}

// resolved reports whether the q-quantile has at least ten samples beyond
// it; a tail percentile with fewer is noise, not a measurement.
func (s *samples) resolved(q float64) bool {
	return math.Floor(float64(len(s.v))*(1-q)+1e-9) >= 10
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // samples behind the value; -1 when not a sampled statistic
	Note  string // why a value is unresolved or not exercised
	// Ungated metrics are printed but left out of the JSON result, so no
	// regression check reads them.
	Ungated bool
}

// report collects a run's metrics in print order.
type report struct {
	endToEnd []metric
	perLayer []metric
	info     []string
}

func (r *report) e2e(m metric)   { r.endToEnd = append(r.endToEnd, m) }
func (r *report) layer(m metric) { r.perLayer = append(r.perLayer, m) }
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// timing adds the chunked median and p99 of a timing. A p99 without ten
// samples beyond it prints as unresolved; the JSON still carries the
// nearest-rank value so every run reports every metric. ungatedP99 keeps
// the p99 out of the JSON result.
func (r *report) timing(prefix string, s *samples, ungatedP99 bool) {
	r.e2e(metric{Name: prefix + "_p50_ms", Unit: "ms", Value: s.chunked(0.5), N: s.n()})
	m := metric{Name: prefix + "_p99_ms", Unit: "ms", Value: s.chunked(0.99), N: s.n(), Ungated: ungatedP99}
	if !s.resolved(0.99) {
		m.Note = "unresolved: fewer than 10 samples beyond p99"
	}
	r.e2e(m)
}

// print writes the human-readable report to stdout, then the one-line
// JSON result the contract asks for as the last line.
func (r *report) print(trace bool, correct bool, attempted, failed int) {
	fmt.Println()
	for _, line := range r.info {
		fmt.Println(line)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range ms {
			val := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
			if m.Note != "" && strings.HasPrefix(m.Note, "unresolved") {
				val = "unresolved"
			}
			n := ""
			if m.N >= 0 {
				n = fmt.Sprintf("n=%d", m.N)
			}
			line := fmt.Sprintf("  %-36s %-18s %s", m.Name, val, n)
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			if m.Ungated {
				line += "  (printed only: not in BENCHMARK.json)"
			}
			fmt.Println(line)
		}
	}
	section("end-to-end:", r.endToEnd)
	if trace {
		section("per-layer:", r.perLayer)
	}
	ms := r.endToEnd
	if trace {
		ms = r.perLayer
	}
	out := map[string]any{}
	for _, m := range ms {
		if m.Ungated {
			continue
		}
		v := m.Value
		if math.IsNaN(v) {
			v = 0
		} else if math.IsInf(v, 0) {
			v = math.MaxFloat64 // a failed request is over any limit
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return
	}
	fmt.Println(string(line))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
