package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// Dataset shape shared by every workload.
const (
	numUsers      = 4000 // signed-in users facebook:1..numUsers
	numPOIs       = 800  // the server's default catalog size
	minCheckins   = 12   // per-user history, about the paper's 170 ÷ 10
	maxCheckins   = 22
	windowDays    = 14 // loaded check-ins fall in [loadStart, loadEnd)
	resultLimit   = 10 // top-k of every search and trending query
	platformSeed  = 1  // the server's -seed default; fixes the POI catalog
	bucketMillis  = int64(time.Hour / time.Millisecond)
	horizonMillis = int64(336 * time.Hour / time.Millisecond)
)

// loadStart is the first instant of the loaded window, inside the
// generators' era so the catalog and the check-ins line up.
var loadStart = time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

// loadEnd is the exclusive end of the loaded window.
var loadEnd = loadStart + windowDays*24*int64(time.Hour/time.Millisecond)

// checkin is one check-in as the benchmark pushes it and the oracle sees it.
type checkin struct {
	User  int64
	POI   int64
	Time  int64 // Unix ms, whole seconds
	Grade float64
}

// dataset is the seeded input of one run: every user's loaded history.
// It depends only on the workload seed.
type dataset struct {
	history [][]checkin // index uid-1
	newest  int64       // newest loaded timestamp
	poiPerm []int       // popularity rank → POI index
	writers []int64     // ingest_mixed's writing users
}

// newDataset draws every user's history. Each user has an independent
// generator, so a history does not depend on the order users are drawn in.
// POI popularity is Zipf-skewed through a seeded permutation so that
// rankings have clear leaders; grades are whole numbers 1–5, which keeps
// every grade sum exact in floating point.
func newDataset(seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{history: make([][]checkin, numUsers), poiPerm: rng.Perm(numPOIs)}
	for _, u := range rng.Perm(numUsers)[:numWriters] {
		d.writers = append(d.writers, int64(u)+1)
	}
	for uid := int64(1); uid <= numUsers; uid++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + uid))
		zipf := rand.NewZipf(rng, 1.1, 4, numPOIs-1)
		n := minCheckins + rng.Intn(maxCheckins-minCheckins+1)
		seen := make(map[int64]bool, n)
		hist := make([]checkin, 0, n)
		for len(hist) < n {
			sec := rng.Int63n(windowDays * 24 * 3600)
			if seen[sec] {
				continue // one check-in per user per second
			}
			seen[sec] = true
			c := checkin{
				User:  uid,
				POI:   d.poi(zipf),
				Time:  loadStart + sec*1000,
				Grade: float64(1 + rng.Intn(5)),
			}
			hist = append(hist, c)
			if c.Time > d.newest {
				d.newest = c.Time
			}
		}
		sort.Slice(hist, func(i, j int) bool { return hist[i].Time < hist[j].Time })
		d.history[uid-1] = hist
	}
	return d
}

// poi draws a POI id by popularity.
func (d *dataset) poi(z *rand.Zipf) int64 { return int64(d.poiPerm[z.Uint64()]) + 1 }

// total returns the number of loaded check-ins.
func (d *dataset) total() int {
	n := 0
	for _, h := range d.history {
		n += len(h)
	}
	return n
}

// searchSpec is one personalized search as the benchmark issues it.
type searchSpec struct {
	User    int64 // the signed-in caller
	Friends []int64
	BBox    *geo.Rect
	Keyword string
	From    int64 // Unix ms, inclusive
	To      int64 // Unix ms, inclusive; 0 means open-ended
	Order   string
	Limit   int
}

// to returns the inclusive window end the server applies.
func (s *searchSpec) to() int64 {
	if s.To == 0 {
		return math.MaxInt64
	}
	return s.To
}

// trendingSpec is one friendless trending query.
type trendingSpec struct {
	Hours int
	Until int64 // Unix ms
	BBox  *geo.Rect
	Limit int
}

// from returns the window start the server derives from hours.
func (s *trendingSpec) from() int64 {
	return s.Until - int64(s.Hours)*int64(time.Hour/time.Millisecond)
}

// keywords is the keyword vocabulary of the default catalog's categories.
var keywords = []string{
	"food", "restaurant", "cafe", "coffee", "breakfast", "bar", "nightlife",
	"museum", "culture", "beach", "hotel", "art",
}

// specMaker draws search and trending inputs from one seeded generator.
type specMaker struct {
	rng     *rand.Rand
	catalog map[int64]model.POI
}

// bbox returns a box of 20–150 km around a random catalog POI, so a box
// always holds some POIs and never the whole country.
func (m *specMaker) bbox() *geo.Rect {
	c := m.catalog[int64(1+m.rng.Intn(len(m.catalog)))]
	half := 10 + m.rng.Float64()*65 // km
	dLat := geo.MetersToLatDegrees(half * 1000)
	dLon := geo.MetersToLonDegrees(half*1000, c.Lat)
	r := geo.NewRect(geo.Point{Lat: c.Lat - dLat, Lon: c.Lon - dLon}, geo.Point{Lat: c.Lat + dLat, Lon: c.Lon + dLon})
	return &r
}

// window returns a random sub-window of the loaded window of 1–14 days,
// on whole seconds.
func (m *specMaker) window() (int64, int64) {
	dayMs := int64(24 * time.Hour / time.Millisecond)
	days := 1 + m.rng.Int63n(windowDays)
	from := loadStart + m.rng.Int63n((windowDays-days)*24*3600+1)*1000
	return from, from + days*dayMs - 1000
}

// friends draws n distinct users other than self, uniformly.
func (m *specMaker) friends(self int64, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		id := int64(1 + m.rng.Intn(numUsers))
		if id == self || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// logUniform draws an integer log-uniformly from [lo, hi].
func (m *specMaker) logUniform(lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + m.rng.Float64()*(math.Log(float64(hi+1))-math.Log(float64(lo))))
	return min(hi, int(v))
}

// decorate applies the optional predicates: a box half the time, a
// keyword a quarter of the time, and either ranking order.
func (m *specMaker) decorate(s *searchSpec) {
	if m.rng.Intn(2) == 0 {
		s.BBox = m.bbox()
	}
	if m.rng.Intn(4) == 0 {
		s.Keyword = keywords[m.rng.Intn(len(keywords))]
	}
	s.Order = "interest"
	if m.rng.Intn(2) == 0 {
		s.Order = "hotness"
	}
	s.Limit = resultLimit
}

// trending returns a friendless trending query over the last 1–48 hours
// before until, with a box half the time.
func (m *specMaker) trending(until int64) trendingSpec {
	s := trendingSpec{Hours: 1 + m.rng.Intn(48), Until: until, Limit: resultLimit}
	if m.rng.Intn(2) == 0 {
		s.BBox = m.bbox()
	}
	return s
}
