package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// item is one ranked answer entry: what the oracle recomputes and what a
// response is compared on.
type item struct {
	POI    int64
	Visits int
	Score  float64
}

// ackLog keeps every acknowledged check-in: the oracle's only source of
// truth. The writer appends while the reader reads the newest stamp, so it
// is guarded.
type ackLog struct {
	mu     sync.Mutex
	byUser map[int64][]checkin
	count  int
	newest int64
}

func newAckLog() *ackLog { return &ackLog{byUser: map[int64][]checkin{}} }

// add records one acknowledged batch.
func (a *ackLog) add(batch []checkin) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range batch {
		a.byUser[c.User] = append(a.byUser[c.User], c)
		if c.Time > a.newest {
			a.newest = c.Time
		}
	}
	a.count += len(batch)
}

// newestStamp returns the newest acknowledged timestamp.
func (a *ackLog) newestStamp() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.newest
}

// oracle recomputes answers from a frozen copy of the acknowledged
// check-ins. Build it only after every writer has stopped.
type oracle struct {
	byUser  map[int64][]checkin
	byTime  []checkin // every check-in, ascending by time
	catalog map[int64]model.POI
}

func newOracle(a *ackLog, catalog map[int64]model.POI) *oracle {
	a.mu.Lock()
	defer a.mu.Unlock()
	o := &oracle{byUser: make(map[int64][]checkin, len(a.byUser)), catalog: catalog}
	for u, cs := range a.byUser {
		o.byUser[u] = append([]checkin(nil), cs...)
		o.byTime = append(o.byTime, cs...)
	}
	sort.Slice(o.byTime, func(i, j int) bool { return o.byTime[i].Time < o.byTime[j].Time })
	return o
}

// agg is one POI's running aggregate.
type agg struct {
	visits   int
	gradeSum float64
}

// keep applies the box and keyword predicates exactly as the server does:
// box borders inclusive, keyword an exact member of the POI's keywords.
func (o *oracle) keep(poi int64, bbox *geo.Rect, keyword string) bool {
	p := o.catalog[poi]
	if bbox != nil && !bbox.Contains(p.Point()) {
		return false
	}
	if keyword == "" {
		return true
	}
	for _, k := range p.Keywords {
		if k == keyword {
			return true
		}
	}
	return false
}

// search recomputes a personalized top-k: every distinct friend's
// check-ins inside [From, To], filtered, aggregated per POI; interest is
// the mean grade, hotness the visit count, ties broken on POI id.
func (o *oracle) search(s *searchSpec) []item {
	sums := map[int64]*agg{}
	seen := map[int64]bool{}
	to := s.to()
	for _, f := range s.Friends {
		if seen[f] {
			continue
		}
		seen[f] = true
		for _, c := range o.byUser[f] {
			if c.Time < s.From || c.Time > to || !o.keep(c.POI, s.BBox, s.Keyword) {
				continue
			}
			a := sums[c.POI]
			if a == nil {
				a = &agg{}
				sums[c.POI] = a
			}
			a.visits++
			a.gradeSum += c.Grade
		}
	}
	return rank(sums, s.Order == "hotness", s.Limit)
}

// trending recomputes a friendless trending top-k with the view's
// hour-bucket semantics: a check-in counts when its bucket starts at or
// after the bucket holding the window start and before the window end.
// A window longer than the view horizon is first clamped to its trailing
// horizon.
func (o *oracle) trending(s *trendingSpec) []item {
	from, to := s.from(), s.Until
	if to-from > horizonMillis {
		from = to - horizonMillis
	}
	lo := floorBucket(from)
	i := sort.Search(len(o.byTime), func(i int) bool { return o.byTime[i].Time >= lo })
	sums := map[int64]*agg{}
	for ; i < len(o.byTime) && floorBucket(o.byTime[i].Time) < to; i++ {
		c := o.byTime[i]
		if !o.keep(c.POI, s.BBox, "") {
			continue
		}
		a := sums[c.POI]
		if a == nil {
			a = &agg{}
			sums[c.POI] = a
		}
		a.visits++
		a.gradeSum += c.Grade
	}
	return rank(sums, true, s.Limit)
}

// floorBucket rounds a timestamp down to its hour bucket.
func floorBucket(t int64) int64 {
	q := t / bucketMillis
	if t%bucketMillis < 0 {
		q--
	}
	return q * bucketMillis
}

// rank orders aggregates by visit count (hotness) or mean grade
// (interest), descending, POI id ascending on ties, and keeps limit.
func rank(sums map[int64]*agg, hotness bool, limit int) []item {
	items := make([]item, 0, len(sums))
	for id, a := range sums {
		items = append(items, item{POI: id, Visits: a.visits, Score: a.gradeSum / float64(a.visits)})
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if hotness {
			if a.Visits != b.Visits {
				return a.Visits > b.Visits
			}
		} else if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.POI < b.POI
	})
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	return items
}

// diff returns "" when got equals want, else a one-line description of
// the first difference.
func diff(got, want []item) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.POI != w.POI || g.Visits != w.Visits || math.Abs(g.Score-w.Score) > 1e-9 {
			return fmt.Sprintf("rank %d: got poi %d (%d visits, %.6f), oracle poi %d (%d visits, %.6f)",
				i+1, g.POI, g.Visits, g.Score, w.POI, w.Visits, w.Score)
		}
	}
	return ""
}
