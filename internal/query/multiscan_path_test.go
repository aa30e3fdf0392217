package query

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// TestMultiRangePathMatchesNScanPath is the tentpole's end-to-end property:
// for random query specs, the coprocessor's single multi-range scan per
// region must produce exactly the per-region output of the retained
// one-scan-per-friend path — same aggregates, same work counters.
func TestMultiRangePathMatchesNScanPath(t *testing.T) {
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		f := newFixture(t, schema, 4, 120)
		rng := rand.New(rand.NewSource(99))
		from, to := window()
		for trial := 0; trial < 8; trial++ {
			var friends []int64
			for len(friends) < 5+rng.Intn(40) {
				friends = append(friends, 1+rng.Int63n(120))
			}
			span := to - from
			lo := from + rng.Int63n(span/2)
			spec := Spec{
				FriendIDs:  friends,
				FromMillis: lo,
				ToMillis:   lo + rng.Int63n(span/2),
				OrderBy:    ByInterest,
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			distinct := sortedDistinctFriends(friends)
			multiCP := &visitsCoprocessor{spec: &spec, schema: schema, friends: distinct}
			nscanCP := &visitsCoprocessor{spec: &spec, schema: schema, friends: distinct, nScan: true}
			for _, r := range f.visits.Table().Regions() {
				multiOut, err := multiCP.RunRegionCtx(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				nscanOut, err := nscanCP.RunRegionCtx(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				m, n := multiOut.(*regionOutput), nscanOut.(*regionOutput)
				// Map iteration randomizes tie order inside equal sort keys;
				// canonicalize before comparing.
				canon := func(o *regionOutput) {
					sort.Slice(o.aggs, func(i, j int) bool { return o.aggs[i].poi.ID < o.aggs[j].poi.ID })
				}
				canon(m)
				canon(n)
				if !reflect.DeepEqual(m, n) {
					t.Fatalf("schema %v trial %d region %d: multi-range output diverged\nmulti: %+v\nnscan: %+v", schema, trial, r.ID, m, n)
				}
			}
		}
	}
}

// TestSortedDistinctFriends covers the dedup the multi-range contract needs.
func TestSortedDistinctFriends(t *testing.T) {
	got := sortedDistinctFriends([]int64{5, 1, 5, 3, 1, 1})
	if !reflect.DeepEqual(got, []int64{1, 3, 5}) {
		t.Errorf("sortedDistinctFriends = %v", got)
	}
	if got := sortedDistinctFriends(nil); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

// TestRunConcurrentDuplicateFriends checks duplicate friend ids in a spec
// count each friend's visits once and execute without range-overlap errors.
func TestRunConcurrentDuplicateFriends(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	base := Spec{FriendIDs: friendRange(1, 20), FromMillis: from, ToMillis: to, OrderBy: ByInterest}
	dup := base
	dup.FriendIDs = append(append([]int64(nil), base.FriendIDs...), base.FriendIDs...)
	want, err := f.engine.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.engine.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.POIs, want.POIs) {
		t.Errorf("duplicate friends changed results:\ngot  %+v\nwant %+v", got.POIs, want.POIs)
	}
}

// TestSkimPathMatchesFullDecode stores the same visits once as binary rows,
// which the coprocessor skims, and once as legacy JSON rows, which it
// decodes fully, and requires identical per-region output for random
// filtered specs: the aggregates, the POI document each keeps (its first
// matching row's) and the work counters the cost model reads.
func TestSkimPathMatchesFullDecode(t *testing.T) {
	const users = 80
	rng := rand.New(rand.NewSource(31))
	pois := workload.GenPOIs(rng, 120)
	var stores [2]*repos.VisitsRepo
	for i := range stores {
		r, err := repos.NewVisitsRepo(repos.SchemaReplicated, users, 8, 2, kvstore.DefaultStoreOptions())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = r
	}
	stores[1].UseLegacyJSON()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= users; uid++ {
		vs := workload.GenVisitsForUser(rng, uid, pois, start, end, 20, 4)
		for i := range vs {
			// Rows of one POI carry different POI documents, so the
			// output pins which row's document an aggregate keeps.
			vs[i].POI.Hotness = rng.Float64()
		}
		for _, r := range stores {
			if err := r.StoreBatch(vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	from, to := window()
	greece := workload.GreeceBounds()
	matched := 0
	for trial := 0; trial < 12; trial++ {
		spec := Spec{FromMillis: from, ToMillis: to, OrderBy: ByInterest}
		for len(spec.FriendIDs) < 5+rng.Intn(50) {
			spec.FriendIDs = append(spec.FriendIDs, 1+rng.Int63n(users))
		}
		if trial%2 == 0 {
			lat := greece.MinLat + rng.Float64()*(greece.MaxLat-greece.MinLat)/2
			lon := greece.MinLon + rng.Float64()*(greece.MaxLon-greece.MinLon)/2
			spec.BBox = &geo.Rect{MinLat: lat, MinLon: lon, MaxLat: lat + 3, MaxLon: lon + 4}
		}
		if kw := pois[rng.Intn(len(pois))].Keywords; trial%3 == 0 && len(kw) > 0 {
			spec.Keyword = kw[0]
		}
		friends := sortedDistinctFriends(spec.FriendIDs)
		skimRegions, fullRegions := stores[0].Table().Regions(), stores[1].Table().Regions()
		for ri := range skimRegions {
			var outs [2]*regionOutput
			for i, r := range []*kvstore.Region{skimRegions[ri], fullRegions[ri]} {
				cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, friends: friends}
				out, err := cp.RunRegionCtx(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = out.(*regionOutput)
				sort.Slice(outs[i].aggs, func(a, b int) bool { return outs[i].aggs[a].poi.ID < outs[i].aggs[b].poi.ID })
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Fatalf("trial %d region %d: skimmed binary rows diverge from fully decoded JSON rows\nskim: %+v\nfull: %+v", trial, ri, outs[0], outs[1])
			}
			matched += outs[0].work.VisitsMatched
		}
	}
	if matched == 0 {
		t.Fatal("no trial matched a visit")
	}
}
