package query

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// benchVisits populates a visits table for `users` users, either with the
// current binary codec or the legacy JSON payloads.
func benchVisits(b *testing.B, users int, legacyJSON bool) *repos.VisitsRepo {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pois := workload.GenPOIs(rng, 300)
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, int64(users), 32, 4, kvstore.DefaultStoreOptions())
	if err != nil {
		b.Fatal(err)
	}
	if legacyJSON {
		visits.UseLegacyJSON()
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= int64(users); uid++ {
		for _, v := range workload.GenVisitsForUser(rng, uid, pois, start, end, 10, 2) {
			if err := visits.Store(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	return visits
}

// benchCoprocessor measures the full region-side read path of one
// personalized query with `friends` friends: scan, decode, filter,
// aggregate — the work Figure 2 scales with cluster size.
func benchCoprocessor(b *testing.B, friends int, legacyJSON, nScan bool) {
	visits := benchVisits(b, friends, legacyJSON)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, int64(friends)), FromMillis: from, ToMillis: to, OrderBy: ByInterest}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	cp := &visitsCoprocessor{
		spec:    &spec,
		schema:  repos.SchemaReplicated,
		friends: sortedDistinctFriends(spec.FriendIDs),
		nScan:   nScan,
	}
	regions := visits.Table().Regions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		for _, r := range regions {
			out, err := cp.RunRegionCtx(ctx, r)
			if err != nil {
				b.Fatal(err)
			}
			matched += out.(*regionOutput).work.VisitsMatched
		}
		if matched == 0 {
			b.Fatal("benchmark query matched no visits")
		}
	}
}

// BenchmarkCoprocessor6000FriendsNScanJSON is the retained PR-1 baseline:
// one scan per friend per region, JSON visit payloads.
func BenchmarkCoprocessor6000FriendsNScanJSON(b *testing.B) {
	benchCoprocessor(b, 6000, true, true)
}

// BenchmarkCoprocessor6000FriendsMultiBinary is the tentpole configuration:
// one multi-range scan per region, binary visit payloads.
func BenchmarkCoprocessor6000FriendsMultiBinary(b *testing.B) {
	benchCoprocessor(b, 6000, false, false)
}

// The small variants keep `make bench-smoke` fast while exercising the
// identical code paths.

func BenchmarkCoprocessor200FriendsNScanJSON(b *testing.B) {
	benchCoprocessor(b, 200, true, true)
}

func BenchmarkCoprocessor200FriendsMultiBinary(b *testing.B) {
	benchCoprocessor(b, 200, false, false)
}

// BenchmarkCoprocessorSegments is the 200-friend coprocessor over flushed
// segments, the storage shape of the search_scan workload: 4000 users in
// 16 regions with 128 KiB memtables, every row flushed into blocks, and a
// 2 MiB block cache a fraction of the segments' size. Each iteration runs
// the next of 16 fresh 200-friend specs, half with a bounding box and a
// quarter with a keyword, so most blocks a scan reads must be decoded
// again, unlike the memtable-only benchmarks above.
func BenchmarkCoprocessorSegments(b *testing.B) {
	const users, friends = 4000, 200
	opts := kvstore.DefaultStoreOptions()
	opts.FlushThresholdBytes = 128 << 10
	opts.BlockCache = kvstore.NewBlockCache(2 << 20)
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, users, 16, 4, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pois := workload.GenPOIs(rng, 800)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= users; uid++ {
		if err := visits.StoreBatch(workload.GenVisitsForUser(rng, uid, pois, start, end, 10, 2)); err != nil {
			b.Fatal(err)
		}
	}
	regions := visits.Table().Regions()
	for _, r := range regions {
		if err := r.Store().Flush(); err != nil {
			b.Fatal(err)
		}
	}
	from, to := window()
	greece := workload.GreeceBounds()
	box := &geo.Rect{MinLat: greece.MinLat, MinLon: greece.MinLon,
		MaxLat: (greece.MinLat + greece.MaxLat) / 2, MaxLon: (greece.MinLon + greece.MaxLon) / 2}
	cps := make([]*visitsCoprocessor, 16)
	for i := range cps {
		spec := Spec{FromMillis: from, ToMillis: to, OrderBy: ByInterest}
		for _, f := range rng.Perm(users)[:friends] {
			spec.FriendIDs = append(spec.FriendIDs, int64(f+1))
		}
		if i%2 == 0 {
			spec.BBox = box
		}
		if i%4 == 0 {
			spec.Keyword = pois[i].Keywords[0]
		}
		cps[i] = &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, friends: sortedDistinctFriends(spec.FriendIDs)}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := cps[i%len(cps)]
		rows := 0
		for _, r := range regions {
			out, err := cp.RunRegionCtx(ctx, r)
			if err != nil {
				b.Fatal(err)
			}
			rows += out.(*regionOutput).work.RowsScanned
		}
		if rows == 0 {
			b.Fatal("benchmark query scanned no visits")
		}
	}
}
