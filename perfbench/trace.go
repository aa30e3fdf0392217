package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"modissense/internal/core"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/pubsub"
	"modissense/internal/query"
	"modissense/internal/repos"
)

// The traced run times each layer from outside the program. Right after a
// sampled request completes, the benchmark replays the request's work
// through each module's public functions — Handler.ServeHTTP, the Platform
// call, Users.Authenticate, Query.Run, Table.MultiScanCtx, DecodeVisit and
// so on — and records each call as a span. The spans of one request share
// a trace id and nest by caller: a child is a call its parent makes. Since
// a child is timed by its own replay, its interval lies after its parent's
// rather than inside it, so self time is a span's duration minus its
// children's durations. Replays that would change what later requests see
// (a check-in, a cache fill) run on a side platform or under a window
// shifted by a few milliseconds, which no check-in falls into.

// span is one timed call of a trace.
type span struct {
	name  string
	start time.Time
	dur   time.Duration
	kids  []*span
}

func (s *span) child(name string, start time.Time, dur time.Duration) *span {
	k := &span{name: name, start: start, dur: dur}
	s.kids = append(s.kids, k)
	return k
}

// leaves sums the durations of the spans with no children below s.
func (s *span) leaves() time.Duration {
	if len(s.kids) == 0 {
		return s.dur
	}
	var d time.Duration
	for _, k := range s.kids {
		d += k.leaves()
	}
	return d
}

// spanRecord is one span as written to the span dump.
type spanRecord struct {
	Trace   int64  `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	SelfUS  int64  `json:"self_us"`
}

// tracer replays sampled requests and keeps their spans in memory until
// the run ends. The writer and reader of ingest_mixed share it.
type tracer struct {
	r      *runner
	origin time.Time
	side   *env // check-in replays land here, not on the measured platform
	view   *matview.HotInView
	warmed bool // view holds the loaded dataset

	mu         sync.Mutex
	sideTokens map[int64]string
	shift      int64
	nextTrace  int64
	records    []spanRecord
	layer      map[string]*samples
	busy       map[string]time.Duration // replay time per request kind, for the sampling budget
	segStart   time.Time
}

// newTracer boots the side platform check-in replays write to, with the
// measured platform's configuration and, when it keeps a WAL, its own log.
func newTracer(r *runner, cfg core.Config, walDir string) (*tracer, error) {
	if cfg.WALDir != "" {
		cfg.WALDir = walDir
	}
	side, err := boot(cfg)
	if err != nil {
		return nil, fmt.Errorf("side platform: %w", err)
	}
	view, err := matview.NewHotInView(matview.ViewOptions{BucketMillis: bucketMillis, HorizonMillis: horizonMillis})
	if err != nil {
		side.close()
		return nil, err
	}
	now := time.Now()
	return &tracer{r: r, origin: now, segStart: now, side: side, view: view,
		sideTokens: map[int64]string{}, layer: map[string]*samples{}, busy: map[string]time.Duration{}}, nil
}

func (t *tracer) close() error { return t.side.close() }

// begin starts a traced segment.
func (t *tracer) begin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.segStart, t.busy = time.Now(), map[string]time.Duration{}
}

// want reports whether the next request of a kind should be replayed:
// each kind's replays pause while they have used more than half of the
// segment so far, so cheap kinds are not starved by expensive ones.
func (t *tracer) want(kind string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy[kind] <= time.Since(t.segStart)/2
}

// add records one per-layer sample.
func (t *tracer) add(name string, v float64) {
	s := t.layer[name]
	if s == nil {
		s = &samples{}
		t.layer[name] = s
	}
	s.add(v)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// commit stores one finished trace and its coverage: the share of the
// round trip that the module calls at its leaves account for.
func (t *tracer) commit(root *span, replayStart time.Time, vals map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.busy[root.name] += time.Since(replayStart)
	t.nextTrace++
	id := 0
	var walk func(s *span, parent int)
	walk = func(s *span, parent int) {
		id++
		me := id
		self := s.dur
		for _, k := range s.kids {
			self -= k.dur
		}
		t.records = append(t.records, spanRecord{Trace: t.nextTrace, ID: me, Parent: parent, Name: s.name,
			StartUS: s.start.Sub(t.origin).Microseconds(), DurUS: s.dur.Microseconds(), SelfUS: max(0, self).Microseconds()})
		for _, k := range s.kids {
			walk(k, me)
		}
	}
	walk(root, 0)
	if root.dur > 0 {
		t.add("trace."+strings.TrimPrefix(root.name, "http.")+"_coverage", float64(root.leaves())/float64(root.dur))
	}
	for k, v := range vals {
		t.add(k, v)
	}
}

// timed runs fn once and returns when it started and how long it took.
func timed(fn func()) (time.Time, time.Duration) {
	start := time.Now()
	fn()
	return start, time.Since(start)
}

// perCall times n calls of a sub-microsecond function and returns the
// time of one, so timer overhead does not swamp it.
func perCall(n int, fn func()) (time.Time, time.Duration) {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return start, time.Since(start) / time.Duration(n)
}

// serve replays one request through the handler in-process.
func serve(h http.Handler, method, path string, body []byte) (time.Time, time.Duration, int) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start, d := timed(func() { h.ServeHTTP(rec, req) })
	return start, d, rec.Code
}

// nextShift returns a fresh window shift in milliseconds, below one second.
func (t *tracer) nextShift() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shift = t.shift%998 + 1
	return t.shift
}

// noopCoprocessor does nothing per region: timing it isolates the scatter
// itself, task dispatch and gather, from the work a real coprocessor does.
type noopCoprocessor struct{}

func (noopCoprocessor) Name() string                                   { return "perfbench-noop" }
func (noopCoprocessor) RunRegion(*kvstore.Region) (interface{}, error) { return nil, nil }

// querySpec builds the engine spec Platform.Search builds for s, with the
// window end shifted by shift milliseconds.
func querySpec(s *searchSpec, shift int64) query.Spec {
	to := s.To
	if to == 0 {
		to = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	}
	return query.Spec{BBox: s.BBox, Keyword: s.Keyword, FriendIDs: s.Friends, FromMillis: s.From,
		ToMillis: to + shift, OrderBy: query.OrderBy(s.Order), Limit: s.Limit}
}

// scanRanges returns the row ranges the coprocessors read for q.
func scanRanges(q query.Spec) []kvstore.ScanRange {
	friends := append([]int64(nil), q.FriendIDs...)
	sort.Slice(friends, func(i, j int) bool { return friends[i] < friends[j] })
	var out []kvstore.ScanRange
	for i, f := range friends {
		if i > 0 && f == friends[i-1] {
			continue
		}
		start, stop := repos.VisitScanBounds(f, q.FromMillis, q.ToMillis)
		out = append(out, kvstore.ScanRange{Start: start, Stop: stop})
	}
	return out
}

// search replays one search. A cache hit replays as a hit; a miss replays
// under shifted windows so every replay misses too.
func (t *tracer) search(l *live, s *searchSpec, token string, start time.Time, rt time.Duration, a *answer) {
	if !t.want("http.search") {
		return
	}
	ctx := context.Background()
	replayStart := time.Now()
	root := &span{name: "http.search", start: start, dur: rt}
	var shift, shift2 int64
	if !a.Cached {
		shift, shift2 = t.nextShift(), t.nextShift()
	}
	st, serveD, code := serve(l.handler, "POST", "/api/v1/search", searchBody(token, s, shift))
	if code != http.StatusOK {
		return
	}
	sv := root.child("core.serve", st, serveD)
	q := querySpec(s, 0)
	pq := querySpec(s, shift2)
	st, platD := timed(func() {
		_, _ = l.p.Search(ctx, core.SearchRequest{Token: token, BBox: pq.BBox, Keyword: pq.Keyword, Friends: pq.FriendIDs,
			From: time.UnixMilli(pq.FromMillis).UTC(), To: time.UnixMilli(pq.ToMillis).UTC(), OrderBy: pq.OrderBy, Limit: pq.Limit})
	})
	pc := sv.child("core.platform_call", st, platD)
	st, authD := perCall(64, func() { _, _ = l.p.Users.Authenticate(token) })
	pc.child("social.authenticate", st, authD)

	nc := q
	nc.NoCache = true
	runStart, runD := timed(func() { _, _ = l.p.Query.Run(ctx, nc) })
	ranges := scanRanges(q)
	table := l.p.Visits.Table()
	msStart, msD := timed(func() {
		_ = table.MultiScanCtx(ctx, ranges, 0, func(kvstore.RowResult) bool { return true })
	})
	var raws [][]byte
	_ = table.MultiScanCtx(ctx, ranges, 0, func(row kvstore.RowResult) bool {
		if v, ok := row.Get(repos.VisitQualifier); ok {
			raws = append(raws, bytes.Clone(v))
		}
		return true
	})
	schema := l.p.Visits.Schema()
	decStart, decD := timed(func() {
		for _, raw := range raws {
			_, _ = repos.DecodeVisit(schema, raw)
		}
	})
	var hitRes *query.Result
	hitStart, hitD := timed(func() { hitRes, _ = l.p.Query.Run(ctx, q) })
	_, scatterD := timed(func() { _, _ = table.ExecCoprocessorCtx(ctx, noopCoprocessor{}) })

	if a.Cached {
		pc.child("matview.cache_hit", hitStart, hitD)
	} else {
		qn := pc.child("query.run", runStart, runD)
		qn.child("kvstore.multiscan", msStart, msD)
		qn.child("repos.decode", decStart, decD)
	}
	vals := map[string]float64{
		"core.http_us":           us(rt - serveD),
		"core.handler_self_us":   us(serveD - platD),
		"social.authenticate_us": us(authD),
		"query.run_us":           us(runD),
		"query.self_us":          us(runD - msD - decD),
		"kvstore.multiscan_us":   us(msD),
		"exec.scatter_us":        us(scatterD),
	}
	if len(raws) > 0 {
		vals["repos.decode_us_per_row"] = us(decD) / float64(len(raws))
	}
	if hitRes != nil && hitRes.Cached {
		vals["matview.cache_hit_us"] = us(hitD)
	}
	t.commit(root, replayStart, vals)
}

// trending replays one friendless trending query.
func (t *tracer) trending(l *live, s *trendingSpec, start time.Time, rt time.Duration) {
	if !t.want("http.trending") {
		return
	}
	ctx := context.Background()
	replayStart := time.Now()
	root := &span{name: "http.trending", start: start, dur: rt}
	st, serveD, code := serve(l.handler, "GET", trendingPath(s), nil)
	if code != http.StatusOK {
		return
	}
	sv := root.child("core.serve", st, serveD)
	from, until := time.UnixMilli(s.from()).UTC(), time.UnixMilli(s.Until).UTC()
	st, platD := timed(func() { _, _ = l.p.Trending(ctx, s.BBox, nil, from, until, s.Limit) })
	pc := sv.child("core.platform_call", st, platD)
	st, topD := timed(func() {
		l.p.MatView.TopK(matview.TopKSpec{BBox: s.BBox, FromMillis: s.from(), ToMillis: s.Until, Limit: s.Limit})
	})
	pc.child("matview.view_topk", st, topD)
	t.commit(root, replayStart, map[string]float64{
		"matview.view_topk_us":          us(topD),
		"core.trending_handler_self_us": us(serveD - platD),
	})
}

// checkin replays one acknowledged check-in batch: the handler, the
// Platform call and the store write run on the side platform; POI lookups,
// the view update and pub/sub matching are timed against the measured
// platform's catalog, a side view and the measured registry, which only
// queues events nobody reads.
func (t *tracer) checkin(l *live, batch []checkin, start time.Time, rt time.Duration) {
	if !t.want("http.checkin") {
		return
	}
	replayStart := time.Now()
	root := &span{name: "http.checkin", start: start, dur: rt}
	tok, err := t.sideToken(batch[0].User)
	if err != nil {
		return
	}
	st, serveD, code := serve(t.side.handler, "POST", "/api/v1/checkins", checkinBody(tok, batch))
	if code != http.StatusOK {
		return
	}
	sv := root.child("core.serve", st, serveD)
	items := make([]core.CheckinPush, len(batch))
	visits := make([]model.Visit, len(batch))
	for i, c := range batch {
		items[i] = core.CheckinPush{POIID: c.POI, Time: c.Time, Grade: c.Grade, Network: "facebook"}
		visits[i] = t.visit(c)
	}
	t.warmView()
	st, platD := timed(func() { _, _, _ = t.side.p.PushCheckins(tok, items) })
	pc := sv.child("core.platform_call", st, platD)
	st, authD := perCall(64, func() { _, _ = t.side.p.Users.Authenticate(tok) })
	pc.child("social.authenticate", st, authD)
	st, getD := perCall(8, func() {
		for _, c := range batch {
			l.p.POIs.Get(c.POI)
		}
	})
	pc.child("relstore.poi_get", st, getD)
	st, storeD := timed(func() { _ = t.side.p.Visits.StoreBatch(visits) })
	pc.child("repos.store_batch", st, storeD)
	_, applyD := timed(func() { t.view.Apply(visits) })
	_, pubD := timed(func() {
		for _, v := range visits {
			l.p.PubSub.Publish(pubsub.Checkin{UserID: v.UserID, POIID: v.POI.ID, POIName: v.POI.Name,
				Point: geo.Point{Lat: v.POI.Lat, Lon: v.POI.Lon}, TimeMillis: v.Time, Grade: v.Grade,
				Network: v.Network, Text: v.POI.Name + " " + strings.Join(v.POI.Keywords, " ")})
		}
	})
	t.commit(root, replayStart, map[string]float64{
		"core.checkin_handler_self_us": us(serveD - platD),
		"relstore.poi_get_us":          us(getD) / float64(len(batch)),
		"repos.store_batch_us":         us(storeD),
		"matview.view_apply_us":        us(applyD),
		"pubsub.publish_us":            us(pubD) / float64(len(batch)),
	})
}

// visit renders a check-in the way the platform stores it.
func (t *tracer) visit(c checkin) model.Visit {
	return model.Visit{UserID: c.User, Time: c.Time, Grade: c.Grade, Network: "facebook", POI: t.r.catalog[c.POI]}
}

// warmView fills the side view with the loaded dataset once, so a timed
// Apply meets a view holding fourteen days of buckets.
func (t *tracer) warmView() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.warmed {
		return
	}
	t.warmed = true
	for _, h := range t.r.ds.history {
		batch := make([]model.Visit, len(h))
		for i, c := range h {
			batch[i] = t.visit(c)
		}
		t.view.Apply(batch)
	}
}

// sideToken signs the user in on the side platform once.
func (t *tracer) sideToken(uid int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tok, ok := t.sideTokens[uid]; ok {
		return tok, nil
	}
	_, tok, err := t.side.p.Users.SignIn("facebook", fmt.Sprintf("facebook:%d", uid))
	if err != nil {
		return "", err
	}
	t.sideTokens[uid] = tok
	return tok, nil
}

// dump writes every span as one JSON line and returns the file's path.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.records {
		if err := enc.Encode(&t.records[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
