package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"modissense/internal/core"
	"modissense/internal/model"
)

// live is a set-up platform: booted, every user signed in, the dataset
// loaded, and the acknowledged check-ins kept for the oracle.
type live struct {
	*env
	cfg    core.Config
	c      *client  // the set-up and reader connection
	tokens []string // index uid-1
	acked  *ackLog
	closed bool
}

func (l *live) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	l.c.closeIdle()
	return l.env.close()
}

// closeQuietly closes on an error path, where the first error is the one
// worth reporting.
func (l *live) closeQuietly() { _ = l.close() }

// setup boots a platform with cfg and makes it ready: it signs in every
// user, reads the POI catalog, loads every user's history as one batch,
// creates the workload's standing subscriptions, and ends once the first
// search answer matches the oracle. It returns the elapsed time. Load
// batch latencies go to loadLat when it is non-nil, and a non-nil tracer
// replays a sample of them.
func (r *runner) setup(cfg core.Config, loadLat *samples, tr *tracer) (*live, time.Duration, error) {
	start := time.Now()
	e, err := boot(cfg)
	if err != nil {
		return nil, 0, err
	}
	l := &live{env: e, cfg: cfg, c: newClient(e.base), tokens: make([]string, numUsers), acked: newAckLog()}
	if err := r.ready(l, loadLat, tr); err != nil {
		l.closeQuietly()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return l, time.Since(start), nil
}

func (r *runner) ready(l *live, loadLat *samples, tr *tracer) error {
	for uid := int64(1); uid <= numUsers; uid++ {
		tok, err := signIn(l.c, uid)
		if err != nil {
			return err
		}
		l.tokens[uid-1] = tok
	}
	catalog := make(map[int64]model.POI, numPOIs)
	for id := int64(1); id <= numPOIs; id++ {
		var p model.POI
		if _, _, err := l.c.do("GET", "/api/v1/pois/"+strconv.FormatInt(id, 10), nil, &p); err != nil {
			return err
		}
		catalog[id] = p
	}
	if r.catalog == nil {
		r.catalog = catalog
	}
	for uid := int64(1); uid <= numUsers; uid++ {
		batch := r.ds.history[uid-1]
		body := checkinBody(l.tokens[uid-1], batch)
		var resp struct {
			Stored int `json:"stored"`
		}
		sent := time.Now()
		if _, _, err := l.c.do("POST", "/api/v1/checkins", body, &resp); err != nil {
			return err
		}
		rt := time.Since(sent)
		if resp.Stored != len(batch) {
			return fmt.Errorf("load user %d: stored %d of %d check-ins", uid, resp.Stored, len(batch))
		}
		l.acked.add(batch)
		if loadLat != nil {
			loadLat.addDur(rt)
		}
		if tr != nil && uid%16 == 0 {
			tr.checkin(l, batch, sent, rt)
		}
	}
	m := &specMaker{rng: rand.New(rand.NewSource(r.seed*53 + 5)), catalog: r.catalog}
	for i := 0; i < r.wl.subs; i++ {
		poi := r.catalog[int64(1+m.rng.Intn(numPOIs))]
		body := subscriptionBody(l.tokens[i%numUsers], *m.bbox(), poi.Keywords[m.rng.Intn(len(poi.Keywords))])
		if _, _, err := l.c.do("POST", "/api/v1/subscriptions", body, nil); err != nil {
			return err
		}
	}
	return r.firstAnswer(l, l.c, l.tokens[0])
}

// signIn signs facebook:uid in and checks the platform gave it user id
// uid, which holds when users sign in in id order on a fresh platform.
func signIn(c *client, uid int64) (string, error) {
	body, err := json.Marshal(map[string]string{"network": "facebook", "credentials": "facebook:" + strconv.FormatInt(uid, 10)})
	if err != nil {
		return "", err
	}
	var resp struct {
		UserID int64  `json:"user_id"`
		Token  string `json:"token"`
	}
	if _, _, err := c.do("POST", "/api/v1/signin", body, &resp); err != nil {
		return "", err
	}
	if resp.UserID != uid {
		return "", fmt.Errorf("facebook:%d signed in as user %d", uid, resp.UserID)
	}
	return resp.Token, nil
}

// checkSpec is the search whose first correct answer ends set-up and
// reboot: 300 friends, 64 of them writers, over all time.
func (r *runner) checkSpec() *searchSpec {
	m := &specMaker{rng: rand.New(rand.NewSource(r.seed*59 + 6)), catalog: r.catalog}
	friends := append(m.friends(1, 300-64), r.ds.writers[:64]...)
	return &searchSpec{User: 1, Friends: friends, From: loadStart, Order: "hotness", Limit: resultLimit}
}

// firstAnswer sends checkSpec as user 1 and compares it to the oracle.
func (r *runner) firstAnswer(l *live, c *client, token string) error {
	s := r.checkSpec()
	var a answer
	if _, _, err := c.do("POST", "/api/v1/search", searchBody(token, s, 0), &a); err != nil {
		return err
	}
	if d := diff(a.items(), newOracle(l.acked, r.catalog).search(s)); d != "" {
		return fmt.Errorf("first answer differs from the oracle: %s", d)
	}
	return nil
}

// verify compares every kept answer of ph with the oracle. Call it only
// once no writer is running. A search mismatch no longer counts as a
// correct search.
func (r *runner) verify(l *live, ph *phase) {
	o := newOracle(l.acked, r.catalog)
	for _, c := range ph.checks {
		var want []item
		kind := "search"
		if c.search != nil {
			want = o.search(c.search)
			ph.checkedSearches++
		} else {
			want = o.trending(c.trend)
			kind = "trending"
			ph.checkedTrending++
		}
		if d := diff(c.got, want); d != "" {
			r.fail("%s answer differs from the oracle: %s", kind, d)
			if c.search != nil {
				ph.searchOK--
			}
		}
	}
	ph.checks = nil
}

// rebooter times restarts over one WAL. A durable workload restarts its
// own platform over its own log once the timed phase is over; a read
// workload, which keeps no WAL, restarts a probe platform set up with
// -wal-sync group and the same dataset. Each restart is timed from boot
// until the first answer matches the oracle, and the restarted platform
// is closed before the next. After the first, every acknowledged
// check-in must be in the store exactly once; any loss fails the run.
type rebooter struct {
	r        *runner
	cfg      core.Config
	acked    *ackLog
	took     samples
	replayed uint64 // WAL records the first restart replayed
}

// rebooterFor returns a rebooter over l's WAL; close l before restarting.
func (r *runner) rebooterFor(l *live) *rebooter {
	return &rebooter{r: r, cfg: l.cfg, acked: l.acked}
}

// probeRebooter sets up a read workload's probe platform and closes it.
func (r *runner) probeRebooter() (*rebooter, error) {
	cfg := r.wl.config("")
	cfg.WALDir = r.walDir("probe")
	cfg.WALSync = "group"
	probe, _, err := r.setup(cfg, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("durability probe: %w", err)
	}
	return r.rebooterFor(probe), probe.close()
}

// block runs n restarts.
func (b *rebooter) block(n int) error {
	for i := 0; i < n; i++ {
		if err := b.restart(); err != nil {
			return err
		}
	}
	return nil
}

func (b *rebooter) restart() error {
	runtime.GC() // every restart starts from the same heap state
	start := time.Now()
	e, err := boot(b.cfg)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	l := &live{env: e, cfg: b.cfg, c: newClient(e.base), acked: b.acked}
	defer l.closeQuietly()
	tok, err := signIn(l.c, 1)
	if err == nil {
		err = b.r.firstAnswer(l, l.c, tok)
	}
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	b.took.add(time.Since(start).Seconds())
	if b.took.n() == 1 {
		b.replayed = readTable(e.p).puts
		if err := b.r.verifyDurable(l); err != nil {
			return err
		}
	}
	if err := l.close(); err != nil {
		return fmt.Errorf("close after reboot: %w", err)
	}
	return nil
}

// verifyDurable checks that the rebooted store holds exactly the
// acknowledged check-ins.
func (r *runner) verifyDurable(l *live) error {
	want := map[checkin]int{}
	l.acked.mu.Lock()
	for _, cs := range l.acked.byUser {
		for _, c := range cs {
			want[c]++
		}
	}
	total := l.acked.count
	l.acked.mu.Unlock()
	extra := 0
	err := l.p.Visits.ScanAll(func(v model.Visit) bool {
		c := checkin{User: v.UserID, POI: v.POI.ID, Time: v.Time, Grade: v.Grade}
		if want[c] > 0 {
			want[c]--
		} else {
			extra++
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("scan rebooted store: %w", err)
	}
	lost := 0
	for _, n := range want {
		lost += n
	}
	r.attempted++
	if lost > 0 || extra > 0 {
		r.fail("durability: %d of %d acknowledged check-ins lost, %d unexpected rows after reboot", lost, total, extra)
		return nil
	}
	r.rep.note("durability: all %d acknowledged check-ins present after reboot", total)
	return nil
}
