package kvstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/obs"
)

// pausingCoprocessor counts rows like countingCoprocessor but parks at a
// channel rendezvous after the first row, letting tests interleave a
// SplitRegion with a running coprocessor deterministically.
type pausingCoprocessor struct {
	entered chan struct{} // closed (by test) after the coprocessor checks in
	resume  chan struct{} // closed by the test to let the scan continue
	checkin chan struct{} // coprocessor signals it is mid-scan
}

func (pausingCoprocessor) Name() string { return "pausing-count" }

func (p pausingCoprocessor) RunRegion(r *Region) (interface{}, error) {
	count := 0
	first := true
	err := r.Store().Scan(ScanOptions{}, func(RowResult) bool {
		if first {
			first = false
			select {
			case p.checkin <- struct{}{}:
				<-p.resume
			default: // only the first region to arrive parks
			}
		}
		count++
		return true
	})
	return count, err
}

// TestSplitDuringCoprocessorSeesConsistentSnapshot is the regression test
// for the split-vs-coprocessor race: a coprocessor paused mid-scan must
// keep reading its full pre-split key range even though SplitRegion swaps
// the region's store underneath it.
func TestSplitDuringCoprocessorSeesConsistentSnapshot(t *testing.T) {
	tbl := newTestTable(t, nil, 2)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cp := pausingCoprocessor{
		resume:  make(chan struct{}),
		checkin: make(chan struct{}, 1),
	}
	type cpOut struct {
		results []RegionResult
		err     error
	}
	outc := make(chan cpOut, 1)
	go func() {
		res, err := tbl.ExecCoprocessor(cp)
		outc <- cpOut{res, err}
	}()
	// Wait until the coprocessor is mid-scan, split under it, then resume.
	select {
	case <-cp.checkin:
	case <-time.After(10 * time.Second):
		t.Fatal("coprocessor never started scanning")
	}
	if err := tbl.SplitRegion("m"); err != nil {
		t.Fatal(err)
	}
	close(cp.resume)
	out := <-outc
	if out.err != nil {
		t.Fatal(out.err)
	}
	// The coprocessor started before the split: it saw ONE region holding
	// all 26 rows, not the post-split half.
	if len(out.results) != 1 {
		t.Fatalf("coprocessor saw %d regions, want 1 (pre-split snapshot)", len(out.results))
	}
	if got := out.results[0].Value.(int); got != 26 {
		t.Errorf("coprocessor counted %d rows, want all 26 despite concurrent split", got)
	}
	// And the table itself now has the split applied with all data intact.
	if got := tbl.NumRegions(); got != 2 {
		t.Fatalf("regions after split = %d, want 2", got)
	}
	rows := 0
	if err := tbl.Scan(ScanOptions{}, func(RowResult) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 26 {
		t.Errorf("rows after split = %d, want 26", rows)
	}
}

// ctxCountingCoprocessor is countingCoprocessor with cancellation support.
type ctxCountingCoprocessor struct{}

func (ctxCountingCoprocessor) Name() string { return "ctx-count" }

func (c ctxCountingCoprocessor) RunRegion(r *Region) (interface{}, error) {
	return c.RunRegionCtx(context.Background(), r)
}

func (ctxCountingCoprocessor) RunRegionCtx(ctx context.Context, r *Region) (interface{}, error) {
	count := 0
	err := r.Store().ScanCtx(ctx, ScanOptions{}, func(RowResult) bool { count++; return true })
	return count, err
}

func TestExecCoprocessorCtxMatchesSequential(t *testing.T) {
	tbl := newTestTable(t, []string{"f", "m", "t"}, 4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%c%04d", 'a'+byte(rng.Intn(26)), rng.Intn(10000))
		if err := tbl.Put(key, "q", int64(i+1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := tbl.ExecCoprocessor(ctxCountingCoprocessor{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := tbl.ExecCoprocessorCtx(context.Background(), ctxCountingCoprocessor{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Region.ID != par[i].Region.ID {
			t.Errorf("result %d region order differs: %d vs %d", i, seq[i].Region.ID, par[i].Region.ID)
		}
		if !reflect.DeepEqual(seq[i].Value, par[i].Value) {
			t.Errorf("result %d value differs: %v vs %v", i, seq[i].Value, par[i].Value)
		}
	}
	if _, err := tbl.ExecCoprocessorCtx(context.Background(), nil); err == nil {
		t.Error("nil coprocessor must fail")
	}
}

// barrierCoprocessor blocks until two regions are executing simultaneously,
// proving real parallelism.
type barrierCoprocessor struct {
	arrivals *atomic.Int32
	barrier  chan struct{}
}

func (barrierCoprocessor) Name() string { return "barrier" }

func (b barrierCoprocessor) RunRegion(*Region) (interface{}, error) {
	if b.arrivals.Add(1) == 2 {
		close(b.barrier)
	}
	select {
	case <-b.barrier:
		return nil, nil
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("barrier timeout: regions did not run concurrently")
	}
}

func TestExecCoprocessorCtxRunsRegionsInParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	tbl := newTestTable(t, []string{"m"}, 2)
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	cp := barrierCoprocessor{arrivals: &atomic.Int32{}, barrier: make(chan struct{})}
	if _, err := tbl.ExecCoprocessorCtx(ctx, cp); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Goroutines < 2 {
		t.Errorf("Stats.Goroutines = %d, want >= 2", snap.Goroutines)
	}
	if snap.Tasks != 2 {
		t.Errorf("Stats.Tasks = %d, want 2", snap.Tasks)
	}
}

func TestExecCoprocessorCtxReportsAllErrors(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 2)
	cp := failingCoprocessor{}
	res, err := tbl.ExecCoprocessorCtx(context.Background(), cp)
	if err == nil {
		t.Fatal("want joined error")
	}
	if len(res) != 2 {
		t.Fatalf("want 2 region results even on failure, got %d", len(res))
	}
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("region %d missing error", i)
		}
	}
}

type failingCoprocessor struct{}

func (failingCoprocessor) Name() string { return "failing" }
func (failingCoprocessor) RunRegion(r *Region) (interface{}, error) {
	return nil, fmt.Errorf("region %d refused", r.ID)
}

func TestScanCtxCancellationMidScan(t *testing.T) {
	tbl := newTestTable(t, nil, 1)
	for i := 0; i < 2000; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%06d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := tbl.ScanCtx(ctx, ScanOptions{}, func(RowResult) bool {
		seen++
		if seen == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanCtx after mid-scan cancel: err = %v, want context.Canceled", err)
	}
	// Cancellation is polled every ctxPollInterval rows (promptly, not
	// instantly), so at most one interval's worth of rows may still be
	// delivered after cancel fires.
	if seen < 10 || seen > 10+ctxPollInterval {
		t.Errorf("scan delivered %d rows after cancellation at row 10, want within %d", seen, 10+ctxPollInterval)
	}
	// Cancellation also propagates through a coprocessor fan-out.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := tbl.ExecCoprocessorCtx(ctx2, ctxCountingCoprocessor{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecCoprocessorCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestTableConcurrentSplitPutScanCoprocessor is the -race stress demanded
// by the issue: Put, Scan, ExecCoprocessorCtx and SplitRegion all hammering
// one table concurrently.
func TestTableConcurrentSplitPutScanCoprocessor(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 4)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c)+"000", "q", 1, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 7)
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 2; w++ {
		w := w
		go func() {
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("%c%03d", 'a'+byte((w*11+i)%26), i)
				if err := tbl.Put(key, "q", int64(i+2), []byte("value")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	// Scanners.
	for s := 0; s < 2; s++ {
		go func() {
			for i := 0; i < 60; i++ {
				if err := tbl.ScanCtx(context.Background(), ScanOptions{}, func(RowResult) bool { return true }); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	// Parallel coprocessors.
	for c := 0; c < 2; c++ {
		go func() {
			for i := 0; i < 40; i++ {
				res, err := tbl.ExecCoprocessorCtx(context.Background(), ctxCountingCoprocessor{})
				if err != nil {
					done <- err
					return
				}
				for _, r := range res {
					if r.Err != nil {
						done <- r.Err
						return
					}
				}
			}
			done <- nil
		}()
	}
	// Splitter: keeps cutting fresh boundaries while everything runs.
	go func() {
		defer close(stop)
		splits := []string{"g", "t", "c", "p", "j", "w", "e"}
		for _, k := range splits {
			if err := tbl.SplitRegion(k); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 7; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-stop
	// Every seed row survived every split.
	rows := map[string]bool{}
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool { rows[r.Row] = true; return true }); err != nil {
		t.Fatal(err)
	}
	for c := byte('a'); c <= 'z'; c++ {
		if !rows[string(c)+"000"] {
			t.Errorf("seed row %q lost during concurrent splits", string(c)+"000")
		}
	}
}
