package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"modissense/internal/obs"
)

// newCollectedClient boots a platform behind the HTTP handler, signs a user
// in and runs the collect and HotIn passes, so searches scan real visits.
func newCollectedClient(t *testing.T) (*apiClient, string) {
	t.Helper()
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")
	window := windowRequest{
		Since: collectWindow.since.Format(time.RFC3339),
		Until: collectWindow.until.Format(time.RFC3339),
	}
	if code := c.post("/api/admin/collect", window, nil); code != http.StatusOK {
		t.Fatalf("collect status %d", code)
	}
	if code := c.post("/api/admin/hotin", window, nil); code != http.StatusOK {
		t.Fatalf("hotin status %d", code)
	}
	return c, in.Token
}

// friendRange lists the user ids lo..hi.
func friendRange(lo, hi int64) []int64 {
	var out []int64
	for id := lo; id <= hi; id++ {
		out = append(out, id)
	}
	return out
}

// TestAPISearchSpansNest reads a real search's trace and checks that the
// read-path spans time what they name: every store scan nests under its
// region's coprocessor, every coprocessor under the scatter, and each
// child lasts no longer than its parent.
func TestAPISearchSpansNest(t *testing.T) {
	c, token := newCollectedClient(t)
	body, err := json.Marshal(searchJSON{Token: token, Friends: friendRange(1, 300),
		From: collectWindow.since.Format(time.RFC3339), To: collectWindow.until.Format(time.RFC3339)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/api/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var view obs.TraceView
	if code := c.get("/api/v1/queries/"+resp.Header.Get("X-Request-ID")+"/trace", &view); code != http.StatusOK {
		t.Fatalf("trace fetch status = %d", code)
	}
	// A child that did real work must record it; one over an empty
	// region may finish inside the microsecond the view reports in.
	within := func(parent, child obs.SpanView, busy bool) {
		t.Helper()
		if busy && child.DurationMicros <= 0 || child.DurationMicros > parent.DurationMicros {
			t.Errorf("%s span lasted %d us under %s span of %d us, want (0, parent]",
				child.Name, child.DurationMicros, parent.Name, parent.DurationMicros)
		}
	}
	scans := 0
	for _, scatter := range view.Root.Children {
		if scatter.Name != "scatter" {
			continue
		}
		for _, cp := range scatter.Children {
			if cp.Name != "coprocessor" {
				t.Errorf("scatter child %q, want coprocessor", cp.Name)
				continue
			}
			busy := cp.Attrs["rows"] != "0"
			within(scatter, cp, true)
			for _, scan := range cp.Children {
				if scan.Name != "kvstore.multiscan" {
					t.Errorf("coprocessor child %q, want kvstore.multiscan", scan.Name)
					continue
				}
				within(cp, scan, busy)
				if busy {
					scans++
				}
			}
		}
	}
	if scans == 0 {
		t.Fatalf("no kvstore.multiscan span over scanned rows under scatter → coprocessor; root children: %+v", view.Root.Children)
	}
}

// TestAPIConcurrentSearchTrending overlaps personalized searches and
// trending queries through the HTTP handler. Both drive the simulated
// cluster, whose engine is single-goroutine; every answer must still
// succeed with a positive simulated latency.
func TestAPIConcurrentSearchTrending(t *testing.T) {
	c, token := newCollectedClient(t)
	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var req *http.Request
				var err error
				if (w+i)%2 == 0 {
					// Distinct friend sets keep every search off the result
					// cache, so each one scatters before it simulates.
					lo := int64(1 + (w*perWorker+i)%50)
					body, merr := json.Marshal(searchJSON{Token: token, Friends: friendRange(lo, lo+200)})
					if merr != nil {
						t.Error(merr)
						return
					}
					req, err = http.NewRequest(http.MethodPost, c.srv.URL+"/api/v1/search", bytes.NewReader(body))
				} else {
					req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/trending?hours=168&limit=5&until=%s",
						c.srv.URL, collectWindow.until.Format(time.RFC3339)), nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Latency float64 `json:"latency_seconds"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || out.Latency <= 0 {
					t.Errorf("%s %s: status %d, decode %v, latency_seconds %v",
						req.Method, req.URL.Path, resp.StatusCode, derr, out.Latency)
				}
			}
		}(w)
	}
	wg.Wait()
}
