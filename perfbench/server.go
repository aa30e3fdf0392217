package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"modissense/internal/core"
	"modissense/internal/geo"
)

// env is one booted platform behind a loopback HTTP server.
type env struct {
	p       *core.Platform
	handler http.Handler
	srv     *http.Server
	base    string
	served  chan error
}

// boot starts a platform and serves its REST API on a free loopback port.
func boot(cfg core.Config) (*env, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot platform: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{p: p, handler: core.NewHandler(p), base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	e.srv = &http.Server{Handler: e.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the server, waits for it to exit, then closes the platform
// (draining background flushes and releasing its WAL).
func (e *env) close() error {
	err := e.srv.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, e.p.Close())
}

// client is one HTTP/1.1 connection's worth of load: its transport keeps
// at most one connection to the server, so a loop driven through one
// client never has two requests in flight.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// closeIdle releases the client's connection.
func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out. It returns
// the status and the response body size; a non-2xx status is an error.
func (c *client) do(method, path string, body []byte, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, len(raw), fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, len(raw), fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, len(raw), nil
}

// answer is the part of a search or trending response the benchmark reads.
type answer struct {
	POIs []struct {
		POI struct {
			ID int64 `json:"id"`
		} `json:"poi"`
		Score  float64 `json:"score"`
		Visits int     `json:"visits"`
	} `json:"pois"`
	LatencySeconds float64 `json:"latency_seconds"`
	Exec           struct {
		Tasks         int64 `json:"tasks"`
		RowsScanned   int64 `json:"rows_scanned"`
		BlocksDecoded int64 `json:"blocks_decoded"`
	} `json:"exec"`
	Cached bool `json:"cached"`
}

// items returns the ranked entries in oracle form.
func (a *answer) items() []item {
	out := make([]item, len(a.POIs))
	for i, p := range a.POIs {
		out[i] = item{POI: p.POI.ID, Visits: p.Visits, Score: p.Score}
	}
	return out
}

// rfc3339 renders a Unix-ms timestamp the way the API parses it.
func rfc3339(ms int64) string {
	return time.UnixMilli(ms).UTC().Format(time.RFC3339Nano)
}

// searchBody renders a search request. toShift moves the window end by
// that many milliseconds: the traced run uses it to force a result-cache
// miss with a spec whose answer is unchanged, since check-ins are stamped
// on whole seconds.
func searchBody(token string, s *searchSpec, toShift int64) []byte {
	type body struct {
		Token   string  `json:"token"`
		MinLat  float64 `json:"min_lat,omitempty"`
		MinLon  float64 `json:"min_lon,omitempty"`
		MaxLat  float64 `json:"max_lat,omitempty"`
		MaxLon  float64 `json:"max_lon,omitempty"`
		Keyword string  `json:"keyword,omitempty"`
		Friends []int64 `json:"friends"`
		From    string  `json:"from,omitempty"`
		To      string  `json:"to,omitempty"`
		OrderBy string  `json:"order_by"`
		Limit   int     `json:"limit"`
	}
	b := body{Token: token, Keyword: s.Keyword, Friends: s.Friends, OrderBy: s.Order, Limit: s.Limit,
		From: rfc3339(s.From)}
	if s.BBox != nil {
		b.MinLat, b.MinLon, b.MaxLat, b.MaxLon = s.BBox.MinLat, s.BBox.MinLon, s.BBox.MaxLat, s.BBox.MaxLon
	}
	switch {
	case s.To != 0:
		b.To = rfc3339(s.To + toShift)
	case toShift != 0:
		b.To = rfc3339(time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli() + toShift)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return raw
}

// trendingPath renders a friendless trending request.
func trendingPath(s *trendingSpec) string {
	q := "/api/v1/trending?hours=" + strconv.Itoa(s.Hours) + "&limit=" + strconv.Itoa(s.Limit) +
		"&until=" + rfc3339(s.Until)
	if s.BBox != nil {
		q += fmt.Sprintf("&min_lat=%v&min_lon=%v&max_lat=%v&max_lon=%v", s.BBox.MinLat, s.BBox.MinLon, s.BBox.MaxLat, s.BBox.MaxLon)
	}
	return q
}

// checkinBody renders a batched check-in push.
func checkinBody(token string, batch []checkin) []byte {
	type push struct {
		POIID   int64   `json:"poi_id"`
		Time    int64   `json:"time"`
		Grade   float64 `json:"grade"`
		Network string  `json:"network"`
	}
	items := make([]push, len(batch))
	for i, c := range batch {
		items[i] = push{POIID: c.POI, Time: c.Time, Grade: c.Grade, Network: "facebook"}
	}
	raw, err := json.Marshal(struct {
		Token    string `json:"token"`
		Checkins []push `json:"checkins"`
	}{token, items})
	if err != nil {
		panic(err) // plain fields always marshal
	}
	return raw
}

// subscriptionBody renders a standing spatio-textual query.
func subscriptionBody(token string, box geo.Rect, keyword string) []byte {
	raw, err := json.Marshal(map[string]any{
		"token": token, "min_lat": box.MinLat, "min_lon": box.MinLon,
		"max_lat": box.MaxLat, "max_lon": box.MaxLon, "keywords": []string{keyword},
		"ttl_seconds": 3600,
	})
	if err != nil {
		panic(err) // plain fields always marshal
	}
	return raw
}
