package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// newClient returns an HTTP client that keeps at most one connection per
// host, so a client goroutine holds one connection to the node it talks to.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// closeClient drops the client's idle connections.
func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// do sends one request and returns the status and body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// olResult is one open-loop request: when it was due, how late it was
// sent, how long it took from its due time, and whether it succeeded.
type olResult struct {
	LateMs    float64
	LatencyMs float64
	SvcMs     float64 // from send to completion
	EndMs     float64 // completion, from the loop's start
	OK        bool
	AfterEnd  bool // sent after the step's window had ended
}

// olStats is the accounting of one open-loop step or reader.
type olStats struct {
	Rate      float64
	Due       int // requests the schedule made due within the window
	Sent      int
	Succeeded int
	Failed    int
	Backlog   int // due within the window but sent after it ended
	P50Ms     float64
	P99Ms     float64
	SvcP50Ms  float64 // median from send, without the generator's lateness
	LateP99Ms float64
	Achieved  float64 // successful responses per second, to the last completion
	latencies []float64
}

func summarize(rate float64, due int, rs []olResult) olStats {
	st := olStats{Rate: rate, Due: due, Sent: len(rs)}
	late := make([]float64, 0, len(rs))
	var svc []float64
	var lastMs float64
	for _, r := range rs {
		lastMs = math.Max(lastMs, r.EndMs)
		lat := r.LatencyMs
		if r.OK {
			st.Succeeded++
		} else {
			st.Failed++
			lat = math.Inf(1)
		}
		if r.AfterEnd {
			st.Backlog++
		}
		st.latencies = append(st.latencies, lat)
		late = append(late, r.LateMs)
		svc = append(svc, r.SvcMs)
	}
	st.Backlog += due - len(rs)
	if len(rs) > 0 {
		st.P50Ms = percentile(st.latencies, 0.5)
		st.P99Ms = percentile(st.latencies, 0.99)
		st.LateP99Ms = percentile(late, 0.99)
		st.SvcP50Ms = percentile(svc, 0.5)
	}
	if lastMs > 0 {
		st.Achieved = float64(st.Succeeded) / (lastMs / 1e3)
	}
	return st
}

func (s olStats) String() string {
	return fmt.Sprintf("rate %6.0f/s due %6d sent %6d ok %6d failed %d backlog %d p50 %.3fms p99 %.3fms send-to-reply p50 %.3fms late-p99 %.3fms achieved %.1f/s",
		s.Rate, s.Due, s.Sent, s.Succeeded, s.Failed, s.Backlog, s.P50Ms, s.P99Ms, s.SvcP50Ms, s.LateP99Ms, s.Achieved)
}

// openLoop sends requests on a fixed schedule (due times start + k/rate)
// from one goroutine over one connection, whether or not earlier ones
// have returned; a slow response delays later sends, and their latency is
// timed from their due time, so the stall is counted. send performs the
// k-th request and reports success. The loop ends after count requests
// (count < 0: when stop is closed; requests still due then are backlog).
func openLoop(ctx context.Context, start time.Time, rate float64, count int, stop <-chan struct{}, send func(k int) bool) (rs []olResult, due int) {
	interval := time.Duration(float64(time.Second) / rate)
	end := start.Add(time.Duration(count) * interval)
	for k := 0; count < 0 || k < count; k++ {
		dueAt := start.Add(time.Duration(k) * interval)
		if wait := time.Until(dueAt); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return rs, k
			case <-ctx.Done():
				t.Stop()
				return rs, k
			}
		} else if count < 0 {
			select {
			case <-stop:
				// Everything due by now and not sent is backlog.
				return rs, k + int(time.Since(dueAt)/interval) + 1
			default:
			}
		}
		sent := time.Now()
		ok := send(k)
		done := time.Now()
		rs = append(rs, olResult{
			LateMs:    float64(sent.Sub(dueAt)) / 1e6,
			LatencyMs: float64(done.Sub(dueAt)) / 1e6,
			SvcMs:     float64(done.Sub(sent)) / 1e6,
			EndMs:     float64(done.Sub(start)) / 1e6,
			OK:        ok,
			AfterEnd:  count >= 0 && sent.After(end),
		})
	}
	return rs, count
}
