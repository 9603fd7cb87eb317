package server

// Client retry policy: load-shed 429 responses retry honoring
// Retry-After, falling back to capped exponential backoff; every other
// status surfaces immediately.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer answers 429 (with the given Retry-After header when
// non-empty) for the first n requests, then serves healthz.
func shedServer(t *testing.T, n int64, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write(mustEncodeBody(&ErrorResponse{Error: "queue full"}))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(mustEncodeBody(&HealthResponse{Status: "ok"}))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// retryClient builds a client whose sleeps are recorded, not slept.
func retryClient(url string, slept *[]time.Duration) *Client {
	return &Client{
		BaseURL: url,
		sleep:   func(d time.Duration) { *slept = append(*slept, d) },
	}
}

func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	ts, calls := shedServer(t, 2, "2")
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz after sheds: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("slept %v, want [2s 2s] from Retry-After", slept)
	}
}

func TestClientBacksOffWithoutRetryAfter(t *testing.T) {
	ts, _ := shedServer(t, 3, "")
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	want := []time.Duration{retryBaseDelay, 2 * retryBaseDelay, 4 * retryBaseDelay}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff step %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestClientRetryAfterIsCapped(t *testing.T) {
	ts, _ := shedServer(t, 1, "9999")
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if len(slept) != 1 || slept[0] != retryMaxDelay {
		t.Fatalf("slept %v, want [%v] (capped)", slept, retryMaxDelay)
	}
}

func TestClientRetryBudgetExhausts(t *testing.T) {
	ts, calls := shedServer(t, 1<<30, "1")
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	c.MaxRetries429 = 2
	_, err := c.Healthz(context.Background())
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("want the final 429 to surface, got %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 + 2 retries)", calls.Load())
	}
}

func TestClientNeverRetriesWhenDisabled(t *testing.T) {
	ts, calls := shedServer(t, 1<<30, "1")
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	c.MaxRetries429 = -1
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatalf("want 429 error")
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("disabled retry still retried: %d requests, slept %v", calls.Load(), slept)
	}
}

func TestClientDoesNotRetryOtherErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write(mustEncodeBody(&ErrorResponse{Error: "bad request"}))
	}))
	t.Cleanup(ts.Close)
	var slept []time.Duration
	c := retryClient(ts.URL, &slept)
	_, err := c.Healthz(context.Background())
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want immediate 400, got %v", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("400 was retried: %d requests, slept %v", calls.Load(), slept)
	}
}

func TestClientRetryStopsOnContextCancel(t *testing.T) {
	ts, _ := shedServer(t, 1<<30, "1")
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{BaseURL: ts.URL, sleep: func(time.Duration) { cancel() }}
	_, err := c.Healthz(ctx)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("cancelled retry did not surface the context error: %v", err)
	}
}

func TestRetryDelayTable(t *testing.T) {
	cases := []struct {
		attempt    int
		retryAfter string
		want       time.Duration
	}{
		{0, "", retryBaseDelay},
		{3, "", 8 * retryBaseDelay},
		{20, "", retryMaxDelay},   // backoff cap
		{62, "", retryMaxDelay},   // shift overflow guard
		{0, "0", 0},               // immediate retry on server's say-so
		{0, "3", 3 * time.Second}, // header wins over backoff
		{5, "1", time.Second},
		{0, "not-a-number", retryBaseDelay}, // unparseable falls back
		{0, "-7", retryBaseDelay},           // negative falls back
	}
	for _, tc := range cases {
		if got := retryDelay(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("retryDelay(%d, %q) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}
