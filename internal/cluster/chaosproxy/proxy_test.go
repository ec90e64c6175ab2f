package chaosproxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func upstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// fates drives n requests through a fresh proxy with cfg and records
// each one's observable outcome.
func fates(t *testing.T, cfg Config, n int) []string {
	t.Helper()
	p, err := New(upstream(t).URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	defer srv.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	out := make([]string, n)
	for i := range out {
		resp, err := client.Get(srv.URL + "/x")
		switch {
		case err != nil:
			out[i] = "drop"
		case resp.StatusCode == http.StatusServiceUnavailable:
			out[i] = "error"
			resp.Body.Close()
		default:
			out[i] = "pass"
			resp.Body.Close()
		}
	}
	return out
}

// TestDeterministicSchedule pins the seed-hashed fate schedule: the
// same seed over the same request sequence injects the same faults,
// and a different seed injects different ones.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 7, DropRate: 0.2, ErrorRate: 0.2}
	a := fates(t, cfg, 40)
	b := fates(t, cfg, 40)
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: run A %s, run B %s — schedule not deterministic", i, a[i], b[i])
		}
		if a[i] != "pass" {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected at 40% combined rate over 40 requests")
	}
	cfg.Seed = 8
	c := fates(t, cfg, 40)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestBlackhole checks the kill switch: every request fails while set,
// and service resumes when cleared.
func TestBlackhole(t *testing.T) {
	p, err := New(upstream(t).URL, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	defer srv.Close()
	client := &http.Client{Timeout: 2 * time.Second}

	if _, err := client.Get(srv.URL + "/healthz"); err != nil {
		t.Fatalf("pre-blackhole request failed: %v", err)
	}
	p.Blackhole(true)
	for i := 0; i < 3; i++ {
		if resp, err := client.Get(srv.URL + "/healthz"); err == nil {
			resp.Body.Close()
			t.Fatal("blackholed proxy answered a request")
		}
	}
	p.Blackhole(false)
	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("post-blackhole request failed: %v", err)
	}
	resp.Body.Close()

	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	if st.Blackholed != 3 || st.Forwarded < 2 {
		t.Errorf("stats: %+v, want 3 blackholed and >=2 forwarded", st)
	}
}

// TestDelay checks injected latency is bounded and the request still
// succeeds.
func TestDelay(t *testing.T) {
	p, err := New(upstream(t).URL, Config{Seed: 3, DelayRate: 1, Delay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	defer srv.Close()
	start := time.Now()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("request took %v, want >= 30ms of injected delay", d)
	}
	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	if st.Delayed != 1 {
		t.Errorf("stats: %+v, want 1 delayed", st)
	}
}
