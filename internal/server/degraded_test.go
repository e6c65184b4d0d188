package server

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tensortee"
	"tensortee/internal/faultinject"
	"tensortee/internal/store"
)

// TestHealthzAndMetricsReportDegradedStore walks the full degrade →
// recover cycle through the HTTP surface: /healthz stays 200 the whole
// time (liveness is not storage health) but names the store's state,
// and the tensorteed_store_degraded gauge tracks it.
func TestHealthzAndMetricsReportDegradedStore(t *testing.T) {
	inj, err := faultinject.Parse("write:fail-until@3")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{
		Faults:        inj,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runner: tensortee.NewRunner(tensortee.WithStore(st))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 || !strings.Contains(body, "store: ok") {
		t.Fatalf("healthy healthz = %d %q", resp.StatusCode, body)
	}

	for i := 0; i < 3; i++ {
		if err := st.Put(store.Results, "fig16", []byte("x")); err == nil {
			t.Fatal("write succeeded under fail-until@3")
		}
	}
	resp, body = get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 {
		t.Errorf("degraded healthz status = %d, want 200 (alive, just read-only)", resp.StatusCode)
	}
	if !strings.Contains(body, "store: degraded") {
		t.Errorf("degraded healthz body = %q", body)
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_store_degraded 1") {
		t.Errorf("metrics do not gauge the degraded store:\n%s", metrics)
	}
	if !strings.Contains(metrics, "tensorteed_store_writes_suppressed_total") ||
		!strings.Contains(metrics, "tensorteed_store_peer_skips_total") {
		t.Error("degradation counter series missing from /metrics")
	}

	// The schedule is exhausted: the next probe write heals the store.
	time.Sleep(30 * time.Millisecond)
	if err := st.Put(store.Results, "fig16", []byte("x")); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if _, body = get(t, ts.URL+"/healthz", nil); !strings.Contains(body, "store: ok") {
		t.Errorf("healthz after recovery = %q", body)
	}
	if _, metrics = get(t, ts.URL+"/metrics", nil); !strings.Contains(metrics, "tensorteed_store_degraded 0") {
		t.Error("degraded gauge did not return to 0 after recovery")
	}
}

func TestHealthzWithoutStoreIsPlainOk(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	if strings.Contains(body, "store:") {
		t.Errorf("healthz names a store that does not exist: %q", body)
	}
}
