package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tensortee"
)

// tinySpec is a cheap scenario body: a small custom model on the
// non-secure system, so the only cost is one mode-off calibration shared
// across the test server's Runner.
const tinySpec = `{
  "name": "srv-smoke",
  "model": {"layers": 1, "hidden": 128, "heads": 2, "batch": 1, "seqlen": 64},
  "systems": [{"kind": "non-secure"}],
  "metrics": ["total"]
}`

func post(t *testing.T, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestScenarioEndpointComputesAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario computation calibrates a system")
	}
	_, ts := newTestServer(t, 0)
	url := ts.URL + "/v1/scenarios"

	resp, body := post(t, url, tinySpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"id": "scenario:srv-smoke"`) {
		t.Errorf("body missing scenario id:\n%.300s", body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}

	// The same spec again is a cache hit with the same ETag and body.
	resp2, body2 := post(t, url, tinySpec, nil)
	if resp2.StatusCode != http.StatusOK || body2 != body {
		t.Errorf("replay status = %d, body match = %v", resp2.StatusCode, body2 == body)
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Errorf("replay ETag = %q, want %q", got, etag)
	}

	// A spelling-variant of the same spec (different key order, explicit
	// default) normalizes to the same fingerprint and hits too.
	variant := `{"model": {"seqlen": 64, "heads": 2, "hidden": 128, "layers": 1, "batch": 1},
	             "metrics": ["TOTAL"], "systems": [{"kind": "Non-Secure"}], "name": "srv-smoke"}`
	resp3, _ := post(t, url, variant, nil)
	if got := resp3.Header.Get("ETag"); got != etag {
		t.Errorf("variant ETag = %q, want %q", got, etag)
	}

	// If-None-Match with the spec-fingerprint ETag answers 304, no body —
	// and without touching the store (the tag is derived from the spec
	// alone), so it does not count as a cache hit.
	resp4, body4 := post(t, url, tinySpec, map[string]string{"If-None-Match": etag})
	if resp4.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation status = %d, want 304", resp4.StatusCode)
	}
	if body4 != "" {
		t.Errorf("304 carried a body: %q", body4)
	}

	// The cache behavior is observable in /metrics: one computation, two
	// hits (the replay and the variant), one revalidation.
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_scenario_runs_total 1") {
		t.Errorf("scenario did not compute exactly once:\n%s", metrics)
	}
	if !strings.Contains(metrics, "tensorteed_scenario_cache_hits_total 2") {
		t.Errorf("scenario hits not counted:\n%s", metrics)
	}
	if !strings.Contains(metrics, "tensorteed_not_modified_total 1") {
		t.Errorf("scenario 304 not counted:\n%s", metrics)
	}
}

func TestScenarioRevalidationSkipsComputation(t *testing.T) {
	// The scenario ETag is determined by the spec fingerprint and format
	// alone, so a client revalidating a spec this process never computed
	// (evicted entry, daemon restart) gets its 304 for free.
	_, ts := newTestServer(t, 0)
	var spec tensortee.Scenario
	if err := json.Unmarshal([]byte(tinySpec), &spec); err != nil {
		t.Fatal(err)
	}
	etag := scenarioETag(spec.Fingerprint(), FormatJSON)
	resp, body := post(t, ts.URL+"/v1/scenarios", tinySpec, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d (%s), want 304", resp.StatusCode, body)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("ETag = %q, want %q", got, etag)
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_scenario_runs_total 0") {
		t.Errorf("revalidation triggered a computation:\n%s", metrics)
	}
}

func TestScenarioEndpointFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario computation calibrates a system")
	}
	_, ts := newTestServer(t, 0)
	url := ts.URL + "/v1/scenarios"

	respText, bodyText := post(t, url+"?format=text", tinySpec, nil)
	if ct := respText.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text Content-Type = %q", ct)
	}
	if !strings.Contains(bodyText, "=== scenario:srv-smoke:") {
		t.Errorf("text body:\n%.300s", bodyText)
	}
	respCSV, bodyCSV := post(t, url, tinySpec, map[string]string{"Accept": "text/csv"})
	if ct := respCSV.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("csv Content-Type = %q", ct)
	}
	if !strings.HasPrefix(bodyCSV, "table,") {
		t.Errorf("csv body:\n%.200s", bodyCSV)
	}
	if respText.Header.Get("ETag") == respCSV.Header.Get("ETag") {
		t.Error("text and csv share an ETag")
	}
}

func TestScenarioEndpointRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, 0)
	url := ts.URL + "/v1/scenarios"
	cases := []struct {
		name, body, wantFrag string
	}{
		{"malformed json", `{"model":`, "decoding scenario spec"},
		{"unknown field", `{"modle": {"name": "GPT2-M"}}`, "unknown field"},
		{"unknown model", `{"model": {"name": "GPT-9000"}, "systems": [{"kind": "tensortee"}]}`, "unknown model"},
		{"no systems", `{"model": {"name": "GPT2-M"}}`, "no systems"},
		{"bad sweep", `{"model": {"name": "GPT2-M"}, "systems": [{"kind": "tensortee"}],
		                "sweep": {"axis": "hidden", "values": [-4]}}`, "invalid sweep"},
		{"unsafe override", `{"model": {"name": "GPT2-M"},
		                "systems": [{"kind": "tensortee", "overrides": {"region_mb": 4}}]}`, "break calibration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, url, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, tc.wantFrag) {
				t.Errorf("body %q missing %q", body, tc.wantFrag)
			}
		})
	}
	// GET on the scenario endpoint is not a thing.
	resp, _ := get(t, url, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/scenarios = %d, want 405", resp.StatusCode)
	}
}

func TestScenarioStoreRefusesWhenAllEntriesInFlight(t *testing.T) {
	s := New(Config{Runner: tensortee.NewRunner()})
	ctx := context.Background()
	// Fill every slot with a fill that blocks until its gate opens:
	// eviction can free nothing, so the cap must hold by refusal.
	gates := make([]chan struct{}, maxScenarioEntries)
	for i := range gates {
		gate := make(chan struct{})
		gates[i] = gate
		if err := s.scenarios.Start(ctx, fmt.Sprintf("fp-%d", i), func(context.Context) (*memo, error) {
			<-gate
			return nil, nil
		}); err != nil {
			t.Fatalf("entry %d refused below the cap: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	})
	spec := tensortee.Scenario{Model: tensortee.ScenarioModel{Name: "GPT2-M"}}
	if _, _, err := s.scenario(ctx, "fp-new", spec, FormatJSON); !errors.Is(err, ErrScenarioStoreBusy) {
		t.Fatalf("scenario past the cap: err = %v, want ErrScenarioStoreBusy", err)
	}
	if n := s.scenarios.Len(); n != maxScenarioEntries {
		t.Fatalf("entries = %d, want exactly %d", n, maxScenarioEntries)
	}
	// A known fingerprint still resolves at the cap (waiters join, no growth).
	if err := s.scenarios.Start(ctx, "fp-0", nil); err != nil {
		t.Fatalf("existing entry refused at the cap: %v", err)
	}
	// Once one fill completes, eviction frees its slot and new specs are
	// admitted again.
	close(gates[1])
	if _, err := s.scenarios.Do(ctx, "fp-1", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.scenarios.Start(ctx, "fp-new", func(context.Context) (*memo, error) { return nil, nil }); err != nil {
		t.Fatalf("entry after eviction became possible: %v", err)
	}
	if n := s.scenarios.Len(); n > maxScenarioEntries {
		t.Fatalf("entries = %d, exceeds the cap", n)
	}
}

func TestScenarioConcurrentSameSpecComputesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario computation calibrates a system")
	}
	s := New(Config{Runner: tensortee.NewRunner(), MaxConcurrentScenarios: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(tinySpec))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_scenario_runs_total 1") {
		t.Errorf("concurrent identical specs computed more than once:\n%s", metrics)
	}
}
