package store

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensortee/internal/faultinject"
)

// servePeer mounts a minimal /v1/store/{ns}/{key} surface over src — the
// same raw-envelope contract the tensorteed daemon serves.
func servePeer(t *testing.T, src *Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/store/"), "/")
		if len(parts) != 2 {
			http.NotFound(w, r)
			return
		}
		raw, ok := src.ReadRaw(Namespace(parts[0]), parts[1])
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(raw)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestGetOrFetchFallsBackToPeer(t *testing.T) {
	peerStore := open(t, t.TempDir(), Options{})
	payload := []byte(`{"from":"peer"}`)
	if err := peerStore.Put(Results, "fig16", payload); err != nil {
		t.Fatal(err)
	}
	peer := servePeer(t, peerStore)

	local := open(t, t.TempDir(), Options{Peers: []string{peer.URL}})
	got, ok := local.GetOrFetch(context.Background(), Results, "fig16")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetOrFetch = %q, %v", got, ok)
	}
	st := local.Stats()
	if st.PeerHits != 1 {
		t.Errorf("peer hits = %d, want 1", st.PeerHits)
	}
	// The fetched entry persisted locally: the next lookup is a pure disk
	// hit with no peer traffic.
	peer.Close()
	got2, ok := local.GetOrFetch(context.Background(), Results, "fig16")
	if !ok || !bytes.Equal(got2, payload) {
		t.Fatal("local re-read after peer fetch missed")
	}
	if st := local.Stats(); st.PeerHits != 1 || st.DiskHits == 0 {
		t.Errorf("stats after re-read = %+v", st)
	}
}

func TestGetOrFetchPrefersLocalDisk(t *testing.T) {
	var probes atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	local := open(t, t.TempDir(), Options{Peers: []string{peer.URL}})
	if err := local.Put(Results, "fig16", []byte("local")); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); !ok {
		t.Fatal("miss on local entry")
	}
	if probes.Load() != 0 {
		t.Errorf("peer probed despite local hit")
	}
}

func TestGetOrFetchFailsOpenOnDeadSlowAndLyingPeers(t *testing.T) {
	// Dead peer: connection refused.
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()

	// Slow peer: hangs past the probe timeout.
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); slow.Close() })

	// Lying peer: 200 with garbage instead of an envelope.
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not an envelope at all"))
	}))
	t.Cleanup(lying.Close)

	// Foreign-build peer: a valid envelope from a different build.
	foreignStore := open(t, t.TempDir(), Options{})
	foreignStore.build = "other-build"
	if err := foreignStore.Put(Results, "fig16", []byte("wrong numbers")); err != nil {
		t.Fatal(err)
	}
	foreign := servePeer(t, foreignStore)

	local := open(t, t.TempDir(), Options{Peers: []string{dead.URL, slow.URL, lying.URL, foreign.URL}})
	local.client = newPeerClient(150 * time.Millisecond)
	start := time.Now()
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
		t.Fatal("a bad peer produced a hit")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("probe chain took %v; timeouts not enforced", elapsed)
	}
	st := local.Stats()
	if st.PeerMisses != 1 {
		t.Errorf("peer misses = %d, want 1", st.PeerMisses)
	}
	if st.PeerErrors == 0 {
		t.Error("no peer errors counted across dead/slow/lying peers")
	}
	if st.PeerHits != 0 {
		t.Error("counted a peer hit")
	}
}

func TestGetOrFetchSecondPeerServesAfterFirstMisses(t *testing.T) {
	emptyStore := open(t, t.TempDir(), Options{})
	empty := servePeer(t, emptyStore)

	fullStore := open(t, t.TempDir(), Options{})
	payload := []byte("present on the second peer")
	if err := fullStore.Put(Calibrations, "cfg01", payload); err != nil {
		t.Fatal(err)
	}
	full := servePeer(t, fullStore)

	local := open(t, t.TempDir(), Options{Peers: []string{empty.URL, full.URL}})
	got, ok := local.GetOrFetch(context.Background(), Calibrations, "cfg01")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetOrFetch = %q, %v", got, ok)
	}
	if st := local.Stats(); st.PeerHits != 1 || st.PeerErrors != 0 {
		t.Errorf("stats = %+v (a 404 miss must not count as a peer error)", st)
	}
}

func TestGetOrFetchNoPeersIsPlainMiss(t *testing.T) {
	local := open(t, t.TempDir(), Options{})
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
		t.Fatal("hit from nowhere")
	}
	if st := local.Stats(); st.PeerMisses != 0 || st.DiskMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetOrFetchProbesConcurrentlyUnderSharedBudget(t *testing.T) {
	// Four hanging peers probed serially would cost 4x the per-probe
	// timeout; the shared budget bounds the whole group.
	var peers []string
	for i := 0; i < 4; i++ {
		hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}))
		t.Cleanup(hang.Close)
		peers = append(peers, hang.URL)
	}
	local := open(t, t.TempDir(), Options{Peers: peers})
	local.client = newPeerClient(500 * time.Millisecond)
	local.probeBudget = 200 * time.Millisecond
	start := time.Now()
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
		t.Fatal("hit from hanging peers")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("probe group took %v; the shared budget (200ms) is not bounding it", elapsed)
	}
}

func TestGetOrFetchFirstSuccessWins(t *testing.T) {
	src := open(t, t.TempDir(), Options{})
	payload := []byte("present on both peers")
	if err := src.Put(Results, "fig16", payload); err != nil {
		t.Fatal(err)
	}
	fast := servePeer(t, src)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		raw, _ := src.ReadRaw(Results, "fig16")
		w.Write(raw)
	}))
	t.Cleanup(slow.Close)

	local := open(t, t.TempDir(), Options{Peers: []string{slow.URL, fast.URL}})
	local.client = newPeerClient(3 * time.Second)
	local.probeBudget = 3 * time.Second
	start := time.Now()
	got, ok := local.GetOrFetch(context.Background(), Results, "fig16")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetOrFetch = %q, %v", got, ok)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("took %v: the fast peer's answer did not win over the slow one", elapsed)
	}
}

func TestOpenPeerBreakerSkipsProbes(t *testing.T) {
	var requests atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(sick.Close)
	local := open(t, t.TempDir(), Options{Peers: []string{sick.URL}})

	// peerBreakerThreshold consecutive failed probes open the breaker...
	for i := 0; i < peerBreakerThreshold; i++ {
		if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
			t.Fatal("hit from a 500ing peer")
		}
	}
	if got := requests.Load(); got != peerBreakerThreshold {
		t.Fatalf("peer saw %d probes during the trip phase, want %d", got, peerBreakerThreshold)
	}
	// ...after which lookups skip the peer without any HTTP traffic.
	for i := 0; i < 5; i++ {
		if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
			t.Fatal("hit from a skipped peer")
		}
	}
	if got := requests.Load(); got != peerBreakerThreshold {
		t.Errorf("open breaker leaked %d probes to the peer", got-peerBreakerThreshold)
	}
	if st := local.Stats(); st.PeerSkips != 5 {
		t.Errorf("peer skips = %d, want 5", st.PeerSkips)
	}
}

func TestPeerFaultHookFailsProbes(t *testing.T) {
	src := open(t, t.TempDir(), Options{})
	if err := src.Put(Results, "fig16", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	peer := servePeer(t, src)

	inj, err := faultinject.Parse("peer:fail@1")
	if err != nil {
		t.Fatal(err)
	}
	local := open(t, t.TempDir(), Options{Peers: []string{peer.URL}, Faults: inj})
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); ok {
		t.Fatal("injected peer fault still produced a hit")
	}
	if st := local.Stats(); st.PeerErrors != 1 {
		t.Errorf("peer errors = %d, want 1", st.PeerErrors)
	}
	// The schedule fired; the next lookup reaches the peer and hits.
	if _, ok := local.GetOrFetch(context.Background(), Results, "fig16"); !ok {
		t.Fatal("probe after the injected fault missed")
	}
}
