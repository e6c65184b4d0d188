package store

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tensortee/internal/faultinject"
)

// httpDoer abstracts the peer HTTP client for tests.
type httpDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Per-peer breaker tuning: three consecutive bad probes open the
// breaker, and every failed half-open probe doubles the cooldown up to
// the max — a downed replica costs a few probes up front, then one
// probe every couple of minutes instead of a timeout on every miss.
const (
	peerBreakerThreshold   = 3
	peerBreakerCooldown    = 5 * time.Second
	peerBreakerMaxCooldown = 2 * time.Minute
)

// newPeerClient builds the peer-probe client: strict timeout, no
// redirects (a replica answers directly or not at all), modest
// keep-alive pool for the static peer list.
func newPeerClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// GetOrFetch returns the payload for ns/key from the local disk tier,
// falling back to the configured peers on miss. Peers whose breaker is
// open are skipped outright; the rest are probed concurrently under one
// shared deadline (peerProbeBudget) and the first validated hit wins —
// N dead peers cost one budget, not N serial timeouts. A peer hit is
// validated exactly like a disk read (envelope, checksum, build tag)
// and persisted locally before returning, so the next lookup — and the
// next peer that asks us — is a disk hit. Every failure mode (timeout,
// refused connection, 404, corrupt or foreign envelope, open breaker)
// fails open to ok=false: the caller computes locally, it never errors.
func (s *Store) GetOrFetch(ctx context.Context, ns Namespace, key string) ([]byte, bool) {
	if payload, ok := s.Get(ns, key); ok {
		return payload, true
	}
	if len(s.peers) == 0 || !validNamespace(ns) || !ValidKey(key) {
		return nil, false
	}
	var live []string
	for _, peer := range s.peers {
		if br := s.peerBreakers[peer]; br != nil && br.Open() {
			s.peerSkips.Add(1)
			continue
		}
		live = append(live, peer)
	}
	if len(live) == 0 {
		s.peerMisses.Add(1)
		return nil, false
	}
	probeCtx, cancel := context.WithTimeout(ctx, s.probeBudget)
	defer cancel()
	results := make(chan []byte, len(live)) // buffered: losers never block
	for _, peer := range live {
		go func(peer string) {
			payload, ok, failed := s.fetchFromPeer(probeCtx, peer, ns, key)
			s.observePeer(probeCtx, peer, failed)
			if ok {
				results <- payload
			} else {
				results <- nil
			}
		}(peer)
	}
	for range live {
		payload := <-results
		if payload == nil {
			continue
		}
		cancel() // a winner: stop the losers
		s.peerHits.Add(1)
		// Write-through: persist the validated envelope locally so the
		// fleet converges on every replica holding hot fingerprints.
		// Health-gated and best-effort like every write.
		_ = s.persist(ns, key, s.encodeEnvelope(ns, key, payload))
		return payload, true
	}
	s.peerMisses.Add(1)
	return nil, false
}

// observePeer feeds one probe outcome into the peer's breaker. A probe
// that failed after the shared context ended is observed neutrally: it
// was most likely cancelled because another peer won (or the budget
// expired for the whole group), which says nothing about this peer's
// health.
func (s *Store) observePeer(ctx context.Context, peer string, failed bool) {
	br := s.peerBreakers[peer]
	if br == nil {
		return
	}
	if !failed {
		br.Success()
		return
	}
	if ctx.Err() == nil {
		br.Failure()
	}
}

// fetchFromPeer probes one peer for ns/key. The peer serves the raw
// envelope bytes (the /v1/store surface never computes), which validate
// here exactly as a local disk read would — a peer on a different build
// is a miss, not a source of wrong numbers. The per-request client
// timeout bounds this probe; ctx carries the shared group budget.
//
// failed reports whether the outcome should count against the peer's
// health: transport errors, bad statuses, oversize or corrupt bodies
// do; a clean 404 and a valid-but-foreign envelope are a *healthy* peer
// that happens not to have our entry.
func (s *Store) fetchFromPeer(ctx context.Context, peer string, ns Namespace, key string) (payload []byte, ok, failed bool) {
	if f := s.faults.Check(faultinject.OpPeer); f.Err != nil {
		s.peerErrors.Add(1)
		return nil, false, true
	}
	url := fmt.Sprintf("%s/v1/store/%s/%s", strings.TrimRight(peer, "/"), ns, key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		s.peerErrors.Add(1)
		return nil, false, true
	}
	resp, err := s.client.Do(req)
	if err != nil {
		// A probe cancelled because the group already has its answer is
		// not a peer error; count only failures the peer owns.
		if ctx.Err() == nil {
			s.peerErrors.Add(1)
		}
		return nil, false, true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A clean 404 is the expected miss shape, not a peer error.
		if resp.StatusCode == http.StatusNotFound {
			return nil, false, false
		}
		s.peerErrors.Add(1)
		return nil, false, true
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil || len(raw) > maxEntryBytes {
		s.peerErrors.Add(1)
		return nil, false, true
	}
	payload, derr := s.decodeEnvelope(ns, key, raw)
	if derr != nil {
		if derr.corrupt {
			s.peerErrors.Add(1)
			return nil, false, true
		}
		return nil, false, false
	}
	return payload, true, false
}
