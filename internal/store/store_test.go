package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put(Results, "fig16", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(Results, "fig16")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	// Namespaces are disjoint key spaces.
	if _, ok := s.Get(Scenarios, "fig16"); ok {
		t.Error("payload leaked across namespaces")
	}
	if _, ok := s.Get(Results, "other"); ok {
		t.Error("hit on a never-written key")
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 2 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	// A zero-length payload is a valid entry (checksummed, complete) —
	// distinct from a zero-length *file*, which is corrupt.
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(Results, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(Results, "empty")
	if !ok || len(got) != 0 {
		t.Fatalf("Get = %q, %v; want empty hit", got, ok)
	}
}

func TestCorruptEntriesAreMissesAndQuarantined(t *testing.T) {
	payload := []byte(`{"k":"v","n":[1,2,3]}`)
	cases := []struct {
		name    string
		mutate  func(raw []byte) []byte
		corrupt bool // quarantined (vs a clean mismatch miss)
	}{
		{"zero-length file", func([]byte) []byte { return nil }, true},
		{"truncated header", func(raw []byte) []byte { return raw[:10] }, true},
		{"truncated payload", func(raw []byte) []byte { return raw[:len(raw)-5] }, true},
		{"garbage", func([]byte) []byte { return []byte("complete nonsense\nmore nonsense") }, true},
		{"bad magic", func(raw []byte) []byte { return append([]byte("x"), raw...) }, true},
		{"flipped payload bit", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-2] ^= 1
			return out
		}, true},
		{"trailing garbage", func(raw []byte) []byte { return append(append([]byte(nil), raw...), "extra"...) }, true},
		{"foreign build", func(raw []byte) []byte {
			// Re-encode under a different build tag: intact, but not ours.
			other := &Store{build: "other-build"}
			return other.encodeEnvelope(Results, "victim", payload)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{})
			if err := s.Put(Results, "victim", payload); err != nil {
				t.Fatal(err)
			}
			path := s.entryPath(Results, "victim")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := s.Get(Results, "victim"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := s.Stats()
			if st.DiskMisses != 1 {
				t.Errorf("misses = %d, want 1", st.DiskMisses)
			}
			quarantined, _ := os.ReadDir(filepath.Join(dir, ".quarantine"))
			if tc.corrupt {
				if st.Corruptions != 1 {
					t.Errorf("corruptions = %d, want 1", st.Corruptions)
				}
				if len(quarantined) != 1 {
					t.Errorf("quarantine holds %d files, want 1", len(quarantined))
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("corrupt entry still in place: %v", err)
				}
			} else {
				if st.Corruptions != 0 {
					t.Errorf("mismatch counted as corruption: %+v", st)
				}
				if len(quarantined) != 0 {
					t.Errorf("mismatched entry quarantined")
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("mismatched entry removed: %v", err)
				}
			}
			// The slot is writable again either way.
			if err := s.Put(Results, "victim", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(Results, "victim"); !ok || !bytes.Equal(got, payload) {
				t.Error("rewrite after corruption did not serve")
			}
		})
	}
}

func TestKeyAndNamespaceValidation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", strings.Repeat("x", 129), "päth"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
		if err := s.Put(Results, bad, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", bad)
		}
		if _, ok := s.Get(Results, bad); ok {
			t.Errorf("Get hit on key %q", bad)
		}
	}
	for _, good := range []string{"fig16", "ab01cd", "A-b_c.9"} {
		if !ValidKey(good) {
			t.Errorf("ValidKey(%q) = false", good)
		}
	}
	if err := s.Put(Namespace("nope"), "key", []byte("x")); err == nil {
		t.Error("Put accepted an unknown namespace")
	}
	if _, ok := s.Get(Namespace("nope"), "key"); ok {
		t.Error("Get hit in an unknown namespace")
	}
}

func TestEvictionDropsOldestByMtime(t *testing.T) {
	// Three ~1KB entries under a 2.5KB budget: the oldest-touched entry
	// goes, the two recently-touched survive.
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	s := open(t, dir, Options{MaxBytes: 2500})
	for i, key := range []string{"old", "mid", "new"} {
		if err := s.Put(Results, key, payload); err != nil {
			t.Fatal(err)
		}
		// File mtimes can tie within a coarse clock; separate them
		// explicitly so LRU order is deterministic.
		mt := time.Now().Add(time.Duration(i-3) * time.Minute)
		if err := os.Chtimes(s.entryPath(Results, key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// The third Put ran eviction before the explicit Chtimes; run another
	// write to trigger eviction against the staged mtimes.
	if err := s.Put(Calibrations, "snap", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Results, "old"); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, key := range []string{"mid", "new"} {
		if _, ok := s.Get(Results, key); !ok {
			t.Errorf("recent entry %q evicted", key)
		}
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > 2500 {
		t.Errorf("stats after eviction = %+v", st)
	}
}

func TestPinnedEntriesEvictLast(t *testing.T) {
	// An active campaign's checkpoints must survive LRU pressure even
	// when they are the oldest entries on disk: pinned entries are only
	// reclaimed after every unpinned entry is gone.
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	s := open(t, dir, Options{MaxBytes: 2500})
	s.Pin(Campaigns, "job.p00001")
	if err := s.Put(Campaigns, "job.p00001", payload); err != nil {
		t.Fatal(err)
	}
	// Make the pinned checkpoint the stalest entry by far.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s.entryPath(Campaigns, "job.p00001"), old, old); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := s.Put(Results, key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(Campaigns, "job.p00001"); !ok {
		t.Fatal("pinned checkpoint evicted while its campaign ran")
	}
	// Budget still enforced: the eviction fell on unpinned entries.
	aOK := false
	bOK := false
	if _, ok := s.Get(Results, "a"); ok {
		aOK = true
	}
	if _, ok := s.Get(Results, "b"); ok {
		bOK = true
	}
	if aOK && bOK {
		t.Fatal("no unpinned entry was evicted under the byte budget")
	}
	if st := s.Stats(); st.Pinned != 1 {
		t.Fatalf("Stats.Pinned = %d, want 1", st.Pinned)
	}

	// After Unpin (campaign finished), the checkpoint competes by age
	// like everything else.
	s.Unpin(Campaigns, "job.p00001")
	if st := s.Stats(); st.Pinned != 0 {
		t.Fatalf("Stats.Pinned after Unpin = %d, want 0", st.Pinned)
	}
	// The Get above touched its mtime; re-stale it so LRU order is
	// deterministic again.
	if err := os.Chtimes(s.entryPath(Campaigns, "job.p00001"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Results, "c", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Campaigns, "job.p00001"); ok {
		t.Fatal("stalest entry survived eviction after Unpin")
	}
}

func TestPinIsRefCounted(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	s.Pin(Campaigns, "job.m")
	s.Pin(Campaigns, "job.m")
	s.Unpin(Campaigns, "job.m")
	if st := s.Stats(); st.Pinned != 1 {
		t.Fatalf("Stats.Pinned after one of two Unpins = %d, want 1", st.Pinned)
	}
	s.Unpin(Campaigns, "job.m")
	s.Unpin(Campaigns, "job.m") // extra Unpin is harmless
	if st := s.Stats(); st.Pinned != 0 {
		t.Fatalf("Stats.Pinned = %d, want 0", st.Pinned)
	}
}

func TestGetTouchesForLRU(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 2500})
	payload := bytes.Repeat([]byte("x"), 1000)
	for i, key := range []string{"a", "b"} {
		if err := s.Put(Results, key, payload); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-3) * time.Minute)
		if err := os.Chtimes(s.entryPath(Results, key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Reading "a" (the older entry) touches it, so "b" is now the LRU
	// victim when a third entry overflows the budget.
	if _, ok := s.Get(Results, "a"); !ok {
		t.Fatal("miss on a")
	}
	if err := s.Put(Results, "c", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Results, "a"); !ok {
		t.Error("recently-read entry evicted")
	}
	if _, ok := s.Get(Results, "b"); ok {
		t.Error("stale entry survived over the recently-read one")
	}
}

// TestConcurrentWritersAndReadersNeverTearEntries pins the atomic-rename
// guarantee the multi-process sharing story rests on: while writers
// continually replace one key with different-sized valid payloads,
// readers must only ever observe complete valid payloads (or clean
// misses) — never a torn read, never a quarantined "corruption".
func TestConcurrentWritersAndReadersNeverTearEntries(t *testing.T) {
	dir := t.TempDir()
	// Two Store handles over one directory stand in for two processes.
	writerStore := open(t, dir, Options{})
	readerStore := open(t, dir, Options{})

	payloads := make([][]byte, 8)
	valid := make(map[string]bool, len(payloads))
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 512*(i+1))
		valid[string(payloads[i])] = true
	}

	const writers, readers = 4, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := writerStore.Put(Results, "shared", payloads[(i+w)%len(payloads)]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var torn atomic64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if payload, ok := readerStore.Get(Results, "shared"); ok && !valid[string(payload)] {
					torn.add(1)
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := torn.load(); n != 0 {
		t.Fatalf("%d torn reads observed", n)
	}
	if c := readerStore.Stats().Corruptions + writerStore.Stats().Corruptions; c != 0 {
		t.Fatalf("%d entries quarantined under concurrent rewrite", c)
	}
	// The final state is one of the valid payloads.
	if payload, ok := readerStore.Get(Results, "shared"); !ok || !valid[string(payload)] {
		t.Fatalf("final read invalid (ok=%v)", ok)
	}
}

// atomic64 avoids importing sync/atomic under a name clashing with the
// test helpers.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func TestReadRawServesValidatedEnvelope(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	payload := []byte("payload-bytes")
	if err := s.Put(Scenarios, "abcd1234", payload); err != nil {
		t.Fatal(err)
	}
	raw, ok := s.ReadRaw(Scenarios, "abcd1234")
	if !ok {
		t.Fatal("miss on a written entry")
	}
	// The raw form must decode back to the payload under the same build.
	got, derr := s.decodeEnvelope(Scenarios, "abcd1234", raw)
	if derr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("raw envelope did not round-trip: %v", derr)
	}
	if _, ok := s.ReadRaw(Scenarios, "missing"); ok {
		t.Error("ReadRaw hit on a missing key")
	}
	// ReadRaw is the serving side: it must not skew local hit/miss stats.
	if st := s.Stats(); st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Errorf("ReadRaw counted as local traffic: %+v", st)
	}
}

func TestBuildTagNonEmptyAndStable(t *testing.T) {
	a, b := BuildTag(), BuildTag()
	if a == "" || a != b {
		t.Errorf("BuildTag = %q / %q", a, b)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("Open accepted an empty directory")
	}
}

func TestPutRejectsOversizedPayload(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	huge := make([]byte, maxEntryBytes+1)
	if err := s.Put(Results, "huge", huge); err == nil {
		t.Fatal("Put accepted an oversized payload")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("write errors = %d, want 1", st.WriteErrors)
	}
}

// TestScriptedRoundTripCorruptEvict drives one store through every read,
// quarantine and trim path in a fixed script — Put, Get and ReadRaw,
// invalid keys, a corrupt entry read through each path, the quarantine
// byte cap and MaxBytes eviction with one pinned entry — and pins every
// Stats counter and exactly which files survive.
func TestScriptedRoundTripCorruptEvict(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 100)
	garbage := bytes.Repeat([]byte("g"), 1000)
	// Every entry key is two bytes in one namespace, so every envelope
	// has the same size.
	size := int64(len(open(t, t.TempDir(), Options{}).encodeEnvelope(Results, "e1", payload)))

	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 3*size + size/2})
	s.quarantineMax = 1500
	base := time.Now().Add(-time.Hour)
	stamp := func(key string, offset time.Duration) {
		t.Helper()
		mt := base.Add(offset)
		if err := os.Chtimes(s.entryPath(Results, key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Two writes, then a hit, a miss and the uncounted ReadRaw paths.
	for i, key := range []string{"e1", "e2"} {
		if err := s.Put(Results, key, payload); err != nil {
			t.Fatal(err)
		}
		stamp(key, time.Duration(i)*time.Minute)
	}
	if got, ok := s.Get(Results, "e1"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get(e1) = %q, %v", got, ok)
	}
	if _, ok := s.Get(Results, "zz"); ok {
		t.Fatal("hit on a never-written key")
	}
	raw, ok := s.ReadRaw(Results, "e2")
	onDisk, err := os.ReadFile(s.entryPath(Results, "e2"))
	if err != nil || !ok || !bytes.Equal(raw, onDisk) {
		t.Fatalf("ReadRaw(e2) = %d bytes, %v; want the %d on-disk bytes (%v)", len(raw), ok, len(onDisk), err)
	}
	if _, ok := s.ReadRaw(Results, "zz"); ok {
		t.Fatal("ReadRaw hit on a never-written key")
	}

	// Invalid keys and namespaces count as nothing on any path.
	if _, ok := s.Get(Results, "../e1"); ok {
		t.Fatal("Get hit on a traversal key")
	}
	if _, ok := s.ReadRaw(Results, "../e1"); ok {
		t.Fatal("ReadRaw hit on a traversal key")
	}
	if _, ok := s.Get(Namespace("bogus"), "e1"); ok {
		t.Fatal("Get hit in an unknown namespace")
	}
	if err := s.Put(Results, "a/b", payload); err == nil {
		t.Fatal("Put accepted an invalid key")
	}

	// A corrupt entry read through ReadRaw is quarantined without a miss;
	// a second one read through Get is quarantined and counted a miss, and
	// the cap (room for one corpse) deletes the older corpse.
	for i, key := range []string{"c1", "c2"} {
		if err := os.WriteFile(s.entryPath(Results, key), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		stamp(key, time.Duration(2+i)*time.Minute)
	}
	if _, ok := s.ReadRaw(Results, "c1"); ok {
		t.Fatal("ReadRaw served a corrupt entry")
	}
	if _, ok := s.Get(Results, "c2"); ok {
		t.Fatal("Get served a corrupt entry")
	}

	// Eviction: e2 is the stalest entry (the Get above touched e1) but
	// pinned, so the trim falls on e3, the oldest unpinned one.
	s.Pin(Results, "e2")
	if err := s.Put(Results, "e3", payload); err != nil {
		t.Fatal(err)
	}
	stamp("e3", 4*time.Minute)
	if err := s.Put(Results, "e4", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Results, "e3"); ok {
		t.Fatal("the oldest unpinned entry survived eviction")
	}
	if _, ok := s.Get(Results, "e2"); !ok {
		t.Fatal("the pinned entry was evicted")
	}

	want := Stats{
		DiskHits:        2,
		DiskMisses:      3,
		Corruptions:     2,
		Writes:          4,
		Evictions:       1,
		Entries:         3,
		Bytes:           3 * size,
		Pinned:          1,
		QuarantineBytes: int64(len(garbage)),
	}
	if got := s.Stats(); got != want {
		t.Errorf("Stats =\n %+v\nwant\n %+v", got, want)
	}
	if got := s.Keys(Results); strings.Join(got, ",") != "e1,e2,e4" {
		t.Errorf("surviving entries = %v, want [e1 e2 e4]", got)
	}
	corpses, err := os.ReadDir(filepath.Join(dir, ".quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpses) != 1 || !strings.HasPrefix(corpses[0].Name(), "c2.tte.") {
		var names []string
		for _, de := range corpses {
			names = append(names, de.Name())
		}
		t.Errorf("quarantine holds %v, want only the c2 corpse", names)
	}
	if staged, _ := os.ReadDir(filepath.Join(dir, ".tmp")); len(staged) != 0 {
		t.Errorf("%d staging files left behind", len(staged))
	}
}
