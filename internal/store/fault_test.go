package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tensortee/internal/faultinject"
)

// openFaulty builds a store whose I/O runs under the given fault plan.
func openFaulty(t *testing.T, plan string, opts Options) *Store {
	t.Helper()
	inj, err := faultinject.Parse(plan)
	if err != nil {
		t.Fatalf("Parse(%q): %v", plan, err)
	}
	opts.Faults = inj
	return open(t, t.TempDir(), opts)
}

// TestMidWriteCrashShapesAreCleanMisses drives the three ways an atomic
// write can die — payload write, fsync, rename — and asserts each one
// is a returned error plus a clean miss: no entry lands, no temp file
// leaks, the next Put succeeds.
func TestMidWriteCrashShapesAreCleanMisses(t *testing.T) {
	for _, plan := range []string{"write:fail@1", "fsync:fail@1", "rename:fail@1"} {
		t.Run(plan, func(t *testing.T) {
			s := openFaulty(t, plan, Options{})
			err := s.Put(Results, "fig16", []byte("payload"))
			if err == nil {
				t.Fatal("Put under a failing schedule succeeded")
			}
			if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, syscall.EIO) {
				t.Errorf("err %v does not carry ErrInjected+EIO", err)
			}
			if _, ok := s.Get(Results, "fig16"); ok {
				t.Error("failed write left a readable entry")
			}
			if _, statErr := os.Stat(s.entryPath(Results, "fig16")); !os.IsNotExist(statErr) {
				t.Error("failed write left bytes at the final path")
			}
			if des, _ := os.ReadDir(filepath.Join(s.Dir(), ".tmp")); len(des) != 0 {
				t.Errorf(".tmp holds %d leaked files after a failed write", len(des))
			}
			// The schedule fired once; the retry lands cleanly.
			if err := s.Put(Results, "fig16", []byte("payload")); err != nil {
				t.Fatalf("retry after the injected failure: %v", err)
			}
			if got, ok := s.Get(Results, "fig16"); !ok || !bytes.Equal(got, []byte("payload")) {
				t.Error("entry unreadable after clean retry")
			}
		})
	}
}

// TestTornWriteQuarantinesOnRead exercises the lying-disk shape: a torn
// write lands truncated bytes at the final path. The next read must
// treat it as corrupt — quarantine, miss, never an error or a crash.
func TestTornWriteQuarantinesOnRead(t *testing.T) {
	s := openFaulty(t, "write:torn@1", Options{})
	if err := s.Put(Results, "fig16", []byte("a payload long enough to truncate")); err == nil {
		t.Fatal("torn Put reported success")
	}
	if _, statErr := os.Stat(s.entryPath(Results, "fig16")); statErr != nil {
		t.Fatal("torn write left nothing at the final path; the test shape is wrong")
	}
	if _, ok := s.Get(Results, "fig16"); ok {
		t.Fatal("torn entry served as a hit")
	}
	st := s.Stats()
	if st.Corruptions != 1 {
		t.Errorf("corruptions = %d, want 1", st.Corruptions)
	}
	if st.QuarantineBytes == 0 {
		t.Error("torn entry was not quarantined")
	}
	if _, statErr := os.Stat(s.entryPath(Results, "fig16")); !os.IsNotExist(statErr) {
		t.Error("torn entry still at the final path after quarantine")
	}
}

func TestInjectedErrnoSurfacesThroughPut(t *testing.T) {
	s := openFaulty(t, "write:fail@1:enospc", Options{})
	err := s.Put(Results, "fig16", []byte("x"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("Put err %v does not match ENOSPC", err)
	}
}

// TestDegradedStateMachine walks the whole health cycle: consecutive
// write failures flip the store read-only, suppressed writes return
// ErrDegraded without touching the disk, a failed probe keeps it
// degraded, and a successful probe restores normal writes.
func TestDegradedStateMachine(t *testing.T) {
	const probeEvery = 30 * time.Millisecond
	s := openFaulty(t, "write:fail-until@4", Options{ProbeInterval: probeEvery})

	for i := 1; i <= 3; i++ {
		if err := s.Put(Results, "fig16", []byte("x")); err == nil {
			t.Fatalf("write %d succeeded under fail-until@4", i)
		}
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after 3 consecutive write failures")
	}

	// Inside the probe interval: suppressed, and the injector sees no
	// write at all (the disk is not touched).
	callsBefore := s.faults.Calls(faultinject.OpWrite)
	if err := s.Put(Results, "fig16", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("suppressed Put = %v, want ErrDegraded", err)
	}
	if s.faults.Calls(faultinject.OpWrite) != callsBefore {
		t.Error("suppressed Put still reached the disk")
	}

	// First probe (write #4) still fails: degraded persists.
	time.Sleep(probeEvery + 10*time.Millisecond)
	if err := s.Put(Results, "fig16", []byte("x")); errors.Is(err, ErrDegraded) || err == nil {
		t.Fatalf("probe write = %v, want an injected failure", err)
	}
	if !s.Degraded() {
		t.Fatal("failed probe healed the store")
	}

	// Second probe (write #5) succeeds: healthy again, writes flow.
	time.Sleep(probeEvery + 10*time.Millisecond)
	if err := s.Put(Results, "fig16", []byte("recovered")); err != nil {
		t.Fatalf("successful probe returned %v", err)
	}
	if s.Degraded() {
		t.Fatal("store still degraded after a successful probe")
	}
	if err := s.Put(Results, "fig17", []byte("normal")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}

	st := s.Stats()
	if st.Degraded {
		t.Error("Stats.Degraded true after recovery")
	}
	if st.WritesSuppressed != 1 {
		t.Errorf("writes suppressed = %d, want 1", st.WritesSuppressed)
	}
}

// TestDegradedStoreStillServesReads is the point of degraded mode:
// a disk that stops accepting writes keeps serving everything already
// on it.
func TestDegradedStoreStillServesReads(t *testing.T) {
	s := openFaulty(t, "write:fail-after@1", Options{})
	payload := []byte("written while healthy")
	if err := s.Put(Results, "fig16", payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(Results, "other", []byte("x")); err == nil {
			t.Fatal("write succeeded under fail-after@1")
		}
	}
	if !s.Degraded() {
		t.Fatal("store not degraded")
	}
	if got, ok := s.Get(Results, "fig16"); !ok || !bytes.Equal(got, payload) {
		t.Error("degraded store lost a warm read")
	}
	if _, ok := s.ReadRaw(Results, "fig16"); !ok {
		t.Error("degraded store stopped serving the peer surface")
	}
	if st := s.Stats(); !st.Degraded {
		t.Error("Stats does not report degraded")
	}
}

// TestQuarantineByteCapEvictsOldestFirst fills the quarantine past its
// budget and asserts the oldest corpses go first.
func TestQuarantineByteCapEvictsOldestFirst(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	s.quarantineMax = 2500
	garbage := bytes.Repeat([]byte("g"), 1000)
	base := time.Now().Add(-time.Hour)
	if err := os.MkdirAll(filepath.Join(s.Dir(), string(Results)), 0o755); err != nil {
		t.Fatal(err)
	}
	keys := []string{"k1", "k2", "k3", "k4"}
	for i, key := range keys {
		path := s.entryPath(Results, key)
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes so oldest-first is deterministic (rename into
		// quarantine preserves them).
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(Results, key); ok {
			t.Fatalf("garbage entry %s served as a hit", key)
		}
	}
	if got := s.Stats().QuarantineBytes; got > 2500 {
		t.Errorf("quarantine holds %d bytes, budget 2500", got)
	}
	des, err := os.ReadDir(filepath.Join(s.Dir(), ".quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	for _, gone := range []string{"k1.tte", "k2.tte"} {
		for _, name := range names {
			if strings.HasPrefix(name, gone) {
				t.Errorf("oldest corpse %s survived the cap (have %v)", gone, names)
			}
		}
	}
	found := 0
	for _, keep := range []string{"k3.tte", "k4.tte"} {
		for _, name := range names {
			if strings.HasPrefix(name, keep) {
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("newest corpses missing from quarantine: %v", names)
	}
}

// TestReadFaultIsAMiss: an injected read error behaves exactly like an
// unreadable file — a miss, not an error, and no quarantine (there is
// nothing provably corrupt).
func TestReadFaultIsAMiss(t *testing.T) {
	s := openFaulty(t, "read:fail@2", Options{})
	if err := s.Put(Results, "fig16", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(Results, "fig16"); !ok {
		t.Fatal("read 1 missed")
	}
	if _, ok := s.Get(Results, "fig16"); ok {
		t.Fatal("injected read fault served a hit")
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Errorf("read fault quarantined a healthy entry (corruptions=%d)", st.Corruptions)
	}
	if _, ok := s.Get(Results, "fig16"); !ok {
		t.Fatal("read 3 missed; the entry should have survived the injected fault")
	}
}
