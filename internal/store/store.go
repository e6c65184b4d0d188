// Package store is tensortee's persistent, content-addressed result
// store: a disk-backed tier beneath the in-memory caches (experiment
// results, scenario results, calibration snapshots), plus an optional
// static-peer tier so N replicas compute each fingerprint once
// fleet-wide.
//
// Layout is file-per-key under a root directory, one subdirectory per
// namespace:
//
//	<root>/result/fig18.tte        experiment results, keyed by id
//	<root>/scenario/<fp>.tte       scenario results, keyed by spec fingerprint
//	<root>/calib/<fp>.tte          calibration snapshots, keyed by config fingerprint
//	<root>/campaign/<id>.m.tte     campaign manifests; <id>.p<index>.tte point checkpoints
//	<root>/.tmp/                   atomic-write staging
//	<root>/.quarantine/            corrupt entries, moved aside for inspection
//
// Every entry is a versioned envelope: a single header line naming the
// format version, namespace, key, build tag and payload SHA-256, followed
// by the raw payload bytes. Writes are atomic (temp file + rename), so a
// reader — in this process or another one sharing the directory — sees
// either the old complete entry or the new complete entry, never a torn
// one. Reads verify the checksum; corrupt or truncated entries are
// treated as misses and quarantined, never an error the caller must
// handle and never a crash.
//
// The store is correctness-neutral by construction: entries are keyed by
// content fingerprints and stamped with the build tag, so a different
// build (which could simulate different numbers) misses instead of
// serving stale bytes.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tensortee/internal/faultinject"
	"tensortee/internal/resilience"
)

// Namespace partitions the key space: one directory per kind of payload.
type Namespace string

const (
	// Results holds persisted experiment results, keyed by experiment id.
	Results Namespace = "result"
	// Scenarios holds persisted scenario results, keyed by the normalized
	// spec fingerprint.
	Scenarios Namespace = "scenario"
	// Calibrations holds calibrated-system snapshots, keyed by the config
	// content fingerprint.
	Calibrations Namespace = "calib"
	// Campaigns holds campaign manifests and per-point checkpoints, keyed
	// by campaign id (manifests: <id>.m, points: <id>.p<index>).
	Campaigns Namespace = "campaign"
)

// Namespaces lists the valid namespaces (the /v1/store/{ns}/{key} surface
// rejects anything else).
func Namespaces() []Namespace {
	return []Namespace{Results, Scenarios, Calibrations, Campaigns}
}

func validNamespace(ns Namespace) bool {
	switch ns {
	case Results, Scenarios, Calibrations, Campaigns:
		return true
	}
	return false
}

// ValidKey reports whether key is usable as an entry name: 1-128 bytes of
// [A-Za-z0-9._-], not starting with a dot. Experiment ids and hex
// fingerprints both qualify; anything else (path separators, traversal)
// does not.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > 128 || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// envelopeMagic versions the on-disk format; bump it when the header or
// payload encoding changes shape.
const envelopeMagic = "tensortee-store/v1"

// entryExt suffixes every entry file.
const entryExt = ".tte"

// maxEntryBytes bounds a single entry (and a peer response): the largest
// real payload (an all-experiments JSON body) is well under a megabyte,
// so anything near this cap is hostile or corrupt.
const maxEntryBytes = 64 << 20

// BuildTag identifies the producing build. Entries written by a different
// build are treated as misses: a code change may legitimately change
// simulated numbers, and the store must never override a fresh compute.
// Released builds get the VCS revision (plus a -dirty suffix for modified
// trees); builds without VCS stamping (go test, go run from a plain
// directory) share the "dev" tag — wipe or re-warm the store directory
// when changing simulator code under a dev build.
func BuildTag() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			return rev + "-dirty"
		}
		return rev
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "dev"
}

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the total size of stored entries; past it, the
	// least-recently-used entries (by mtime — reads touch) are evicted
	// after each write. 0 means unbounded.
	MaxBytes int64
	// Peers lists base URLs of replica daemons probed on local miss
	// (GET <peer>/v1/store/{ns}/{key}). Empty disables the peer tier.
	Peers []string
	// PeerTimeout bounds each peer probe (default 2s). Probes fail open:
	// a slow or dead peer degrades to a local compute, never an error.
	PeerTimeout time.Duration
	// PeerProbeBudget bounds the *total* time GetOrFetch spends probing
	// peers, across all of them (default 2× PeerTimeout). Probes run
	// concurrently under this shared deadline, so N dead peers cost one
	// budget, not N serial timeouts.
	PeerProbeBudget time.Duration
	// BuildTag overrides the build identity stamped into (and required
	// of) entries. Empty selects BuildTag().
	BuildTag string
	// DegradeThreshold is how many consecutive write failures flip the
	// store into degraded read-only mode (default 3).
	DegradeThreshold int
	// ProbeInterval is how often, while degraded, one write is admitted
	// as a recovery probe (default 15s). A successful probe restores
	// normal writes.
	ProbeInterval time.Duration
	// QuarantineMaxBytes caps the total size of .quarantine/; past it the
	// oldest quarantined files are deleted after each new quarantine.
	// 0 selects the 128 MiB default; negative disables the cap.
	QuarantineMaxBytes int64
	// Faults, when non-nil, injects deterministic failures into the
	// store's filesystem operations and peer probes (tests and the chaos
	// CI job). Nil — the production default — costs one branch per hook.
	Faults *faultinject.Injector
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// DiskHits counts Gets satisfied from the local disk tier.
	DiskHits int64 `json:"disk_hits"`
	// DiskMisses counts Gets the local disk could not satisfy.
	DiskMisses int64 `json:"disk_misses"`
	// Corruptions counts entries rejected at read time (bad checksum,
	// truncation, or build-tag mismatch) and quarantined.
	Corruptions int64 `json:"corruptions"`
	// PeerHits counts misses satisfied by a replica probe.
	PeerHits int64 `json:"peer_hits"`
	// PeerMisses counts replica probes that found nothing.
	PeerMisses int64 `json:"peer_misses"`
	// PeerErrors counts replica probes that failed outright.
	PeerErrors int64 `json:"peer_errors"`
	// Writes counts successful Puts.
	Writes int64 `json:"writes"`
	// WriteErrors counts Puts that failed after retries.
	WriteErrors int64 `json:"write_errors"`
	// Evictions counts entries removed by the size cap.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the current on-disk footprint (computed
	// by walking the namespaces when Stats is taken).
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Pinned counts entries currently pinned against eviction (active
	// campaign manifests and checkpoints).
	Pinned int64 `json:"pinned"`
	// Degraded reports whether the store is currently in read-only
	// degraded mode (consecutive write failures; recovering via probes).
	Degraded bool `json:"degraded"`
	// WritesSuppressed counts Puts refused with ErrDegraded while the
	// store was degraded (probe writes are admitted, not suppressed).
	WritesSuppressed int64 `json:"writes_suppressed"`
	// PeerSkips counts peer probes skipped because the peer's breaker
	// was open.
	PeerSkips int64 `json:"peer_skips"`
	// QuarantineBytes is the current size of .quarantine/ (bounded by
	// QuarantineMaxBytes).
	QuarantineBytes int64 `json:"quarantine_bytes"`
}

// ErrDegraded is returned by Put while the store is in degraded
// read-only mode (and the probe interval has not elapsed). Callers
// already treat persistence as best-effort; this error lets them tell
// "the disk is known-bad, stop trying" from a one-off failure.
var ErrDegraded = fmt.Errorf("store: degraded, writes suppressed until a probe write succeeds")

// Store is a disk-backed content-addressed store. All methods are safe
// for concurrent use, including by multiple processes sharing one
// directory (atomic renames arbitrate).
type Store struct {
	dir           string
	maxBytes      int64
	peers         []string
	timeout       time.Duration
	probeBudget   time.Duration
	build         string
	client        httpDoer
	faults        *faultinject.Injector
	quarantineMax int64

	evictMu sync.Mutex // serializes eviction passes within this process

	pinMu  sync.Mutex
	pinned map[string]int // entry path -> pin count

	// Write-health state machine: consecutive write failures flip the
	// store degraded (read-only); while degraded one write per
	// probeInterval is admitted as a recovery probe.
	healthMu         sync.Mutex
	degraded         bool
	consecWriteFails int
	lastProbe        time.Time
	degradeThreshold int
	probeInterval    time.Duration

	// peerBreakers holds one circuit breaker per configured peer; open
	// breakers make GetOrFetch skip that peer entirely.
	peerBreakers map[string]*resilience.Breaker

	diskHits         atomic.Int64
	diskMisses       atomic.Int64
	corruptions      atomic.Int64
	peerHits         atomic.Int64
	peerMisses       atomic.Int64
	peerErrors       atomic.Int64
	peerSkips        atomic.Int64
	writes           atomic.Int64
	writeErrors      atomic.Int64
	writesSuppressed atomic.Int64
	evictions        atomic.Int64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{"", ".tmp", ".quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	build := opts.BuildTag
	if build == "" {
		build = BuildTag()
	}
	// The header is space-separated; a build tag with spaces (or newlines)
	// would desync parsing.
	build = strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\r' || r == '\t' {
			return '_'
		}
		return r
	}, build)
	timeout := opts.PeerTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	probeBudget := opts.PeerProbeBudget
	if probeBudget <= 0 {
		probeBudget = 2 * timeout
	}
	threshold := opts.DegradeThreshold
	if threshold <= 0 {
		threshold = 3
	}
	probeInterval := opts.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = 15 * time.Second
	}
	quarantineMax := opts.QuarantineMaxBytes
	if quarantineMax == 0 {
		quarantineMax = 128 << 20
	}
	s := &Store{
		dir:              dir,
		maxBytes:         opts.MaxBytes,
		peers:            append([]string(nil), opts.Peers...),
		timeout:          timeout,
		probeBudget:      probeBudget,
		build:            build,
		client:           newPeerClient(timeout),
		faults:           opts.Faults,
		quarantineMax:    quarantineMax,
		degradeThreshold: threshold,
		probeInterval:    probeInterval,
		pinned:           make(map[string]int),
		peerBreakers:     make(map[string]*resilience.Breaker, len(opts.Peers)),
	}
	for _, p := range s.peers {
		s.peerBreakers[p] = resilience.New(peerBreakerThreshold, peerBreakerCooldown,
			resilience.WithMaxCooldown(peerBreakerMaxCooldown))
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(ns Namespace, key string) string {
	return filepath.Join(s.dir, string(ns), key+entryExt)
}

// encodeEnvelope frames a payload:
//
//	tensortee-store/v1 <ns> <key> <build> <sha256-hex> <len>\n<payload>
func (s *Store) encodeEnvelope(ns Namespace, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s %s %s %d\n",
		envelopeMagic, ns, key, s.build, hex.EncodeToString(sum[:]), len(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// decodeError distinguishes a corrupt entry (quarantine) from a merely
// mismatched one (someone else's valid entry: wrong build/ns/key — leave
// it alone, report a miss).
type decodeError struct {
	corrupt bool
	reason  string
}

func (e *decodeError) Error() string { return "store: " + e.reason }

func corrupt(format string, args ...any) *decodeError {
	return &decodeError{corrupt: true, reason: fmt.Sprintf(format, args...)}
}

func mismatch(format string, args ...any) *decodeError {
	return &decodeError{corrupt: false, reason: fmt.Sprintf(format, args...)}
}

// decodeEnvelope validates raw entry bytes and returns the payload.
func (s *Store) decodeEnvelope(ns Namespace, key string, raw []byte) ([]byte, *decodeError) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, corrupt("no header line")
	}
	fields := strings.Split(string(raw[:nl]), " ")
	if len(fields) != 6 {
		return nil, corrupt("header has %d fields, want 6", len(fields))
	}
	if fields[0] != envelopeMagic {
		return nil, corrupt("bad magic %q", fields[0])
	}
	n, err := strconv.Atoi(fields[5])
	if err != nil || n < 0 || n > maxEntryBytes {
		return nil, corrupt("bad payload length %q", fields[5])
	}
	payload := raw[nl+1:]
	if len(payload) != n {
		return nil, corrupt("payload is %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[4] {
		return nil, corrupt("checksum mismatch")
	}
	// Content is intact from here on; the remaining checks classify whose
	// entry this is, not whether it survived the disk.
	if Namespace(fields[1]) != ns || fields[2] != key {
		return nil, mismatch("entry is %s/%s, want %s/%s", fields[1], fields[2], ns, key)
	}
	if fields[3] != s.build {
		return nil, mismatch("entry from build %q, this is %q", fields[3], s.build)
	}
	return payload, nil
}

// Get returns the payload stored under ns/key from disk, or ok=false on
// miss. Corrupt or truncated entries are quarantined and reported as
// misses; hits touch the entry's mtime so LRU eviction keeps hot entries.
func (s *Store) Get(ns Namespace, key string) ([]byte, bool) {
	if !validNamespace(ns) || !ValidKey(key) {
		return nil, false
	}
	path := s.entryPath(ns, key)
	if f := s.faults.Check(faultinject.OpRead); f.Err != nil {
		s.diskMisses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		s.diskMisses.Add(1)
		return nil, false
	}
	payload, derr := s.decodeEnvelope(ns, key, raw)
	if derr != nil {
		if derr.corrupt {
			s.quarantine(path)
		}
		s.diskMisses.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	_ = os.Chtimes(path, time.Now(), time.Now()) // LRU touch; best-effort
	return payload, true
}

// ReadRaw returns the validated raw envelope bytes for ns/key — the wire
// form the /v1/store peer surface serves. It does not count as a local
// hit or miss (it is the serving side of someone else's lookup), but a
// corrupt entry is still quarantined.
func (s *Store) ReadRaw(ns Namespace, key string) ([]byte, bool) {
	if !validNamespace(ns) || !ValidKey(key) {
		return nil, false
	}
	path := s.entryPath(ns, key)
	if f := s.faults.Check(faultinject.OpRead); f.Err != nil {
		return nil, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if _, derr := s.decodeEnvelope(ns, key, raw); derr != nil {
		if derr.corrupt {
			s.quarantine(path)
		}
		return nil, false
	}
	return raw, true
}

// Put stores payload under ns/key, atomically: the envelope is staged in
// .tmp and renamed into place, so concurrent readers (any process) see
// either the previous entry or this one, never a torn write. Put then
// enforces MaxBytes by evicting least-recently-used entries. Errors are
// counted and returned, but callers treat persistence as best-effort —
// a failed write never fails the computation that produced the payload.
func (s *Store) Put(ns Namespace, key string, payload []byte) error {
	if !validNamespace(ns) {
		return fmt.Errorf("store: invalid namespace %q", ns)
	}
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(payload) > maxEntryBytes {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: payload %d bytes exceeds the %d-byte entry bound", len(payload), maxEntryBytes)
	}
	return s.persist(ns, key, s.encodeEnvelope(ns, key, payload))
}

// persist is the health-gated write path shared by Put and the peer
// write-through: the degraded gate runs first (ErrDegraded when writes
// are suppressed), the write's outcome feeds the health machine, and a
// success enforces the byte budget.
func (s *Store) persist(ns Namespace, key string, raw []byte) error {
	if err := s.admitWrite(); err != nil {
		return err
	}
	err := s.write(ns, key, raw)
	s.noteWrite(err)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	s.evict()
	return nil
}

// Degraded reports whether the store is currently in degraded read-only
// mode.
func (s *Store) Degraded() bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.degraded
}

// admitWrite is the degraded-mode gate. Healthy: every write proceeds.
// Degraded: writes are suppressed with ErrDegraded, except one write
// per probeInterval which is admitted as a recovery probe (its outcome,
// reported to noteWrite, decides whether the store heals).
func (s *Store) admitWrite() error {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if !s.degraded {
		return nil
	}
	if now := time.Now(); now.Sub(s.lastProbe) >= s.probeInterval {
		s.lastProbe = now
		return nil
	}
	s.writesSuppressed.Add(1)
	return ErrDegraded
}

// noteWrite feeds one write outcome into the health machine: a success
// clears the failure streak (and degraded mode, when this was a probe);
// reaching degradeThreshold consecutive failures flips the store
// degraded. Failures while already degraded (failed probes) just leave
// it degraded and restart the probe clock via admitWrite's timestamp.
func (s *Store) noteWrite(err error) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if err == nil {
		s.consecWriteFails = 0
		s.degraded = false
		return
	}
	s.consecWriteFails++
	if !s.degraded && s.consecWriteFails >= s.degradeThreshold {
		s.degraded = true
		s.lastProbe = time.Now()
	}
}

func (s *Store) write(ns Namespace, key string, raw []byte) error {
	if err := os.MkdirAll(filepath.Join(s.dir, string(ns)), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, ".tmp"), key+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if f := s.faults.Check(faultinject.OpWrite); f.Err != nil {
		if f.Torn {
			// A torn write lands truncated bytes at the *final* path and
			// then fails — the shape a lying disk plus a crash leaves
			// behind, which atomic rename alone can never produce. The
			// next read must quarantine it as corrupt.
			_, _ = tmp.Write(raw[:len(raw)/2])
			tmp.Close()
			_ = os.Rename(tmpName, s.entryPath(ns, key))
			return fmt.Errorf("store: %w", f.Err)
		}
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", f.Err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	// Sync before rename: after a crash the entry must be complete or
	// absent, not a rename pointing at unflushed bytes.
	if f := s.faults.Check(faultinject.OpSync); f.Err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", f.Err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if f := s.faults.Check(faultinject.OpRename); f.Err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", f.Err)
	}
	if err := os.Rename(tmpName, s.entryPath(ns, key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// quarantine moves a corrupt entry aside (never deleting data that might
// matter for a post-mortem) and counts it. Best-effort: if the rename
// loses a race with a concurrent writer replacing the entry, the corrupt
// bytes are already gone and that is fine too.
func (s *Store) quarantine(path string) {
	s.corruptions.Add(1)
	dst, err := os.CreateTemp(filepath.Join(s.dir, ".quarantine"), filepath.Base(path)+".*")
	if err != nil {
		return
	}
	dstName := dst.Name()
	dst.Close()
	if err := os.Rename(path, dstName); err != nil {
		os.Remove(dstName)
	}
	s.capQuarantine()
}

// capQuarantine keeps .quarantine/ under the byte budget by deleting
// the oldest files (by mtime) first: on a disk that corrupts steadily,
// the quarantine holds the freshest evidence instead of growing without
// bound. Best-effort, like quarantine itself.
func (s *Store) capQuarantine() {
	if s.quarantineMax < 0 {
		return
	}
	dir := filepath.Join(s.dir, ".quarantine")
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var files []entryInfo
	var total int64
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, entryInfo{
			path:  filepath.Join(dir, de.Name()),
			size:  fi.Size(),
			mtime: fi.ModTime(),
		})
		total += fi.Size()
	}
	if total <= s.quarantineMax {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= s.quarantineMax {
			break
		}
		if err := os.Remove(f.path); err == nil {
			total -= f.size
		}
	}
}

// quarantineBytes is the current size of .quarantine/.
func (s *Store) quarantineBytes() int64 {
	des, err := os.ReadDir(filepath.Join(s.dir, ".quarantine"))
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range des {
		if fi, err := de.Info(); err == nil && !de.IsDir() {
			total += fi.Size()
		}
	}
	return total
}

// Keys lists the keys currently present under a namespace, sorted. Used
// by the campaign tier to discover resumable manifests and checkpoints
// after a restart.
func (s *Store) Keys(ns Namespace) []string {
	if !validNamespace(ns) {
		return nil
	}
	des, err := os.ReadDir(filepath.Join(s.dir, string(ns)))
	if err != nil {
		return nil
	}
	var out []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entryExt) {
			continue
		}
		key := strings.TrimSuffix(name, entryExt)
		if ValidKey(key) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Pin marks ns/key as protected from MaxBytes eviction until a matching
// Unpin. Pins are reference-counted and per-process (in-memory): an
// active campaign's manifest and checkpoints must survive LRU pressure
// mid-job — touch-on-read is not enough when thousands of fresh scenario
// writes land between two reads of the same checkpoint. Pinning a key
// that has no entry yet is fine (the pin covers the entry once written).
func (s *Store) Pin(ns Namespace, key string) {
	if !validNamespace(ns) || !ValidKey(key) {
		return
	}
	s.pinMu.Lock()
	s.pinned[s.entryPath(ns, key)]++
	s.pinMu.Unlock()
}

// Unpin releases one Pin reference on ns/key.
func (s *Store) Unpin(ns Namespace, key string) {
	if !validNamespace(ns) || !ValidKey(key) {
		return
	}
	path := s.entryPath(ns, key)
	s.pinMu.Lock()
	if n := s.pinned[path]; n > 1 {
		s.pinned[path] = n - 1
	} else {
		delete(s.pinned, path)
	}
	s.pinMu.Unlock()
}

// pinnedPaths snapshots the currently pinned entry paths.
func (s *Store) pinnedPaths() map[string]bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if len(s.pinned) == 0 {
		return nil
	}
	out := make(map[string]bool, len(s.pinned))
	for p := range s.pinned {
		out[p] = true
	}
	return out
}

// entryInfo is one entry's eviction-relevant metadata.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walkEntries lists all entries across namespaces. Directory-read errors
// are ignored: a namespace that does not exist yet holds no entries.
func (s *Store) walkEntries() []entryInfo {
	var out []entryInfo
	for _, ns := range Namespaces() {
		dir := filepath.Join(s.dir, string(ns))
		des, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, de := range des {
			if de.IsDir() || !strings.HasSuffix(de.Name(), entryExt) {
				continue
			}
			fi, err := de.Info()
			if err != nil {
				continue
			}
			out = append(out, entryInfo{
				path:  filepath.Join(dir, de.Name()),
				size:  fi.Size(),
				mtime: fi.ModTime(),
			})
		}
	}
	return out
}

// evict removes least-recently-used entries until the total size fits
// MaxBytes. The walk recomputes sizes from disk each pass, so totals
// self-heal across processes sharing the directory.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	entries := s.walkEntries()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= s.maxBytes {
		return
	}
	// Pinned entries (active campaign state) sort after everything else:
	// they are only reclaimed when evicting every unpinned entry still
	// does not fit the budget, so a byte cap cannot silently destroy a
	// running campaign's checkpoints.
	pinned := s.pinnedPaths()
	sort.Slice(entries, func(i, j int) bool {
		pi, pj := pinned[entries[i].path], pinned[entries[j].path]
		if pi != pj {
			return pj
		}
		return entries[i].mtime.Before(entries[j].mtime)
	})
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err == nil {
			total -= e.size
			s.evictions.Add(1)
		}
	}
}

// Stats snapshots the counters and the on-disk footprint.
func (s *Store) Stats() Stats {
	st := Stats{
		DiskHits:         s.diskHits.Load(),
		DiskMisses:       s.diskMisses.Load(),
		Corruptions:      s.corruptions.Load(),
		PeerHits:         s.peerHits.Load(),
		PeerMisses:       s.peerMisses.Load(),
		PeerErrors:       s.peerErrors.Load(),
		PeerSkips:        s.peerSkips.Load(),
		Writes:           s.writes.Load(),
		WriteErrors:      s.writeErrors.Load(),
		WritesSuppressed: s.writesSuppressed.Load(),
		Evictions:        s.evictions.Load(),
		Degraded:         s.Degraded(),
		QuarantineBytes:  s.quarantineBytes(),
	}
	for _, e := range s.walkEntries() {
		st.Entries++
		st.Bytes += e.size
	}
	s.pinMu.Lock()
	st.Pinned = int64(len(s.pinned))
	s.pinMu.Unlock()
	return st
}
