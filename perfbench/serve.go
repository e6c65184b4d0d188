package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tensortee"
	"tensortee/internal/scenario"
	"tensortee/internal/server"
	"tensortee/internal/store"
)

// serveIDs are the experiments serve-mix warms and reads: every light
// figure plus fig16 (fig16 is left out of the smoke size).
func serveIDs(smoke bool) []string {
	var ids []string
	for _, e := range tensortee.Experiments() {
		if !e.Heavy {
			ids = append(ids, e.ID)
		}
	}
	if !smoke {
		ids = append(ids, "fig16")
	}
	return ids
}

var serveFormats = []string{"text", "json", "csv"}

// formatMIME is the Accept value that negotiates each format.
var formatMIME = map[string]string{"text": "text/plain", "json": "application/json", "csv": "text/csv"}

// goldenExt maps a wire format onto its golden file extension.
var goldenExt = map[string]string{"text": "txt", "json": "json", "csv": "csv"}

type opKind int

const (
	opGet        opKind = iota // GET /v1/experiments/{id}
	opRevalidate               // the same GET with a matching If-None-Match
	opMisc                     // index, healthz, metrics or store stats
	opPost                     // POST /v1/scenarios with a fresh spec
	opLookup                   // GET /v1/scenarios/{fp} of an earlier POST
)

// miscPaths are the misc requests, drawn with equal shares. /metrics and
// /v1/store stat every store entry, so each costs time in proportion to the
// POSTs before it.
var miscPaths = []string{"/v1/experiments", "/healthz", "/metrics", "/v1/store"}

// op is one request of the mix.
type op struct {
	kind      opKind
	id        string // experiment id (opGet, opRevalidate)
	format    string
	viaAccept bool // negotiate with Accept instead of ?format=
	gzip      bool
	path      string        // opMisc
	spec      scenario.Spec // opPost
	lookup    int           // opLookup: index of the client's earlier POST
}

// randomModel draws a custom transformer shape.
func randomModel(rng *rand.Rand) scenario.ModelSpec {
	heads := []int{8, 12, 16, 32}[rng.Intn(4)]
	hidden := heads * []int{64, 128}[rng.Intn(2)]
	return scenario.ModelSpec{
		Layers: 4 + rng.Intn(29),
		Hidden: hidden,
		Heads:  heads,
		FFNDim: 4 * hidden,
		Vocab:  30000 + rng.Intn(30001),
		Batch:  []int{1, 2, 4, 8}[rng.Intn(4)],
		SeqLen: []int{512, 1024, 2048}[rng.Intn(3)],
	}
}

// mixGen yields one client's seeded request sequence: ~60% experiment
// GETs, ~15% revalidations, ~5% index/health/metrics/store, ~15% scenario
// POSTs with fresh model dims on the default systems, ~5% lookups of the
// client's earlier POSTs.
type mixGen struct {
	rng    *rand.Rand
	client int
	ids    []string
	posts  int
}

func newMixGen(seed int64, client int, ids []string) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), client: client, ids: ids}
}

func (g *mixGen) next() op {
	r := g.rng.Float64()
	o := op{format: serveFormats[g.rng.Intn(len(serveFormats))]}
	switch {
	case r < 0.60:
		o.kind = opGet
		o.id = g.ids[g.rng.Intn(len(g.ids))]
		o.viaAccept = g.rng.Intn(2) == 0
		o.gzip = g.rng.Intn(2) == 0
	case r < 0.75:
		o.kind = opRevalidate
		o.id = g.ids[g.rng.Intn(len(g.ids))]
	case r < 0.80:
		o.kind = opMisc
		o.path = miscPaths[g.rng.Intn(len(miscPaths))]
	case r < 0.95 || g.posts == 0:
		o.kind = opPost
		o.spec = scenario.Spec{
			Name:    fmt.Sprintf("mix-c%d-%d", g.client, g.posts),
			Model:   randomModel(g.rng),
			Systems: []scenario.SystemSpec{{Kind: "non-secure"}, {Kind: "sgx-mgx"}, {Kind: "tensortee"}},
		}
		g.posts++
	default:
		o.kind = opLookup
		o.lookup = g.rng.Intn(g.posts)
	}
	return o
}

// repKey names one representation of an experiment.
type repKey struct {
	id, format string
	gzip       bool
}

// serveEnv is a running daemon: a Runner over a temp store warmed with
// the serve IDs, tensorteed's handler on a loopback listener, and the
// representations and ETags learned while warming.
type serveEnv struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	bodies map[repKey][]byte
	etags  map[repKey]string
}

// newServeEnv warms the serve IDs into a temp store with one Runner,
// then serves them from a second Runner over that store (its calibrations
// and results load from disk) and requests every representation once, so
// the daemon's memory tier holds them all.
func newServeEnv(ctx context.Context, tmp string, ids []string, want goldens) (*serveEnv, error) {
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, bodies: make(map[repKey][]byte), etags: make(map[repKey]string)}
	ok := false
	defer func() {
		if !ok {
			env.close()
		}
	}()
	if env.st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	if _, _, err := tensortee.NewRunner(tensortee.WithParallelism(workers), tensortee.WithStore(env.st)).WarmAll(ctx, ids...); err != nil {
		return nil, err
	}
	env.srv = server.New(server.Config{Runner: tensortee.NewRunner(tensortee.WithParallelism(workers), tensortee.WithStore(env.st))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan struct{})
	go func() {
		defer close(env.served)
		_ = env.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	env.base = "http://" + ln.Addr().String()
	// Compression is negotiated per request; the transport must pass gzip
	// bodies through untouched.
	env.client = &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2 * workers}}

	for _, id := range ids {
		for _, f := range serveFormats {
			for _, gz := range []bool{false, true} {
				k := repKey{id, f, gz}
				resp, body, err := env.do(ctx, op{kind: opGet, id: id, format: f, gzip: gz})
				if err != nil {
					return nil, err
				}
				if resp.StatusCode != http.StatusOK {
					return nil, fmt.Errorf("warming %s: status %d", id, resp.StatusCode)
				}
				plain := body
				if resp.Header.Get("Content-Encoding") == "gzip" {
					if plain, err = gunzip(body); err != nil {
						return nil, fmt.Errorf("warming %s: %w", id, err)
					}
				}
				if !bytes.Equal(plain, servedGolden(want[id], f)) {
					return nil, fmt.Errorf("warming %s: %s body differs from its golden", id, f)
				}
				env.bodies[k] = body
				env.etags[k] = resp.Header.Get("ETag")
			}
		}
	}
	ok = true
	return env, nil
}

// servedGolden is the body tensorteed sends for a golden rendering: the
// JSON golden carries one trailing newline the wire body does not.
func servedGolden(g map[string][]byte, format string) []byte {
	b := g[goldenExt[format]]
	if format == "json" {
		b = bytes.TrimSuffix(b, []byte("\n"))
	}
	return b
}

func (e *serveEnv) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = e.hs.Shutdown(ctx) // idle connections only; every client has returned
		cancel()
		<-e.served
		e.client.CloseIdleConnections()
		shutdown(e.srv.Campaigns())
	}
	os.RemoveAll(e.dir)
}

// do sends one request and reads the whole body.
func (e *serveEnv) do(ctx context.Context, o op) (*http.Response, []byte, error) {
	method, path, body := http.MethodGet, "", io.Reader(nil)
	q := "?format=" + o.format
	switch o.kind {
	case opGet, opRevalidate:
		path = "/v1/experiments/" + o.id
		if o.viaAccept {
			q = ""
		}
	case opMisc:
		path, q = o.path, ""
	case opPost:
		b, err := json.Marshal(o.spec)
		if err != nil {
			return nil, nil, err
		}
		method, path, body = http.MethodPost, "/v1/scenarios", bytes.NewReader(b)
	case opLookup:
		path = "/v1/scenarios/" + o.spec.Fingerprint()
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path+q, body)
	if err != nil {
		return nil, nil, err
	}
	if o.viaAccept {
		req.Header.Set("Accept", formatMIME[o.format])
	}
	if o.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if o.kind == opRevalidate {
		req.Header.Set("If-None-Match", e.etags[repKey{o.id, o.format, false}])
	}
	if o.kind == opPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// checkedPosts is how many POST bodies per client the correctness gate
// recomputes with a fresh Runner.
const checkedPosts = 2

// postRecord remembers one POST for later lookups and the fresh-run check.
type postRecord struct {
	spec   scenario.Spec
	format string
	ok     bool // answered 200
	sum    [32]byte
	body   []byte // kept for the first checkedPosts POSTs only
}

// sample is one completed request.
type sample struct {
	kind opKind
	ms   float64
	tier string // X-Cache, or "not_modified" for a 304
}

// mixResult is one closed loop's outcome.
type mixResult struct {
	samples []sample
	wall    float64   // s
	batches []float64 // s per batch of completions (runMix's batch)
	posts   []postRecord
}

// mixRate is the request rate, both clients together, that sizes a
// serve-mix run: a run of s seconds sends mixRate*s requests, about s
// seconds' worth on the 2-CPU machine the bounds were fixed on. A fixed
// count, not a deadline, ends the run because /metrics and /v1/store walk
// the whole store, so their cost grows with every POST before them; with a
// fixed sequence the store grows the same way on every run.
const mixRate = 3000

// runMix drives the daemon with workers closed-loop clients, each sending
// the first perClient requests of its seeded sequence. The timeout only
// guards against a stalled daemon.
func runMix(ctx context.Context, env *serveEnv, seed int64, ids []string, perClient int, timeout time.Duration, batch int, tr *tracer, parent int, rep *report) (mixResult, error) {
	var (
		mu       sync.Mutex
		res      mixResult
		done     atomic.Int64
		lastMark = time.Now()
		errOnce  sync.Once
		firstErr error
	)
	start := time.Now()
	deadline := start.Add(timeout)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newMixGen(seed, c, ids)
			var posts []postRecord // one per generated POST, in order
			var local []sample
			for i := 0; i < perClient && time.Now().Before(deadline); i++ {
				o := gen.next()
				if o.kind == opLookup {
					p := posts[o.lookup]
					if !p.ok {
						continue // its POST failed and was counted; nothing to look up
					}
					o.spec, o.format = p.spec, p.format
				}
				sp := tr.begin("server.request", parent)
				t0 := time.Now()
				resp, body, err := env.do(ctx, o)
				ms := float64(time.Since(t0)) / 1e6
				tier := ""
				if err == nil {
					tier = resp.Header.Get("X-Cache")
					if resp.StatusCode == http.StatusNotModified {
						tier = "not_modified"
					}
				}
				tr.end(sp, tier)
				if n := done.Add(1); batch > 0 && n%int64(batch) == 0 {
					now := time.Now()
					mu.Lock()
					res.batches = append(res.batches, now.Sub(lastMark).Seconds())
					lastMark = now
					mu.Unlock()
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				local = append(local, sample{kind: o.kind, ms: ms, tier: tier})
				if o.kind == opPost {
					pr := postRecord{spec: o.spec, format: o.format, ok: resp.StatusCode == http.StatusOK, sum: sha256.Sum256(body)}
					if len(posts) < checkedPosts {
						pr.body = body
					}
					posts = append(posts, pr)
				}
				mu.Lock()
				env.verify(o, resp, body, posts, rep)
				mu.Unlock()
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			for _, p := range posts {
				if p.ok && p.body != nil {
					res.posts = append(res.posts, p)
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	return res, firstErr
}

// verify checks one response: the status each kind must answer, and the
// body against the representation learned from the golden (experiments)
// or the earlier POST (lookups). It counts the request as one operation.
func (e *serveEnv) verify(o op, resp *http.Response, body []byte, posts []postRecord, rep *report) {
	want := http.StatusOK
	if o.kind == opRevalidate {
		want = http.StatusNotModified
	}
	if resp.StatusCode != want {
		rep.op(fmt.Errorf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want))
		return
	}
	rep.op(nil)
	switch o.kind {
	case opGet:
		if !bytes.Equal(body, e.bodies[repKey{o.id, o.format, o.gzip}]) {
			rep.mismatch("GET %s (%s, gzip=%t) body differs from its golden", o.id, o.format, o.gzip)
		}
	case opLookup:
		if sha256.Sum256(body) != posts[o.lookup].sum {
			rep.mismatch("GET scenario %s differs from its POST response", o.spec.Name)
		}
	}
}

// checkPosts is the serve-mix correctness gate for scenarios: the kept
// POST bodies must match a fresh, uncached Runner's RunScenario of the
// same spec rendered in the same format.
func checkPosts(ctx context.Context, posts []postRecord, rep *report) error {
	fresh := tensortee.NewRunner()
	for _, p := range posts {
		if p.body == nil {
			continue
		}
		res, err := fresh.RunScenario(ctx, p.spec)
		if err != nil {
			return err
		}
		r, err := renderings(res)
		if err != nil {
			return err
		}
		want := r[goldenExt[p.format]]
		if p.format == "json" {
			want = bytes.TrimSuffix(want, []byte("\n"))
		}
		if !bytes.Equal(p.body, want) {
			rep.mismatch("POST scenario %s (%s) differs from a fresh RunScenario", p.spec.Name, p.format)
		}
	}
	return nil
}

// runServe is the serve-mix workload: two closed-loop clients send the
// seeded mix to tensorteed's handler over a loopback listener.
func runServe(ctx context.Context, rc *runConfig, rep *report) error {
	tmp := filepath.Join(rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ids := serveIDs(rc.smoke)
	want, err := loadGoldens(rc.root, ids)
	if err != nil {
		return err
	}
	env, setup, err := timeSetup(setupReps, func() (*serveEnv, error) { return newServeEnv(ctx, tmp, ids, want) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	perClient, batch := int(rc.seconds*mixRate)/workers, 500
	if rc.smoke {
		perClient, batch = 30, 20
	}
	timeout := time.Duration(10 * rc.seconds * float64(time.Second))
	if rc.trace {
		// Each pass gets a daemon and store of its own, so the traced pass
		// starts from the same state as the untraced one: the store walks
		// of /metrics and /v1/store would otherwise slow the second pass.
		second, err := newServeEnv(ctx, tmp, ids, want)
		if err != nil {
			return err
		}
		defer second.close()
		pass := env
		var posts []postRecord
		err = tracedPass(ctx, rc, rep, func(tr *tracer, parent int) (float64, error) {
			res, err := runMix(ctx, pass, rc.seed, ids, perClient/2, timeout, batch, tr, parent, rep)
			pass = second
			if err != nil {
				return 0, err
			}
			if tr == nil {
				// The traced pass sends the same requests; one pass's POST
				// bodies are checked.
				posts = res.posts
			} else {
				reportServerLayer(rep, tr)
			}
			return res.wall / float64(len(res.samples)), nil
		})
		if err != nil {
			return err
		}
		// Outside the profiled pass: the fresh Runner calibrates.
		return checkPosts(ctx, posts, rep)
	}

	rep.set("setup_s", setup, "s")
	res, err := runMix(ctx, env, rc.seed, ids, perClient, timeout, batch, nil, 0, rep)
	if err != nil {
		return err
	}
	if err := checkPosts(ctx, res.posts, rep); err != nil {
		return err
	}
	var all, fills []float64
	restores := 0
	for _, s := range res.samples {
		all = append(all, s.ms)
		switch {
		case s.kind == opPost && s.tier == "compute":
			fills = append(fills, s.ms)
		case s.tier == "memory" || s.tier == "disk":
			restores++
		}
	}
	if len(fills) == 0 {
		return errors.New("no scenario POST reached the compute tier")
	}
	wall := median(res.batches)
	if len(res.batches) == 0 {
		wall = res.wall
	}
	rep.set("wall_s", wall, "s")
	rep.set("points_per_s", float64(len(fills))/res.wall, "points/s")
	rep.set("restore_points_per_s", float64(restores)/res.wall, "points/s")
	rep.set("req_per_s", float64(len(all))/res.wall, "req/s")
	rep.set("req_p50_ms", median(all), "ms")
	rep.set("req_p99_ms", tail(all), "ms")
	rep.set("fill_p50_ms", median(fills), "ms")
	rep.set("fill_p99_ms", tail(fills), "ms")
	return nil
}

// serverTiers are the X-Cache tiers (plus 304s) the server layer reports.
var serverTiers = []string{"memory", "not_modified", "compute", "disk"}

// reportServerLayer turns the traced request spans into per-tier median
// latency and request counts.
func reportServerLayer(rep *report, tr *tracer) {
	for _, t := range serverTiers {
		ms := tr.durations("server.request", t)
		if len(ms) > 0 {
			rep.set("server.p50_ms."+t, median(ms), "ms")
		}
		rep.set("server.requests."+t, float64(len(ms)), "count")
	}
}

// gunzip decompresses a gzip body.
func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}
