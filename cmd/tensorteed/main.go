// Command tensorteed serves the TensorTEE paper's experiments over HTTP.
// Results are computed on first request, memoized in memory (calibrated
// systems and finished Results are both cached), and served with strong
// ETags so clients can revalidate cheaply.
//
// Usage:
//
//	tensorteed                         serve on :8344
//	tensorteed -addr :9000             custom listen address
//	tensorteed -parallel 4             worker pool inside the Runner
//	tensorteed -max-concurrent 2       bound concurrent cold computations
//	tensorteed -max-scenarios 2        bound concurrent scenario computations
//	tensorteed -campaign-workers 2     bound concurrent campaign point computations
//	tensorteed -campaign-retries 1     retry failed campaign points this many times
//	tensorteed -warm                   warm every experiment at startup
//	tensorteed -warm -warm-exit        ... then exit instead of serving
//	tensorteed -store-dir /var/lib/tt  persist results/calibrations on disk
//	tensorteed -store-max-bytes N      evict oldest entries past N bytes
//	tensorteed -peers http://a,http://b  probe replicas on local store miss
//	tensorteed -pprof localhost:6060   net/http/pprof on a side listener
//	tensorteed -rate-limit 10          per-client token bucket, 10 req/s
//	tensorteed -trusted-proxies 1      client = X-Forwarded-For behind 1 proxy
//	tensorteed -log-requests           structured JSON request log on stderr
//
// Endpoints:
//
//	GET  /v1/experiments               index with paper-artifact metadata
//	GET  /v1/experiments/{id}          one result (?format=text|json|csv)
//	GET  /v1/experiments/all           every result
//	POST /v1/scenarios                 run a declarative custom scenario
//	GET  /v1/scenarios/{fingerprint}   look up a computed scenario by fingerprint
//	POST /v1/campaigns                 submit an async multi-axis campaign
//	GET  /v1/campaigns                 all campaign statuses
//	GET  /v1/campaigns/{id}            one campaign status
//	GET  /v1/campaigns/{id}/events     NDJSON progress stream
//	DELETE /v1/campaigns/{id}          cancel (in-flight points drain)
//	GET  /v1/store                     persistent-store statistics
//	GET  /v1/store/{ns}/{key}          raw store envelope (peer replication)
//	GET  /healthz                      liveness probe
//	GET  /metrics                      request/cache/latency counters
//
// With -store-dir, every computed experiment result, scenario result and
// calibration snapshot writes through to a content-addressed store in
// that directory, and a restarted daemon (or a -warm pass) serves
// anything already on disk instead of recomputing it. With -peers, a
// local store miss additionally probes the listed replicas' /v1/store
// endpoints (strict per-probe timeout, fail-open), so a fleet computes
// each artifact once.
//
// The store itself degrades gracefully: repeated write failures
// (disk-full, I/O errors) flip it into a read-only degraded mode —
// reads, warm serves and peer replication keep working, new writes are
// suppressed, /healthz reports "store: degraded", and one probe write
// per -store-probe-interval tests whether the disk healed (a successful
// probe restores normal writes). The TENSORTEE_FAULTS environment
// variable injects deterministic store faults for chaos testing only.
//
// The serving path degrades instead of queueing under overload: when
// every -max-concurrent slot is busy (or the fill circuit breaker is
// open after repeated failures), requests for results already persisted
// in -store-dir are answered from disk with a Warning: 110 stale marker,
// and only requests with nothing stored shed with 503 + Retry-After.
// With -rate-limit, each client (per remote address, or per
// X-Forwarded-For entry behind -trusted-proxies proxies) gets a token
// bucket; clients over budget receive 429 + Retry-After while /healthz
// and /metrics stay exempt. Large negotiated bodies are gzip-compressed
// when the client accepts it.
//
// POST /v1/scenarios takes a JSON scenario spec (model, systems with
// Table-1 overrides, metrics, optional sweep — see EXPERIMENTS.md).
// Results are cached by the spec's content fingerprint and served with a
// strong ETag derived from it, so identical specs revalidate with
// If-None-Match → 304.
//
// POST /v1/campaigns takes a campaign spec — a base scenario plus axes
// to cross — and runs the grid asynchronously on a bounded worker pool.
// Every completed point checkpoints through -store-dir, so a daemon
// killed mid-campaign resumes it at the next start computing only the
// missing points; without -store-dir campaigns run but do not survive a
// restart.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (campaign workers included), then
// the process exits. A SIGKILL mid-campaign loses no completed points —
// each checkpoint is an atomic store write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tensortee"
	"tensortee/internal/faultinject"
	"tensortee/internal/server"
	"tensortee/internal/store"
)

// splitPeers parses the -peers value: comma-separated base URLs, blanks
// ignored, trailing slashes trimmed (the store appends its own paths).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse flags, listen, serve until ctx
// dies, drain, and return the exit code. The bound address is echoed to
// stdout (resolved, so -addr :0 works under test).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tensorteed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8344", "listen address")
	parallel := fs.Int("parallel", 1, "experiments the Runner may execute concurrently (0 = GOMAXPROCS)")
	maxConcurrent := fs.Int("max-concurrent", 4, "cold experiment computations in flight at once (0 = unbounded)")
	maxScenarios := fs.Int("max-scenarios", 2, "scenario computations in flight at once (0 = unbounded)")
	campaignWorkers := fs.Int("campaign-workers", 2, "campaign points computing at once")
	campaignRetries := fs.Int("campaign-retries", 1, "retries per failed campaign point")
	warm := fs.Bool("warm", false, "warm every experiment before accepting traffic")
	warmExit := fs.Bool("warm-exit", false, "with -warm: exit after warming instead of serving")
	storeDir := fs.String("store-dir", "", "persist results and calibrations in this directory; empty disables")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "evict oldest store entries past this many bytes (0 = unbounded)")
	storeProbeInterval := fs.Duration("store-probe-interval", 0, "while the store is degraded, admit one recovery probe write per interval (0 = 15s default)")
	peers := fs.String("peers", "", "comma-separated replica base URLs to probe on local store miss (requires -store-dir)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables")
	rateLimit := fs.Float64("rate-limit", 0, "per-client request budget in req/s (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-client burst on top of -rate-limit (0 = 2x the rate)")
	trustedProxies := fs.Int("trusted-proxies", 0, "trusted reverse proxies in front of the daemon; >0 keys clients by X-Forwarded-For")
	logRequests := fs.Bool("log-requests", false, "log every request as structured JSON on stderr")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "time allowed to read a request's headers (slowloris guard)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "time allowed to read a full request")
	writeTimeout := fs.Duration("write-timeout", 10*time.Minute, "time allowed to write a response (covers cold heavy-figure fills)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *peers != "" && *storeDir == "" {
		fmt.Fprintln(stderr, "-peers requires -store-dir (peer fetches persist locally)")
		return 2
	}
	if *warmExit && !*warm {
		fmt.Fprintln(stderr, "-warm-exit requires -warm")
		return 2
	}

	// Profiling side listener: kept off the serving mux so the debug
	// surface is never exposed on the public address, and bound before
	// warm-up so cold computations can be profiled too.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "pprof listen: %v\n", err)
			return 1
		}
		defer pln.Close()
		go func() {
			if err := http.Serve(pln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(stderr, "pprof serve: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof listening on %s\n", pln.Addr())
	}

	opts := []tensortee.RunnerOption{
		tensortee.WithParallelism(*parallel),
	}
	if *storeDir != "" {
		// TENSORTEE_FAULTS is the chaos-testing hook: a deterministic
		// fault plan injected into the store's I/O. Never a production
		// setting, hence the loud warning.
		faults, err := faultinject.FromEnv()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", faultinject.EnvVar, err)
			return 2
		}
		if faults.Enabled() {
			fmt.Fprintf(stderr, "WARNING: %s=%q — injecting store faults; NEVER set this in production\n",
				faultinject.EnvVar, faults.String())
		}
		st, err := store.Open(*storeDir, store.Options{
			MaxBytes:      *storeMaxBytes,
			Peers:         splitPeers(*peers),
			ProbeInterval: *storeProbeInterval,
			Faults:        faults,
		})
		if err != nil {
			fmt.Fprintf(stderr, "opening store: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "store: %s (build %s)\n", st.Dir(), store.BuildTag())
		opts = append(opts, tensortee.WithStore(st))
	}
	runner := tensortee.NewRunner(opts...)
	cfg := server.Config{
		Runner:                 runner,
		MaxConcurrent:          *maxConcurrent,
		MaxConcurrentScenarios: *maxScenarios,
		RateLimit:              *rateLimit,
		RateBurst:              *rateBurst,
		TrustedProxies:         *trustedProxies,
		CampaignWorkers:        *campaignWorkers,
		CampaignRetries:        *campaignRetries,
	}
	if *logRequests {
		cfg.Log = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	srv := server.New(cfg)

	// Crash recovery: campaigns interrupted by a previous process (crash,
	// SIGKILL, deploy) restart from their checkpoints before traffic is
	// accepted — completed points restore from the store, only the rest
	// compute.
	if *storeDir != "" {
		if n, err := srv.Campaigns().ResumeStored(); err != nil {
			fmt.Fprintf(stderr, "campaign resume: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(stdout, "campaigns: resumed %d\n", n)
		}
	}

	if *warm {
		fmt.Fprintln(stdout, "warming: filling the result cache...")
		start := time.Now()
		fromStore, computed, err := runner.WarmAll(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "warm failed: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "warm done in %v: %d warmed from disk, %d computed\n",
			time.Since(start).Round(time.Millisecond), fromStore, computed)
		if *warmExit {
			return 0
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "listen: %v\n", err)
		return 1
	}
	// Request contexts deliberately do NOT descend from the signal context:
	// a SIGTERM must stop the listener and let in-flight requests finish
	// (Shutdown below), not cancel them mid-computation. The write timeout
	// must outlast a cold heavy-figure fill — a response that dies mid-body
	// looks like a compute failure to the client.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "tensorteed listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "signal received, draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "drain incomplete: %v\n", err)
			return 1
		}
		// Campaign workers drain inside the same budget: dispatch stops,
		// in-flight points finish and checkpoint. Whatever does not finish
		// is simply recomputed on the next start — an incomplete drain is
		// worth reporting but is not data loss.
		if err := srv.Campaigns().Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "campaign drain incomplete: %v\n", err)
		}
		fmt.Fprintln(stdout, "drained, bye")
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		return 0
	}
}
