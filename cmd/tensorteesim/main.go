// Command tensorteesim regenerates the tables and figures of the TensorTEE
// paper's evaluation (Section 6) from the simulators in this repository.
//
// Usage:
//
//	tensorteesim -list                      list experiment ids
//	tensorteesim -exp fig16                 regenerate one experiment
//	tensorteesim -exp all                   regenerate everything
//	tensorteesim -exp all -parallel 4       ... on 4 workers, shared calibration
//	tensorteesim -exp all -store-dir DIR    ... persisting (and reusing) results on disk
//	tensorteesim -exp fig16 -json           emit typed JSON
//	tensorteesim -scenario spec.json        run a declarative custom scenario
//	tensorteesim -scenario -                ... reading the spec from stdin
//	tensorteesim -campaign spec.json        run a multi-axis campaign to completion
//	tensorteesim -campaign - -store-dir DIR ... checkpointed: rerun resumes, not recomputes
//	tensorteesim -step GPT2-M               simulate one training step on all systems
//	tensorteesim -models                    list workload models
//
// A scenario spec names a workload model (zoo name or custom dims), a set
// of systems with Table-1 overrides, a metric set, and an optional sweep
// axis — see the "Custom scenarios" section of EXPERIMENTS.md and
// examples/scenario for the JSON shape.
//
// A campaign spec is a base scenario plus axes to cross (see the
// "Campaigns" section of EXPERIMENTS.md). -campaign runs the whole grid
// on -parallel workers, streams per-point progress to stderr, prints the
// final status as JSON on stdout, and exits 1 if any point failed. With
// -store-dir each completed point checkpoints to disk, so an interrupted
// run picks up where it left off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"tensortee"
	"tensortee/internal/campaign"
	"tensortee/internal/faultinject"
	"tensortee/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of main: parse args, dispatch, and return the
// process exit code. All I/O goes through stdin/stdout/stderr so tests
// can drive it.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tensorteesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids and exit")
	exp := fs.String("exp", "", "experiment id to regenerate (or 'all')")
	scenarioPath := fs.String("scenario", "", "run a custom scenario from a JSON spec file ('-' = stdin)")
	campaignPath := fs.String("campaign", "", "run a multi-axis campaign from a JSON spec file ('-' = stdin)")
	step := fs.String("step", "", "simulate one training step for the named model")
	models := fs.Bool("models", false, "list workload models and exit")
	jsonOut := fs.Bool("json", false, "emit experiment results as JSON")
	parallel := fs.Int("parallel", 1, "experiments to run concurrently (0 = GOMAXPROCS)")
	storeDir := fs.String("store-dir", "", "persist results and calibrations in this directory; reuse anything already there")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := []tensortee.RunnerOption{
		tensortee.WithParallelism(*parallel),
	}
	if *storeDir != "" {
		// Same chaos hook as tensorteed: a fault plan in TENSORTEE_FAULTS
		// injects deterministic store failures (testing only).
		faults, err := faultinject.FromEnv()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", faultinject.EnvVar, err)
			return 2
		}
		if faults.Enabled() {
			fmt.Fprintf(stderr, "WARNING: %s=%q — injecting store faults; NEVER set this in production\n",
				faultinject.EnvVar, faults.String())
		}
		st, err := store.Open(*storeDir, store.Options{Faults: faults})
		if err != nil {
			fmt.Fprintf(stderr, "opening store: %v\n", err)
			return 1
		}
		opts = append(opts, tensortee.WithStore(st))
	}
	runner := tensortee.NewRunner(opts...)

	switch {
	case *list:
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range tensortee.Experiments() {
			fmt.Fprintf(stdout, "  %-6s %-13s %s\n", e.ID, e.Artifact, e.About)
		}
	case *models:
		for _, name := range tensortee.ModelNames() {
			m, _ := tensortee.Model(name)
			fmt.Fprintf(stdout, "%-12s %-6s batch=%-3d layers=%-3d hidden=%-5d tensors=%d\n",
				m.Name, m.ParamsLabel, m.BatchSize, m.Layers, m.Hidden, m.TensorCount)
		}
	case *exp == "all":
		start := time.Now()
		results, err := runAllResults(ctx, runner, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *jsonOut {
			// One JSON document (an array), not a concatenated stream.
			out, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			stdout.Write(append(out, '\n'))
		} else {
			for _, res := range results {
				if err := emit(stdout, stderr, res, false); err != nil {
					return 1
				}
			}
		}
		fmt.Fprintf(stderr, "[%d experiments regenerated in %v, parallelism %d]\n",
			len(results), time.Since(start).Round(time.Millisecond), *parallel)
	case *exp != "":
		// With a store attached, Cached consults disk (and peers) before
		// computing and persists whatever it does compute; without one it
		// degenerates to a plain run.
		res, err := runner.Cached(ctx, *exp)
		if err != nil {
			fmt.Fprintln(stderr, fmt.Errorf("experiment %s: %w", *exp, err))
			return 1
		}
		if err := emit(stdout, stderr, res, *jsonOut); err != nil {
			return 1
		}
	case *scenarioPath != "":
		res, err := runScenario(ctx, runner, *scenarioPath, stdin)
		if err != nil {
			fmt.Fprintln(stderr, fmt.Errorf("scenario: %w", err))
			return 1
		}
		if err := emit(stdout, stderr, res, *jsonOut); err != nil {
			return 1
		}
	case *campaignPath != "":
		code, err := runCampaign(ctx, runner, *campaignPath, stdin, stdout, stderr, *parallel)
		if err != nil {
			fmt.Fprintln(stderr, fmt.Errorf("campaign: %w", err))
			return 1
		}
		return code
	case *step != "":
		if err := runStep(stdout, *step); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// runAllResults regenerates every experiment. Without a store this is a
// plain RunAll; with one, the warm pass serves whatever is already on
// disk and a summary of the warmed/computed split goes to stderr.
func runAllResults(ctx context.Context, runner *tensortee.Runner, stderr io.Writer) ([]*tensortee.Result, error) {
	if runner.Store() == nil {
		return runner.RunAll(ctx)
	}
	fromStore, computed, err := runner.WarmAll(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "[store: %d warmed from disk, %d computed]\n", fromStore, computed)
	ids := tensortee.ExperimentIDs()
	results := make([]*tensortee.Result, len(ids))
	for i, id := range ids {
		if results[i], err = runner.Cached(ctx, id); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func emit(stdout, stderr io.Writer, res *tensortee.Result, jsonOut bool) error {
	if jsonOut {
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return err
		}
		stdout.Write(append(out, '\n'))
		return nil
	}
	fmt.Fprint(stdout, res.Text())
	fmt.Fprintf(stdout, "[%s regenerated in %v]\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
	return nil
}

// runScenario decodes a spec from the file (or stdin with "-") and runs
// it through the shared Runner, so registry experiments and scenarios in
// one invocation share calibrated systems.
func runScenario(ctx context.Context, runner *tensortee.Runner, path string, stdin io.Reader) (*tensortee.Result, error) {
	src := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	var spec tensortee.Scenario
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	return runner.RunScenario(ctx, spec)
}

// runCampaign decodes a campaign spec (base scenario + axes), runs the
// whole grid through an in-process campaign manager sharing the Runner's
// calibration cache and store, streams per-point progress to stderr, and
// prints the final status as JSON on stdout. The returned exit code is 1
// when any point failed or the run was interrupted. Ctrl-C cancels:
// in-flight points drain and checkpoint, the rest are skipped, and with
// -store-dir a rerun resumes from the checkpoints.
func runCampaign(ctx context.Context, runner *tensortee.Runner, path string, stdin io.Reader, stdout, stderr io.Writer, parallel int) (int, error) {
	src := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		src = f
	}
	var spec campaign.Spec
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return 1, fmt.Errorf("decoding spec: %w", err)
	}
	mgr := campaign.NewManager(campaign.Config{
		Run: func(ctx context.Context, s tensortee.Scenario) ([]byte, error) {
			res, _, err := runner.RunScenarioCached(ctx, s)
			if err != nil {
				return nil, err
			}
			return res.EncodeStored()
		},
		Measure: func(payload []byte) (campaign.Measurement, error) {
			sp, total, err := tensortee.StoredMeasurement(payload)
			if err != nil {
				return campaign.Measurement{}, err
			}
			return campaign.Measurement{Speedup: sp, TotalSeconds: total}, nil
		},
		Store:   runner.Store(),
		Workers: parallel,
		Retries: 1,
	})
	defer mgr.Shutdown(context.Background())

	st, _, err := mgr.Start(spec)
	if err != nil {
		return 1, err
	}
	ch, detach, err := mgr.Subscribe(st.ID)
	if err != nil {
		return 1, err
	}
	defer detach()
	if s := spec.Search; s != nil {
		fmt.Fprintf(stderr, "[campaign %s: %s search over a %d-point domain, %d restored from store]\n", st.ID, s.Mode, st.Total, st.Restored)
	} else {
		fmt.Fprintf(stderr, "[campaign %s: %d points, %d restored from store]\n", st.ID, st.Total, st.Restored)
	}

	interrupted := false
	for {
		select {
		case <-ctx.Done():
			if !interrupted {
				interrupted = true
				fmt.Fprintln(stderr, "[interrupt: draining in-flight points...]")
				if _, err := mgr.Cancel(st.ID); err != nil {
					return 1, err
				}
			}
			ctx = context.Background() // keep draining the event stream
		case ev, open := <-ch:
			if !open {
				final, ok := mgr.Status(st.ID)
				if !ok {
					return 1, fmt.Errorf("campaign %s vanished", st.ID)
				}
				out, err := json.MarshalIndent(final, "", "  ")
				if err != nil {
					return 1, err
				}
				stdout.Write(append(out, '\n'))
				if final.Failed > 0 || final.State == campaign.StateCancelled {
					return 1, nil
				}
				return 0, nil
			}
			if ev.Type == campaign.EventPoint {
				line := fmt.Sprintf("[%d/%d %s %s]", ev.Done, ev.Total, ev.State, ev.Point)
				if ev.Error != "" {
					line += " " + ev.Error
				}
				if b := ev.BestSoFar; b != nil {
					line += fmt.Sprintf(" best=%s (objective=%.4g cost=%g)", b.Point, b.Objective, b.Cost)
				}
				fmt.Fprintln(stderr, line)
			}
		}
	}
}

func runStep(stdout io.Writer, model string) error {
	fmt.Fprintf(stdout, "one ZeRO-Offload training step of %s:\n\n", model)
	for _, kind := range []tensortee.Kind{tensortee.NonSecure, tensortee.BaselineSGXMGX, tensortee.TensorTEE} {
		sys, err := tensortee.NewSystem(kind)
		if err != nil {
			return err
		}
		b, err := sys.TrainStep(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-12s total=%-10v npu=%v cpu=%v commW=%v commG=%v\n",
			kind, b.Total.Round(time.Millisecond),
			b.NPU.Round(time.Millisecond), b.CPU.Round(time.Millisecond),
			b.CommWeights.Round(time.Millisecond), b.CommGrads.Round(time.Millisecond))
	}
	return nil
}
