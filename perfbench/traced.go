package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// profileLayers are the simulator packages whose flat CPU share the traced
// run reports.
var profileLayers = []string{"cpusim", "cache", "mee", "dram", "tenanalyzer", "trace"}

// tracedPass is every workload's --trace 1 run: the workload's pass once
// untraced as the baseline, once with spans and a CPU profile, then the
// per-layer drivers. pass returns a cost (lower is better) that the two
// runs compare as the tracing overhead.
func tracedPass(ctx context.Context, rc *runConfig, rep *report, pass func(tr *tracer, parent int) (float64, error)) error {
	base, err := pass(nil, 0)
	if err != nil {
		return err
	}
	prof := filepath.Join(rc.out, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	root := rc.tr.begin("pass."+rc.workload, 0)
	traced, err := pass(rc.tr, root)
	rc.tr.end(root, "")
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.set("tracing.overhead_pct", 100*(traced/base-1), "%")
	if err := reportProfile(ctx, rc, rep, prof); err != nil {
		return err
	}
	return runLadder(ctx, rc, rep)
}

// reportProfile splits the traced pass's CPU profile by package with the
// toolchain's `go tool pprof -top` and reports each simulator layer's flat
// share. The raw listing and the full split stay in the output directory.
func reportProfile(ctx context.Context, rc *runConfig, rep *report, prof string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("profile split needs the go command: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", exe, prof).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(filepath.Join(rc.out, "pprof_top.txt"), out, 0o644); err != nil {
		return err
	}
	shares := packageShares(string(out))
	pkgs := make([]string, 0, len(shares))
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "# flat CPU share by package, %s traced pass (%s)\n", rc.workload, environment(rc))
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%-28s %6.2f%%\n", p, shares[p])
	}
	if err := os.WriteFile(filepath.Join(rc.out, "cpu_split.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	for _, l := range profileLayers {
		rep.set(l+".cpu_share", shares["internal/"+l], "%")
	}
	return nil
}

// packageShares sums the flat% column of a `pprof -top` listing by
// package: tensortee/internal/<pkg> as "internal/<pkg>", the rest of the
// module as "tensortee", everything else (runtime, net/http, ...) by its
// import path.
func packageShares(top string) map[string]float64 {
	shares := make(map[string]float64)
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[funcPackage(f[5])] += pct
	}
	return shares
}

// funcPackage maps a symbol such as tensortee/internal/cpusim.(*Sim).Run
// to its package key.
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	pkg := sym
	if dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "tensortee/"); ok {
		if strings.HasPrefix(rest, "internal/") {
			return rest
		}
		return "tensortee"
	}
	return pkg
}
