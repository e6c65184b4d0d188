// gemm demonstrates TenAnalyzer's tensor-structure detection on the
// Section 6.2 workload: a tiled matrix multiply whose 2D access pattern is
// reassembled by the Tensor Filter and the multi-direction entry merging of
// Figure 11. It prints the hit-rate evolution and the detected structure,
// then cross-checks against the public "gemm" experiment via the Runner.
package main

import (
	"context"
	"fmt"
	"log"

	"tensortee"
	"tensortee/internal/tenanalyzer"
	"tensortee/internal/trace"
)

func main() {
	store := tenanalyzer.NewArrayVNStore(0, 1<<22, 64)
	an := tenanalyzer.New(tenanalyzer.DefaultConfig(), store)

	// 256x256 fp32 matrix, 64x64 tiles (Section 6.2).
	mk := func() trace.Stream {
		return trace.GEMMStream(trace.GEMMConfig{
			Base: 0, Rows: 256, Cols: 256, TileRows: 64, TileCols: 64,
		})
	}

	for pass := 1; pass <= 3; pass++ {
		an.ResetStats()
		s := mk()
		for r, ok := s.NextRun(); ok; r, ok = s.NextRun() {
			for i := 0; i < r.Lines; i++ {
				an.Read(r.Addr + uint64(i)*r.Stride)
			}
		}
		st := an.Stats()
		fmt.Printf("pass %d: hit_in=%5.1f%% hit_boundary=%5.1f%% miss=%5.1f%%  (creations=%d merges=%d)\n",
			pass, st.HitInRate()*100, st.HitBoundaryRate()*100,
			100-100*st.HitAllRate(), st.Creations, st.Merges)
	}

	if e, ok := an.EntryAt(0); ok {
		fmt.Printf("\ndetected structure at 0x0: dims=%v (%d lines)\n", e.Dims, e.Lines())
		fmt.Println("paper: 98.8% hit_in after one full GEMM (Section 6.2)")
	}
	if err := an.CheckInvariant(); err != nil {
		fmt.Println("INVARIANT VIOLATION:", err)
	} else {
		fmt.Println("on-chip/off-chip VN invariant holds for every covered line")
	}

	// The same study through the public experiment harness: a typed Result
	// with the headline scalar, no output parsing.
	res, err := tensortee.NewRunner().Run(context.Background(), "gemm")
	if err != nil {
		log.Fatal(err)
	}
	hitIn, err := res.Scalar("hit_in")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull cpusim pipeline (%s): hit_in=%.1f%% in %v\n",
		res.ID, hitIn*100, res.Elapsed.Round(1e6))
}
