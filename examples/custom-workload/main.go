// Custom workload: SMiTe is not limited to the stock SPEC/CloudSuite
// models — any application expressible as an instruction-mix model can be
// characterized. This example defines a synthetic video-encoder-like
// workload, characterizes it on both Table I machines, and shows how its
// contention profile differs between SMT and CMP placements (on-core
// resources only matter for SMT).
//
// Run with:
//
//	go run ./examples/custom-workload
package main

import (
	"context"
	"fmt"
	"log"

	"repro/smite"
)

func main() {
	// A hypothetical SIMD-heavy encoder: FP multiply/add dense, moderate
	// working set with strong temporal locality, very predictable
	// branches.
	encoder := &smite.Spec{
		Name: "custom.encoder",
		Mix: smite.Mix{
			FPMul: 0.26, FPAdd: 0.24, FPShuf: 0.08,
			IntAdd: 0.10, Load: 0.22, Store: 0.06, Branch: 0.03, Nop: 0.01,
		},
		MeanDepDist: 10, Dep2Prob: 0.3, IndepFrac: 0.5, PointerChaseFrac: 0.05,
		FootprintBytes: 768 << 10, Pattern: smite.PatternMixed, StrideBytes: 16, RandomFrac: 0.3,
		HotBytes: 24 << 10, HotFrac: 0.5,
		WarmBytes: 256 << 10, WarmFrac: 0.3,
		BranchTags: 256, BranchBias: 0.97,
		ICacheMissRate: 0.001, ITLBMissRate: 0.0005,
	}
	if err := encoder.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	for _, machine := range []smite.Machine{smite.IvyBridge, smite.SandyBridgeEN} {
		cfg := machine.Config()
		cfg.Cores = 2 // example runtime
		sys, err := smite.New(cfg, smite.WithOptions(smite.FastOptions()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", cfg.Name)
		for _, placement := range []smite.Placement{smite.SMT, smite.CMP} {
			ch, err := sys.CharacterizeContext(ctx, encoder, placement)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%v placement (solo IPC %.2f):\n", placement, ch.SoloIPC)
			for d := smite.Dimension(0); d < smite.NumDimensions; d++ {
				bar := barOf(ch.Sen[d])
				fmt.Printf("  %-14s sen %6.2f%% %-12s con %6.2f%%\n", d, ch.Sen[d]*100, bar, ch.Con[d]*100)
			}
		}
		fmt.Println()
	}
	fmt.Println("under CMP placement the functional-unit and private-cache rows collapse")
	fmt.Println("to ~0: only the shared L3 and memory bandwidth remain contested.")
}

func barOf(v float64) string {
	n := int(v * 20)
	if n < 0 {
		n = 0
	}
	if n > 12 {
		n = 12
	}
	out := ""
	for i := 0; i < n; i++ {
		out += "#"
	}
	return out
}
