// Quickstart: characterize two applications with the Ruler suite, train
// the SMiTe model on a small application set, and compare its co-location
// prediction against the measured ground truth.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/smite"
)

func main() {
	ctx := context.Background()

	// A System is one simulated SMT machine plus the measurement harness.
	// FastOptions keeps this example snappy; use DefaultOptions for the
	// paper-scale windows.
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %s\n\n", sys.Machine().Name)

	// Pick a compute-dense victim and a memory-hungry aggressor.
	namd, err := smite.WorkloadByName("444.namd")
	if err != nil {
		log.Fatal(err)
	}
	mcf, err := smite.WorkloadByName("429.mcf")
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: characterize each application once. This is the only
	// profiling SMiTe ever needs per application — no cross-product.
	fmt.Println("characterizing with the Ruler suite...")
	chNamd, err := sys.CharacterizeContext(ctx, namd, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	chMcf, err := sys.CharacterizeContext(ctx, mcf, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	printProfile(chNamd)
	printProfile(chMcf)

	// Step 2: train the Equation 3 model on the paper's training set
	// (even-numbered SPEC benchmarks; truncated here for speed).
	train, _ := smite.TrainTestSplit()
	train = train[:8]
	fmt.Printf("training on %d applications (%d co-location measurements)...\n",
		len(train), len(train)*(len(train)-1)/2)
	m, _, err := sys.TrainFromSetsContext(ctx, train, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	coef, c0 := m.Coefficients()
	fmt.Printf("model coefficients: %v, c0=%.4f\n\n", coef, c0)

	// Step 3: predict both directions of the co-location, then verify
	// against an actual co-located run.
	predNamd := m.PredictPair(chNamd, chMcf)
	predMcf := m.PredictPair(chMcf, chNamd)
	actual, err := sys.MeasurePairContext(ctx, namd, mcf, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("co-location namd | mcf on sibling SMT contexts:")
	fmt.Printf("  %-10s predicted %6.2f%%  measured %6.2f%%\n", "namd:", predNamd*100, actual.DegA*100)
	fmt.Printf("  %-10s predicted %6.2f%%  measured %6.2f%%\n", "mcf:", predMcf*100, actual.DegB*100)
	for _, target := range []float64{0.95, 0.90} {
		fmt.Printf("  safe for namd at %.0f%% QoS? %v\n", target*100, m.SafeColocation(chNamd, chMcf, target))
	}
}

func printProfile(ch smite.Characterization) {
	fmt.Printf("%s (solo IPC %.2f):\n", ch.App, ch.SoloIPC)
	for d := smite.Dimension(0); d < smite.NumDimensions; d++ {
		fmt.Printf("  %-14s sen %6.2f%%  con %6.2f%%\n", d, ch.Sen[d]*100, ch.Con[d]*100)
	}
	fmt.Println()
}
