// Colocation advisor: the workload the paper's introduction motivates — a
// cluster operator must fill the idle SMT contexts next to a
// latency-sensitive service without violating its QoS. The advisor
// characterizes the service and every batch candidate once, trains the
// SMiTe model, and ranks the candidates by predicted interference.
//
// Run with:
//
//	go run ./examples/colocation-advisor
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/smite"
)

func main() {
	const qosTarget = 0.90 // the service must keep 90% of its performance
	ctx := context.Background()

	// The latency-sensitive service runs on the 6-core Sandy Bridge-EN
	// fleet, half-loaded: one thread per core, siblings idle.
	cfg := smite.SandyBridgeEN.Config()
	cfg.Cores = 4 // trimmed for example runtime
	sys, err := smite.New(cfg, smite.WithOptions(smite.FastOptions()))
	if err != nil {
		log.Fatal(err)
	}

	websearch, err := smite.WorkloadByName("web-search")
	if err != nil {
		log.Fatal(err)
	}

	// Batch candidates: a slice of the SPEC suite.
	candidateNames := []string{
		"456.hmmer", "470.lbm", "429.mcf", "444.namd",
		"403.gcc", "462.libquantum", "454.calculix", "473.astar",
	}
	var candidates []*smite.Spec
	for _, n := range candidateNames {
		s, err := smite.WorkloadByName(n)
		if err != nil {
			log.Fatal(err)
		}
		candidates = append(candidates, s)
	}

	// Train once on a disjoint set (the paper's odd-numbered protocol,
	// truncated for speed).
	_, train := smite.TrainTestSplit()
	m, _, err := sys.TrainFromSetsContext(ctx, train[:8], smite.SMT)
	if err != nil {
		log.Fatal(err)
	}

	// One characterization per application — this is the whole profiling
	// cost of admitting a new batch workload to the cluster.
	fmt.Println("characterizing the service and candidates...")
	chService, err := sys.CharacterizeContext(ctx, websearch, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	type ranked struct {
		name string
		deg  float64
	}
	var ranking []ranked
	for _, c := range candidates {
		ch, err := sys.CharacterizeContext(ctx, c, smite.SMT)
		if err != nil {
			log.Fatal(err)
		}
		ranking = append(ranking, ranked{c.Name, m.PredictPair(chService, ch)})
	}
	sort.Slice(ranking, func(i, j int) bool { return ranking[i].deg < ranking[j].deg })

	fmt.Printf("\npredicted interference on %s (QoS target %.0f%%):\n", websearch.Name, qosTarget*100)
	fmt.Printf("%-18s %-22s %s\n", "batch candidate", "predicted degradation", "verdict")
	for _, r := range ranking {
		verdict := "UNSAFE — keep on dedicated batch servers"
		if 1-r.deg >= qosTarget {
			verdict = "safe to co-locate"
		}
		fmt.Printf("%-18s %20.2f%%  %s\n", r.name, r.deg*100, verdict)
	}
}
