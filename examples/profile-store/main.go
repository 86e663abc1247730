// Profile store: the paper's deployment model (Section III-D) has every
// application characterized once and its profile kept by the cluster
// scheduler, which then makes placement decisions *offline* — no further
// profiling. This example characterizes a few applications, persists the
// profiles and the trained model as JSON, then reloads them in a fresh
// "scheduler process" and answers placement queries without touching the
// machine again.
//
// Run with:
//
//	go run ./examples/profile-store
//
// With -dir the store is also written to <dir>/profiles.json and
// <dir>/model.json — the files cmd/smited serves from:
//
//	go run ./examples/profile-store -dir /tmp/store
//	go run ./cmd/smited -profiles /tmp/store/profiles.json -model /tmp/store/model.json
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/smite"
)

func main() {
	dir := flag.String("dir", "", "also write profiles.json and model.json into this directory")
	flag.Parse()
	ctx := context.Background()

	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		log.Fatal(err)
	}

	// --- Profiling pass (runs on the machine, once per application) ---
	names := []string{"web-search", "456.hmmer", "470.lbm", "429.mcf"}
	var apps []*smite.Spec
	for _, n := range names {
		s, err := smite.WorkloadByName(n)
		if err != nil {
			log.Fatal(err)
		}
		apps = append(apps, s)
	}
	fmt.Println("profiling pass: characterizing", len(apps), "applications...")
	chars, err := sys.CharacterizeAllContext(ctx, apps, smite.SMT)
	if err != nil {
		log.Fatal(err)
	}
	train, _ := smite.TrainTestSplit()
	model, _, err := sys.TrainFromSetsContext(ctx, train[:8], smite.SMT)
	if err != nil {
		log.Fatal(err)
	}

	// Persist everything the scheduler will ever need.
	var profileDB, modelDB bytes.Buffer
	if err := smite.SaveProfiles(&profileDB, chars); err != nil {
		log.Fatal(err)
	}
	if err := smite.SaveModel(&modelDB, model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d profiles (%d bytes) and the model (%d bytes)\n\n",
		len(chars), profileDB.Len(), modelDB.Len())

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			log.Fatal(err)
		}
		pPath := filepath.Join(*dir, "profiles.json")
		mPath := filepath.Join(*dir, "model.json")
		if err := os.WriteFile(pPath, profileDB.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(mPath, modelDB.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s and %s (serve them with cmd/smited)\n\n", pPath, mPath)
	}

	// --- Scheduler process (no machine access, pure lookups) ---
	loadedChars, err := smite.LoadProfiles(&profileDB)
	if err != nil {
		log.Fatal(err)
	}
	loadedModel, err := smite.LoadModel(&modelDB)
	if err != nil {
		log.Fatal(err)
	}
	byName := make(map[string]smite.Characterization)
	for _, c := range loadedChars {
		byName[c.App] = c
	}

	service := byName["web-search"]
	fmt.Println("scheduler decisions for web-search (QoS target 95%):")
	for _, cand := range []string{"456.hmmer", "470.lbm", "429.mcf"} {
		deg := loadedModel.PredictPair(service, byName[cand])
		verdict := "reject"
		if loadedModel.SafeColocation(service, byName[cand], 0.95) {
			verdict = "place"
		}
		fmt.Printf("  %-12s predicted %6.2f%% degradation -> %s\n", cand, deg*100, verdict)
	}
}
