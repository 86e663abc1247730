package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

// PredictionResult is the Figure 10/11 experiment: SMiTe versus the PMU
// baseline on SPEC train/test splits.
type PredictionResult struct {
	Title     string
	Placement profile.Placement
	// Smite is the trained Equation 3 model (coefficients are themselves a
	// result: they weigh the sharing dimensions).
	Smite model.Smite
	// SmiteEval and PMUEval carry overall and per-victim mean absolute
	// errors on the testing set.
	SmiteEval, PMUEval model.Evaluation
	// TrainSmiteErr/TrainPMUErr are training-set errors (sanity numbers).
	TrainSmiteErr, TrainPMUErr float64
	// MeasuredPerApp is each test victim's mean measured degradation (the
	// "Measured" bars of the figures).
	MeasuredPerApp map[string]float64
}

// Fig10SpecSMTContext reproduces Figure 10: SMT co-location prediction on
// SPEC (even-numbered train, odd-numbered test, Ivy Bridge).
func (l *Lab) Fig10SpecSMTContext(ctx context.Context) (PredictionResult, error) {
	return l.specPrediction(ctx, profile.SMT, "Figure 10: SMT co-location prediction accuracy (SPEC CPU2006)")
}

// Fig11SpecCMPContext reproduces Figure 11: the same protocol under CMP
// placement.
func (l *Lab) Fig11SpecCMPContext(ctx context.Context) (PredictionResult, error) {
	return l.specPrediction(ctx, profile.CMP, "Figure 11: CMP co-location prediction accuracy (SPEC CPU2006)")
}

func (l *Lab) specPrediction(ctx context.Context, placement profile.Placement, title string) (PredictionResult, error) {
	trainObs, testObs, err := l.specSplit(ctx, IvyBridge, placement)
	if err != nil {
		return PredictionResult{}, err
	}
	smite, pmuM, err := trainModels(trainObs)
	if err != nil {
		return PredictionResult{}, err
	}
	res := PredictionResult{
		Title:          title,
		Placement:      placement,
		Smite:          smite,
		SmiteEval:      model.Evaluate(smite, testObs),
		PMUEval:        model.Evaluate(pmuM, testObs),
		TrainSmiteErr:  model.Evaluate(smite, trainObs).MeanAbsError,
		TrainPMUErr:    model.Evaluate(pmuM, trainObs).MeanAbsError,
		MeasuredPerApp: make(map[string]float64),
	}
	counts := make(map[string]int)
	for _, o := range testObs {
		res.MeasuredPerApp[o.A] += o.Deg
		counts[o.A]++
	}
	for a, s := range res.MeasuredPerApp {
		res.MeasuredPerApp[a] = s / float64(counts[a])
	}
	return res, nil
}

// specSplit is the Section IV-B1 SPEC protocol on one machine: both SPEC
// halves are characterized together, even-numbered pairs become the
// training observations and odd-numbered pairs the testing ones.
func (l *Lab) specSplit(ctx context.Context, m Machine, placement profile.Placement) (train, test []model.PairObs, err error) {
	even := l.specSet(workload.EvenSPEC())
	odd := l.specSet(workload.OddSPEC())
	chars, err := l.Profiler(m).CharacterizeAllContext(ctx, append(append([]*workload.Spec{}, even...), odd...), placement)
	if err != nil {
		return nil, nil, err
	}
	if train, err = l.observe(ctx, m, placement, chars, even); err != nil {
		return nil, nil, err
	}
	test, err = l.observe(ctx, m, placement, chars, odd)
	return train, test, err
}

// observe measures every distinct pair within apps on a machine and joins
// the measurements with the apps' characterizations into Equation 3
// observations.
func (l *Lab) observe(ctx context.Context, m Machine, placement profile.Placement, chars []profile.Characterization, apps []*workload.Spec) ([]model.PairObs, error) {
	pairs, err := l.Profiler(m).MeasurePairsContext(ctx, apps, apps, placement)
	if err != nil {
		return nil, err
	}
	return model.BuildObservations(chars, pairs)
}

// trainModels fits the two models every prediction figure compares: SMiTe's
// Equation 3 (non-negative least squares) and the Equation 9 PMU baseline.
func trainModels(obs []model.PairObs) (model.Smite, model.PMULinear, error) {
	smite, err := model.TrainSmiteNNLS(obs)
	if err != nil {
		return model.Smite{}, model.PMULinear{}, err
	}
	pmuM, err := model.TrainPMULinear(obs)
	return smite, pmuM, err
}

// String renders the per-application bars of the figure.
func (r PredictionResult) String() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	t := newTable("application", "measured deg", "SMiTe error", "PMU error")
	apps := make([]string, 0, len(r.MeasuredPerApp))
	for a := range r.MeasuredPerApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		t.row(a, pct(r.MeasuredPerApp[a]), pct(r.SmiteEval.PerApp[a]), pct(r.PMUEval.PerApp[a]))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "average: SMiTe %s, PMU %s (train: %s / %s)\n",
		pct(r.SmiteEval.MeanAbsError), pct(r.PMUEval.MeanAbsError), pct(r.TrainSmiteErr), pct(r.TrainPMUErr))
	if r.Placement == profile.SMT {
		b.WriteString("paper: SMiTe 2.80%, PMU 13.55%\n")
	} else {
		b.WriteString("paper: SMiTe 2.80%, PMU 9.43%\n")
	}
	return b.String()
}

// cloudEntry is one CloudSuite co-location cell.
type cloudEntry struct {
	lat, batch string
	n          int
	actual     float64
	predicted  float64
	pmuPred    float64
}

// cloudStudy holds the CloudSuite co-location measurements and predictions
// shared by Figures 12 and 13 and the scale-out studies.
type cloudStudy struct {
	placementTables map[profile.Placement][]cloudEntry
	latApps         []string
	batchApps       []string
	services        map[string]service.Service
	// maxInstances per placement.
	maxInstances map[profile.Placement]int
}

// buildCloudStudy builds the CloudSuite study: models are trained on
// odd-numbered SPEC pairs on the Sandy Bridge-EN machine, then every
// (latency app, even-SPEC batch app, instance count) co-location is
// measured and predicted under each requested placement (paper Section
// IV-B2); placementTables holds only those. Each caller rebuilds it for
// the placements it reads; the simulations behind it come from the run
// cache.
func (l *Lab) buildCloudStudy(ctx context.Context, placements ...profile.Placement) (*cloudStudy, error) {
	threads := l.cloudThreads()
	cloudApps := l.cloudSet()
	// Paper protocol for CloudSuite: odd SPEC trains, even SPEC are the
	// co-located batch applications.
	train := l.specSet(workload.OddSPEC())
	batch := l.specSet(workload.EvenSPEC())

	cs := &cloudStudy{
		placementTables: make(map[profile.Placement][]cloudEntry),
		services:        make(map[string]service.Service),
		maxInstances: map[profile.Placement]int{
			profile.SMT: threads,
			profile.CMP: l.SNB.Cores / 2,
		},
	}
	for _, c := range cloudApps {
		cs.latApps = append(cs.latApps, c.Name)
		if c.LatencySensitive() {
			svc, err := service.FromSpec(c)
			if err != nil {
				return nil, err
			}
			cs.services[c.Name] = svc
		}
	}
	for _, b := range batch {
		cs.batchApps = append(cs.batchApps, b.Name)
	}

	p := l.Profiler(SandyBridgeEN)
	for _, placement := range placements {
		allApps := append(append([]*workload.Spec{}, train...), batch...)
		allApps = append(allApps, cloudApps...)
		chars, err := p.CharacterizeAllContext(ctx, allApps, placement)
		if err != nil {
			return nil, err
		}
		charBy := make(map[string]profile.Characterization, len(chars))
		for _, c := range chars {
			charBy[c.App] = c
		}
		trainObs, err := l.observe(ctx, SandyBridgeEN, placement, chars, train)
		if err != nil {
			return nil, err
		}
		smite, pmuM, err := trainModels(trainObs)
		if err != nil {
			return nil, err
		}

		latThreads := threads
		if placement == profile.CMP {
			latThreads = l.SNB.Cores / 2
		}
		maxN := cs.maxInstances[placement]

		// Partial-occupancy sensitivities: Sen(n) per latency app and
		// instance count, measured with n Ruler instances (paper-style
		// Ruler-only profiling; no batch cross-product).
		latJobs := make([]profile.Job, len(cloudApps))
		for i, latSpec := range cloudApps {
			latJobs[i] = profile.AppThreads(latSpec, latThreads)
		}
		occ, err := p.CharacterizeOccupancyContext(ctx, latJobs, placement, maxN)
		if err != nil {
			return nil, err
		}
		senByCount := make(map[string][]profile.Characterization, len(cloudApps)) // app → index n-1
		for i, latSpec := range cloudApps {
			senByCount[latSpec.Name] = occ[i]
		}
		var entries []cloudEntry
		for _, latSpec := range cloudApps {
			for _, bspec := range batch {
				for n := 1; n <= maxN; n++ {
					entries = append(entries, cloudEntry{lat: latSpec.Name, batch: bspec.Name, n: n})
				}
			}
		}
		err = sched.Map(ctx, len(entries), l.workers(), func(ctx context.Context, i int) error {
			e := &entries[i]
			latSpec, err := workload.ByName(e.lat)
			if err != nil {
				return err
			}
			bspec, err := workload.ByName(e.batch)
			if err != nil {
				return err
			}
			latJob := profile.AppThreads(latSpec, latThreads)
			pm, err := p.MeasureJobsContext(ctx, latJob, profile.AppThreads(bspec, e.n), placement)
			if err != nil {
				return err
			}
			e.actual = pm.DegA
			// SMiTe prediction uses the partial-occupancy sensitivity
			// Sen(n) with the occupancy-scaled intercept; the formula
			// lives in model.Smite.PredictPartial so the qosd serving
			// daemon evaluates the exact same expression.
			obs := model.PairObs{
				SenA: senByCount[e.lat][e.n-1].Sen, ConB: charBy[e.batch].Con,
				PMUA: charBy[e.lat].SoloPMU.Features(), PMUB: charBy[e.batch].SoloPMU.Features(),
			}
			e.predicted = smite.PredictPartial(obs, e.n, latThreads)
			// The PMU baseline has no per-occupancy feature; scale by
			// occupancy as the strongest simple extension.
			e.pmuPred = float64(e.n) / float64(latThreads) * pmuM.Predict(obs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		cs.placementTables[placement] = entries
	}
	return cs, nil
}

// Fig12Result is the CloudSuite prediction experiment.
type Fig12Result struct {
	// PerPlacement holds one row set per placement.
	PerPlacement map[profile.Placement]Fig12Placement
}

// Fig12Placement is one placement's rows.
type Fig12Placement struct {
	Rows []Fig12Row
	// SmiteErr and PMUErr are averaged over all cells.
	SmiteErr, PMUErr float64
}

// Fig12Row is one latency application's bars: measured min/avg/max over
// batch apps × instance counts, plus model errors.
type Fig12Row struct {
	App                                   string
	MeasuredMin, MeasuredAvg, MeasuredMax float64
	SmiteErr, PMUErr                      float64
}

// Fig12CloudSuiteContext reproduces Figure 12: prediction accuracy for the
// CloudSuite latency-sensitive applications under SMT and CMP co-location
// with SPEC batch applications on the Sandy Bridge-EN machine.
func (l *Lab) Fig12CloudSuiteContext(ctx context.Context) (Fig12Result, error) {
	cs, err := l.buildCloudStudy(ctx, profile.SMT, profile.CMP)
	if err != nil {
		return Fig12Result{}, err
	}
	out := Fig12Result{PerPlacement: make(map[profile.Placement]Fig12Placement)}
	for placement, entries := range cs.placementTables {
		perApp := make(map[string][]cloudEntry)
		for _, e := range entries {
			perApp[e.lat] = append(perApp[e.lat], e)
		}
		var fp Fig12Placement
		var totalS, totalP float64
		for _, lat := range cs.latApps {
			es := perApp[lat]
			row := Fig12Row{App: lat, MeasuredMin: 1e9, MeasuredMax: -1e9}
			for _, e := range es {
				row.MeasuredAvg += e.actual
				if e.actual < row.MeasuredMin {
					row.MeasuredMin = e.actual
				}
				if e.actual > row.MeasuredMax {
					row.MeasuredMax = e.actual
				}
				row.SmiteErr += math.Abs(e.predicted - e.actual)
				row.PMUErr += math.Abs(e.pmuPred - e.actual)
			}
			n := float64(len(es))
			row.MeasuredAvg /= n
			row.SmiteErr /= n
			row.PMUErr /= n
			totalS += row.SmiteErr
			totalP += row.PMUErr
			fp.Rows = append(fp.Rows, row)
		}
		fp.SmiteErr = totalS / float64(len(fp.Rows))
		fp.PMUErr = totalP / float64(len(fp.Rows))
		out.PerPlacement[placement] = fp
	}
	return out, nil
}

// String renders the figure's rows.
func (r Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: CloudSuite co-location prediction accuracy\n")
	for _, placement := range []profile.Placement{profile.SMT, profile.CMP} {
		fp, ok := r.PerPlacement[placement]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s co-location:\n", placement)
		t := newTable("application", "measured min/avg/max", "SMiTe error", "PMU error")
		for _, row := range fp.Rows {
			t.row(row.App,
				fmt.Sprintf("%s / %s / %s", pct(row.MeasuredMin), pct(row.MeasuredAvg), pct(row.MeasuredMax)),
				pct(row.SmiteErr), pct(row.PMUErr))
		}
		b.WriteString(t.String())
		fmt.Fprintf(&b, "average: SMiTe %s, PMU %s\n", pct(fp.SmiteErr), pct(fp.PMUErr))
	}
	b.WriteString("paper: SMT SMiTe 1.79% vs PMU 17.45%; CMP SMiTe 1.36% vs PMU 27.01%\n")
	return b.String()
}
