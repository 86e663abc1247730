package surrogate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// DefaultIntensities is the standard training grid: four duty cycles
// spanning light to full Ruler pressure. Four points over-determine the
// three-coefficient curves, so the recorded residuals are honest fit error
// rather than interpolation zeros.
var DefaultIntensities = []float64{0.25, 0.5, 0.75, 1.0}

// DefaultRidge is the Tikhonov damping applied to the curve fits — just
// enough to keep the tiny normal equations well-conditioned without
// visibly biasing coefficients.
const DefaultRidge = 1e-9

// FitOptions parameterize a fit.
type FitOptions struct {
	// Intensities is the training grid (normalized per profile.SweepGrid:
	// clamped into (0, 1], deduplicated, ascending, 1.0 always included).
	// Nil means DefaultIntensities.
	Intensities []float64
}

// grid returns the normalized training grid.
func (fo FitOptions) grid() []float64 {
	xs := fo.Intensities
	if xs == nil {
		xs = DefaultIntensities
	}
	return profile.SweepGrid(xs)
}

// fitCurve least-squares-fits one response curve over the (intensity,
// value) samples and records its training residuals.
func fitCurve(xs, ys []float64) (Curve, error) {
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = []float64{x, math.Sqrt(x), x * x}
	}
	coef, err := linalg.LeastSquares(rows, ys, DefaultRidge)
	if err != nil {
		return Curve{}, fmt.Errorf("surrogate: curve fit failed: %w", err)
	}
	var c Curve
	copy(c.Coef[:], coef)
	for i, x := range xs {
		r := math.Abs(c.At(x) - ys[i])
		c.MaxAbsErr = math.Max(c.MaxAbsErr, r)
		c.MeanAbsErr += r
	}
	c.MeanAbsErr /= float64(len(xs))
	return c, nil
}

// Fit samples each application's (dimension, intensity) grid through the
// engine — one batched CharacterizeSweepContext over the profiler's worker pool —
// and fits the per-dimension surrogate curves. The grid must hold at least
// three points so the three-coefficient curves are determined by data.
func Fit(ctx context.Context, p *profile.Profiler, specs []*workload.Spec, placement profile.Placement, fo FitOptions) (*Set, error) {
	xs := fo.grid()
	if len(xs) < 3 {
		return nil, fmt.Errorf("surrogate: intensity grid %v has %d points; need at least 3 to fit 3-coefficient curves", xs, len(xs))
	}
	jobs := make([]profile.Job, len(specs))
	for i, s := range specs {
		jobs[i] = p.JobFor(s, placement)
	}
	sweeps, err := p.CharacterizeSweepContext(ctx, jobs, placement, xs)
	if err != nil {
		return nil, err
	}
	set := &Set{
		Machine:   p.Config().Name,
		Placement: placement,
		Models:    make(map[string]*Model, len(specs)),
	}
	for i, sw := range sweeps {
		m, err := fitModel(sw, placement, xs)
		if err != nil {
			return nil, fmt.Errorf("surrogate: fitting %s: %w", specs[i].Name, err)
		}
		set.Models[m.App] = m
	}
	return set, nil
}

// fitModel turns one sweep grid into a fitted Model.
func fitModel(sw profile.SweepResult, placement profile.Placement, xs []float64) (*Model, error) {
	m := &Model{
		App:         sw.Characterization.App,
		Placement:   placement,
		SoloIPC:     sw.Characterization.SoloIPC,
		SoloPMU:     sw.Characterization.SoloPMU,
		Intensities: append([]float64(nil), xs...),
	}
	sen := make([]float64, len(xs))
	con := make([]float64, len(xs))
	for d := range sw.Samples {
		if len(sw.Samples[d]) != len(xs) {
			return nil, fmt.Errorf("dimension %d: sweep returned %d samples for a %d-point grid", d, len(sw.Samples[d]), len(xs))
		}
		for i, s := range sw.Samples[d] {
			sen[i], con[i] = s.Sen, s.Con
		}
		var err error
		if m.Sen[d], err = fitCurve(xs, sen); err != nil {
			return nil, fmt.Errorf("dimension %d sensitivity: %w", d, err)
		}
		if m.Con[d], err = fitCurve(xs, con); err != nil {
			return nil, fmt.Errorf("dimension %d contentiousness: %w", d, err)
		}
	}
	return m, nil
}

// KeyFor content-addresses one application's fitted model: the key covers
// everything that determines the fit — machine configuration, placement,
// measurement options (sans the non-semantic Cache/Parallelism/Progress/
// Sampler fields), the normalized training grid, the ridge, and the job's
// workload fingerprint — so a profstore entry can never be stale for
// changed inputs. TestKeyForPinned pins the format; bump the version tag
// when the fit semantics change.
func KeyFor(p *profile.Profiler, spec *workload.Spec, placement profile.Placement, fo FitOptions) simcache.Key {
	opts := p.Options()
	opts.Cache = nil
	opts.Parallelism = 0
	opts.Progress = nil
	opts.Sampler = nil
	fp := "<unfingerprintable>"
	if f, ok := p.JobFor(spec, placement).(profile.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	return simcache.KeyOf("surrogate/fit/v1", p.Config(), placement, opts, fo.grid(), DefaultRidge, fp)
}

// StoreStats reports how a FitWithStore call was served.
type StoreStats struct {
	// Hits counts models loaded from the store; Misses counts models
	// fitted through the engine (and then stored).
	Hits, Misses int
}

// FitWithStore is Fit with a warm-start: models already present in the
// store under their content address are loaded instead of re-fitted, and
// freshly fitted models are written back. Corrupt or version-skewed
// entries are treated as misses and healed by the write-back; only I/O
// and fit errors propagate.
func FitWithStore(ctx context.Context, st *profstore.Store, p *profile.Profiler, specs []*workload.Spec, placement profile.Placement, fo FitOptions) (*Set, StoreStats, error) {
	set := &Set{
		Machine:   p.Config().Name,
		Placement: placement,
		Models:    make(map[string]*Model, len(specs)),
	}
	var stats StoreStats
	var missing []*workload.Spec
	for _, spec := range specs {
		var m Model
		err := st.Get(KeyFor(p, spec, placement, fo), &m)
		switch {
		case err == nil:
			set.Models[m.App] = &m
			stats.Hits++
		case errors.Is(err, profstore.ErrNotFound),
			errors.Is(err, profstore.ErrCorrupt),
			errors.Is(err, profstore.ErrVersionSkew):
			missing = append(missing, spec)
			stats.Misses++
		default:
			return nil, stats, err
		}
	}
	if len(missing) > 0 {
		fitted, err := Fit(ctx, p, missing, placement, fo)
		if err != nil {
			return nil, stats, err
		}
		for i, spec := range missing {
			m, ok := fitted.Models[spec.Name]
			if !ok {
				return nil, stats, fmt.Errorf("surrogate: fit returned no model for %q", missing[i].Name)
			}
			if err := st.Put(KeyFor(p, spec, placement, fo), m); err != nil {
				return nil, stats, err
			}
			set.Models[m.App] = m
		}
	}
	return set, stats, nil
}

// TrainEq3 measures engine ground-truth degradations for every distinct
// pair among specs and trains the Equation 3 model (non-negative least
// squares, as the paper fits it) on the set's surrogate feature vectors,
// embedding the result so Set.Predict works. Needs at least 4 specs: each
// unordered pair yields two observations and the model has 9 parameters.
func (s *Set) TrainEq3(ctx context.Context, p *profile.Profiler, specs []*workload.Spec) error {
	pairs, err := p.MeasurePairsContext(ctx, specs, specs, s.Placement)
	if err != nil {
		return err
	}
	obs, err := model.BuildObservations(s.Characterizations(), pairs)
	if err != nil {
		return err
	}
	m, err := model.TrainSmiteNNLS(obs)
	if err != nil {
		return err
	}
	s.Eq3 = &m
	return nil
}
