package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/stats"
	"repro/internal/workload"
)

// allAppsSet returns the full characterization population (SPEC +
// CloudSuite, truncated per scale).
func (l *Lab) allAppsSet() []*workload.Spec {
	return append(l.specSet(workload.SPECCPU2006()), l.cloudSet()...)
}

// SenConResult is the characterization matrix behind Figures 2, 4 and 6:
// per-application sensitivity and contentiousness in each dimension.
type SenConResult struct {
	Title string
	// Dims are the dimensions shown (Figure 2: functional units; Figure 4:
	// memory subsystem; Figure 6: all seven).
	Dims  []rulers.Dimension
	Chars []profile.Characterization
}

// Fig2FunctionalUnitsContext measures sensitivity and contentiousness on
// the four functional-unit dimensions for all applications (paper Figure
// 2).
func (l *Lab) Fig2FunctionalUnitsContext(ctx context.Context) (SenConResult, error) {
	chars, err := l.characterizeAllApps(ctx)
	if err != nil {
		return SenConResult{}, err
	}
	return SenConResult{
		Title: "Figure 2: sensitivity/contentiousness on functional-unit resources",
		Dims:  []rulers.Dimension{rulers.DimFPMul, rulers.DimFPAdd, rulers.DimFPShf, rulers.DimIntAdd},
		Chars: chars,
	}, nil
}

// Fig4MemorySubsystemContext measures sensitivity and contentiousness on
// the cache dimensions (paper Figure 4).
func (l *Lab) Fig4MemorySubsystemContext(ctx context.Context) (SenConResult, error) {
	chars, err := l.characterizeAllApps(ctx)
	if err != nil {
		return SenConResult{}, err
	}
	return SenConResult{
		Title: "Figure 4: sensitivity/contentiousness on memory-subsystem resources",
		Dims:  []rulers.Dimension{rulers.DimL1, rulers.DimL2, rulers.DimL3},
		Chars: chars,
	}, nil
}

// Fig6SummaryContext is the full seven-dimension matrix (paper Figure 6).
func (l *Lab) Fig6SummaryContext(ctx context.Context) (SenConResult, error) {
	chars, err := l.characterizeAllApps(ctx)
	if err != nil {
		return SenConResult{}, err
	}
	return SenConResult{
		Title: "Figure 6: sensitivity/contentiousness of all applications across all dimensions",
		Dims:  rulers.Dimensions(),
		Chars: chars,
	}, nil
}

func (l *Lab) characterizeAllApps(ctx context.Context) ([]profile.Characterization, error) {
	return l.Profiler(SandyBridgeEN).CharacterizeAllContext(ctx, l.allAppsSet(), profile.SMT)
}

// String renders the matrix.
func (r SenConResult) String() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	header := []string{"application"}
	for _, d := range r.Dims {
		header = append(header, "Sen:"+d.String(), "Con:"+d.String())
	}
	t := newTable(header...)
	for _, c := range r.Chars {
		row := []string{c.App}
		for _, d := range r.Dims {
			row = append(row, pct(c.Sen[d]), pct(c.Con[d]))
		}
		t.row(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

// Findings verifies the figure's headline findings hold on the measured
// data, returning a human-readable report and whether all checks passed.
func (r SenConResult) Findings() (string, bool) {
	var b strings.Builder
	ok := true
	check := func(cond bool, format string, args ...any) {
		status := "PASS"
		if !cond {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "[%s] %s\n", status, fmt.Sprintf(format, args...))
	}
	// Finding 1/2: per-dimension sensitivity varies widely across apps.
	for _, d := range r.Dims {
		var sen []float64
		for _, c := range r.Chars {
			sen = append(sen, c.Sen[d])
		}
		spread := stats.Max(sen) - stats.Min(sen)
		check(spread > 0.05, "sensitivity spread on %v = %.2f (want variability across applications)", d, spread)
	}
	return b.String(), ok
}

// Fig7Result is the cross-dimension correlation analysis (paper Figure 7).
type Fig7Result struct {
	// Labels name the 2×7 series (7 sensitivities then 7 contentiousness).
	Labels []string
	// AbsPearson is the symmetric matrix of |r| values.
	AbsPearson [][]float64
	// FracBelow80 and FracBelow50 are the paper's headline statistics:
	// the fraction of off-diagonal pairs with |r| < 0.80 and < 0.50.
	FracBelow80 float64
	FracBelow50 float64
}

// Fig7CorrelationContext computes the absolute Pearson correlations among
// all 14 sensitivity/contentiousness dimensions across applications.
func (l *Lab) Fig7CorrelationContext(ctx context.Context) (Fig7Result, error) {
	chars, err := l.characterizeAllApps(ctx)
	if err != nil {
		return Fig7Result{}, err
	}
	return CorrelationFromChars(chars)
}

// CorrelationFromChars computes the Figure 7 matrix from an existing
// characterization set.
func CorrelationFromChars(chars []profile.Characterization) (Fig7Result, error) {
	nd := int(rulers.NumDimensions)
	series := make([][]float64, 2*nd)
	labels := make([]string, 2*nd)
	for d := 0; d < nd; d++ {
		labels[d] = "Sen:" + rulers.Dimension(d).String()
		labels[nd+d] = "Con:" + rulers.Dimension(d).String()
	}
	for _, c := range chars {
		for d := 0; d < nd; d++ {
			series[d] = append(series[d], c.Sen[d])
			series[nd+d] = append(series[nd+d], c.Con[d])
		}
	}
	m := make([][]float64, 2*nd)
	below80, below50, offDiag := 0, 0, 0
	for i := range m {
		m[i] = make([]float64, 2*nd)
		for j := range m[i] {
			if i == j {
				m[i][j] = 1
				continue
			}
			r, err := stats.Pearson(series[i], series[j])
			if err != nil {
				// A constant series (an app population that never touches
				// a dimension) has undefined correlation; treat as 0.
				r = 0
			}
			if r < 0 {
				r = -r
			}
			m[i][j] = r
			if i < j {
				offDiag++
				if r < 0.80 {
					below80++
				}
				if r < 0.50 {
					below50++
				}
			}
		}
	}
	res := Fig7Result{Labels: labels, AbsPearson: m}
	if offDiag > 0 {
		res.FracBelow80 = float64(below80) / float64(offDiag)
		res.FracBelow50 = float64(below50) / float64(offDiag)
	}
	return res, nil
}

// String renders the correlation matrix and headline statistics.
func (r Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: |Pearson| correlation among sensitivity/contentiousness dimensions\n")
	header := append([]string{""}, r.Labels...)
	t := newTable(header...)
	for i, row := range r.AbsPearson {
		cells := []string{r.Labels[i]}
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		t.row(cells...)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "pairs with |r| < 0.80: %s (paper: 97.96%%)\n", pct(r.FracBelow80))
	fmt.Fprintf(&b, "pairs with |r| < 0.50: %s (paper: majority)\n", pct(r.FracBelow50))
	return b.String()
}
