package detect

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// ReportSchema versions the DETECT_<n>.json layout.
const ReportSchema = "stat4-detect/1"

// ScoredResult is a cell result annotated against a baseline report.
// BaselineQuality serialises as an explicit null when the cell has no
// baseline, and DeltaPct stays null whenever the baseline quality is zero or
// non-finite — the same contract as stat4-bench's baseline_ns_op handling.
type ScoredResult struct {
	Result
	BaselineQuality *float64 `json:"baseline_quality"`
	DeltaQuality    *float64 `json:"delta_quality"` // absolute quality difference
	DeltaPct        *float64 `json:"delta_pct"`
}

// Report is the DETECT_<n>.json artifact: the scored matrix plus the
// dominance audit.
type Report struct {
	Schema              string         `json:"schema"`
	Scale               float64        `json:"scale"`
	Seed                int64          `json:"seed"`
	Cells               int            `json:"cells"`
	DominanceViolations []string       `json:"dominance_violations"`
	Results             []ScoredResult `json:"results"`

	// missing lists the baseline cells the run's grid covers but that
	// produced no result; the gate flags each one.
	missing []string
	// uncovered lists the baseline cells the run's grid does not cover
	// (a narrower -scenario/-config/-shards run, or cells of a grid axis
	// that no longer exists); reported, never gated.
	uncovered []string
}

// BuildReport assembles the artifact, annotating each cell against the
// matching cell of a baseline report (nil baseline → all-null annotations).
func BuildReport(g Grid, results []Result, baseline *Report) Report {
	base := make(map[string]ScoredResult)
	if baseline != nil {
		for _, r := range baseline.Results {
			base[r.Key()] = r
		}
	}
	rep := Report{
		Schema:              ReportSchema,
		Scale:               g.Scale,
		Seed:                g.Seed,
		Cells:               len(results),
		DominanceViolations: DominanceViolations(results),
		Results:             make([]ScoredResult, 0, len(results)),
	}
	if rep.DominanceViolations == nil {
		rep.DominanceViolations = []string{}
	}
	ran := make(map[string]bool, len(results))
	for _, r := range results {
		ran[r.Key()] = true
	}
	covered := make(map[string]bool)
	for _, c := range g.Cells() {
		covered[c.Key()] = true
		if _, ok := base[c.Key()]; ok && !ran[c.Key()] {
			rep.missing = append(rep.missing, c.Key())
		}
	}
	if baseline != nil {
		for _, r := range baseline.Results {
			if !covered[r.Key()] {
				rep.uncovered = append(rep.uncovered, r.Key())
			}
		}
	}
	for _, r := range results {
		sr := ScoredResult{Result: r}
		if b, ok := base[r.Key()]; ok {
			q := b.Quality
			sr.BaselineQuality = &q
			d := r.Quality - q
			sr.DeltaQuality = &d
			if q != 0 && !math.IsNaN(q) && !math.IsInf(q, 0) {
				pct := 100 * d / q
				sr.DeltaPct = &pct
			}
		}
		rep.Results = append(rep.Results, sr)
	}
	return rep
}

// Uncovered returns the keys of the baseline cells the run's grid does not
// cover, in baseline order. They are outside the comparison, so the gate
// ignores them; callers print them so a dropped grid axis is visible.
func (rep Report) Uncovered() []string { return rep.uncovered }

// GateViolations is the CI quality gate: any dominance violation, any
// baseline cell the grid covers that produced no result, plus any cell whose
// quality fell more than tol below its baseline.
func (rep Report) GateViolations(tol float64) []string {
	violations := append([]string(nil), rep.DominanceViolations...)
	for _, key := range rep.missing {
		violations = append(violations, key+": in the baseline and the grid, but no result")
	}
	for _, r := range rep.Results {
		if r.BaselineQuality == nil {
			continue
		}
		if r.Quality < *r.BaselineQuality-tol {
			violations = append(violations, fmt.Sprintf(
				"%s: quality %.4f regressed below baseline %.4f (tol %.4f)",
				r.Key(), r.Quality, *r.BaselineQuality, tol))
		}
	}
	return violations
}

// LoadReport reads a DETECT_<n>.json artifact.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("detect: parse %s: %w", path, err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("detect: %s has schema %q, want %q", path, rep.Schema, ReportSchema)
	}
	return &rep, nil
}
