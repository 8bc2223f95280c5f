package detect

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stat4/internal/traffic"
)

func sampleResult(scenario, config string, quality float64) Result {
	return Result{
		Scenario: scenario, Config: config, Track: "entropy",
		Shards: 1, Sched: "wheel", Detectable: true, Quality: quality,
	}
}

// TestBuildReportWithoutBaseline pins the no-baseline contract inherited
// from stat4-bench: baseline_quality and delta_pct serialise as explicit
// nulls, never as zeros that a dashboard would mistake for a measurement.
func TestBuildReportWithoutBaseline(t *testing.T) {
	g := Grid{Scale: 1, Seed: 1}
	rep := BuildReport(g, []Result{sampleResult("s", "c", 0.5)}, nil)
	if rep.Schema != ReportSchema || rep.Cells != 1 {
		t.Fatalf("report header off: %+v", rep)
	}
	if rep.DominanceViolations == nil || len(rep.DominanceViolations) != 0 {
		t.Fatalf("dominance_violations must serialise as an empty array, got %#v", rep.DominanceViolations)
	}
	data, err := json.Marshal(rep.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"baseline_quality":null`, `"delta_quality":null`, `"delta_pct":null`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("missing explicit null %s in %s", field, data)
		}
	}
}

// TestBuildReportZeroBaseline: a baseline cell with quality 0 yields a
// defined absolute delta but a null delta_pct (a percentage of zero is
// meaningless, same convention as stat4-bench's baseline_ns_op handling).
func TestBuildReportZeroBaseline(t *testing.T) {
	g := Grid{Scale: 1, Seed: 1}
	base := BuildReport(g, []Result{sampleResult("s", "c", 0)}, nil)
	rep := BuildReport(g, []Result{sampleResult("s", "c", 0.4)}, &base)
	r := rep.Results[0]
	if r.BaselineQuality == nil || *r.BaselineQuality != 0 {
		t.Fatalf("baseline quality not carried over: %+v", r)
	}
	if r.DeltaQuality == nil || *r.DeltaQuality != 0.4 {
		t.Fatalf("absolute delta should be 0.4: %+v", r)
	}
	if r.DeltaPct != nil {
		t.Fatalf("delta_pct must stay null against a zero baseline, got %v", *r.DeltaPct)
	}
}

// TestBuildReportNonZeroBaseline covers the regular annotated path and the
// unmatched-cell path in one report.
func TestBuildReportNonZeroBaseline(t *testing.T) {
	g := Grid{Scale: 1, Seed: 1}
	base := BuildReport(g, []Result{sampleResult("s", "c", 0.5)}, nil)
	rep := BuildReport(g, []Result{
		sampleResult("s", "c", 0.6),
		sampleResult("s", "new-config", 0.3), // not in baseline
	}, &base)
	r := rep.Results[0]
	if r.DeltaQuality == nil || *r.DeltaQuality < 0.0999 || *r.DeltaQuality > 0.1001 {
		t.Fatalf("delta_quality should be ~0.1: %+v", r)
	}
	if r.DeltaPct == nil || *r.DeltaPct < 19.99 || *r.DeltaPct > 20.01 {
		t.Fatalf("delta_pct should be ~20%%: %+v", r)
	}
	if n := rep.Results[1]; n.BaselineQuality != nil || n.DeltaPct != nil {
		t.Fatalf("cell absent from baseline must stay null-annotated: %+v", n)
	}
}

// TestGateViolations: the CI gate fires on dominance breaks and on quality
// regressions beyond tolerance, and stays quiet inside the band.
func TestGateViolations(t *testing.T) {
	g := Grid{Scale: 1, Seed: 1}
	base := BuildReport(g, []Result{sampleResult("s", "c", 0.8)}, nil)

	ok := BuildReport(g, []Result{sampleResult("s", "c", 0.79)}, &base)
	if v := ok.GateViolations(0.02); len(v) != 0 {
		t.Fatalf("regression within tolerance must pass, got %v", v)
	}

	bad := BuildReport(g, []Result{sampleResult("s", "c", 0.5)}, &base)
	if v := bad.GateViolations(0.02); len(v) != 1 || !strings.Contains(v[0], "regressed") {
		t.Fatalf("want one regression violation, got %v", v)
	}

	bad.DominanceViolations = append(bad.DominanceViolations, "s/patho/1/wheel: not strictly below")
	if v := bad.GateViolations(0.02); len(v) != 2 {
		t.Fatalf("dominance violations must surface through the gate, got %v", v)
	}
}

// TestGateFlagsMissingCells: a baseline cell the grid still covers but whose
// result vanished fails the gate; a baseline cell outside the grid (a
// narrowed -scenario or -shards run) does not.
func TestGateFlagsMissingCells(t *testing.T) {
	g := Grid{
		Scale: 1, Seed: 1,
		Scenarios: []traffic.Scenario{{Name: "s"}},
		Configs:   []Config{{Name: "c", Track: TrackEntropy}, {Name: "d", Track: TrackEntropy}},
		Shards:    []int{1},
	}
	results := []Result{sampleResult("s", "c", 0.8), sampleResult("s", "d", 0.7)}
	base := BuildReport(g, append(results, sampleResult("s", "gone-from-grid", 0.9)), nil)

	if v := BuildReport(g, results, &base).GateViolations(0.02); len(v) != 0 {
		t.Fatalf("complete run must pass, got %v", v)
	}
	v := BuildReport(g, results[:1], &base).GateViolations(0.02)
	if len(v) != 1 || !strings.Contains(v[0], "s/d/1/wheel") {
		t.Fatalf("want one violation for the deleted s/d/1/wheel result, got %v", v)
	}
}

// TestUncoveredBaselineCells: a heap-free grid against a baseline that still
// carries sched=heap rows (as DETECT_2.json does) lists exactly those rows as
// uncovered, in baseline order, and the gate ignores them.
func TestUncoveredBaselineCells(t *testing.T) {
	g := Grid{
		Scale: 1, Seed: 1,
		Scenarios: []traffic.Scenario{{Name: "s"}},
		Configs:   []Config{{Name: "c", Track: TrackEntropy}},
		Shards:    []int{1, 4},
	}
	results := []Result{sampleResult("s", "c", 0.8), sampleResult("s", "c", 0.8)}
	results[1].Shards = 4
	heap := sampleResult("s", "c", 0.8)
	heap.Sched = "heap"
	other := sampleResult("t", "c", 0.5)
	other.Sched = "heap"
	base := BuildReport(g, []Result{results[0], heap, results[1], other}, nil)

	rep := BuildReport(g, results, &base)
	want := []string{"s/c/1/heap", "t/c/1/heap"}
	if got := rep.Uncovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("uncovered = %v, want %v", got, want)
	}
	if v := rep.GateViolations(0.02); len(v) != 0 {
		t.Fatalf("uncovered baseline cells must not fail the gate, got %v", v)
	}
	if got := BuildReport(g, results, nil).Uncovered(); len(got) != 0 {
		t.Fatalf("no baseline, yet uncovered = %v", got)
	}
}

// TestLoadReportRoundTrip writes an artifact and reads it back; a wrong
// schema string must be rejected.
func TestLoadReportRoundTrip(t *testing.T) {
	g := Grid{Scale: 0.25, Seed: 1}
	rep := BuildReport(g, []Result{sampleResult("s", "c", 0.7)}, nil)
	path := filepath.Join(t.TempDir(), "DETECT_test.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells != 1 || got.Results[0].Quality != 0.7 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	bad := strings.Replace(string(data), ReportSchema, "stat4-detect/0", 1)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badPath); err == nil {
		t.Fatal("mismatched schema must be rejected")
	}
}
