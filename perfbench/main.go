// Command perfbench is the stat4 repository benchmark: one command that runs
// a named workload against the real layers (ingest, ring, p4, packet,
// stat4p4, telemetry, netem, traffic, detect, controller), checks that the
// outputs are correct, and prints every metric by name with its unit.
//
//	perfbench --workload replay-ddos --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation inside
// the timed regions. --trace 1 runs one untraced pass plus a traced pass
// that replays the same input through each layer's public entry points in
// pipeline order, recording spans, and prints the per-layer metrics and the
// "where a packet's nanoseconds go" table. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads, the metric map and the trace model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir holds the span dumps and full result records a run writes, relative
// to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: the check verdicts, the failure
// ledger, the metrics for the requested mode and any human-readable report.
type outcome struct {
	checks    checks
	attempted uint64
	failed    uint64
	metrics   map[string]metric
	stamp     stamp
	report    []string // printed before the result line (tables, notes)
	spans     []span   // traced runs only, dumped to outDir
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// checks collects correctness failures; any failure reports the run as
// failed, never as a number.
type checks struct {
	failures []string
	passed   int
}

func (c *checks) expect(ok bool, format string, args ...any) bool {
	if ok {
		c.passed++
		return true
	}
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	return false
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// workload is one named benchmark input; run measures it for the given
// budget and fills the metrics of the requested mode.
type workload struct {
	name string
	run  func(seed int64, budget time.Duration, trace bool) *outcome
}

var workloads = []workload{
	{"replay-ddos", func(seed int64, budget time.Duration, trace bool) *outcome {
		return runReplay(defaultReplayParams(seed), budget, trace)
	}},
	{"stream-ctrl", func(seed int64, budget time.Duration, trace bool) *outcome {
		return runStream(defaultStreamParams(seed), budget, trace)
	}},
	{"sim-detect", func(seed int64, budget time.Duration, trace bool) *outcome {
		return runSim(defaultSimParams(seed), budget, trace)
	}},
}

func main() {
	name := flag.String("workload", "", "workload: replay-ddos | stream-ctrl | sim-detect")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same input")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := w.run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	os.Exit(emit(w.name, *seed, *trace == 1, o))
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the report, writes the full record (stamp, checks, spans) under
// outDir and prints the result line last. It returns the exit code.
func emit(name string, seed int64, trace bool, o *outcome) int {
	for _, line := range o.report {
		fmt.Println(line)
	}
	failed := o.failed + uint64(len(o.checks.failures))
	for _, f := range o.checks.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	fmt.Printf("checks: %d passed, %d failed\n", o.checks.passed, len(o.checks.failures))
	res := result{Correct: o.checks.ok(), Attempted: o.attempted, Failed: failed, Metrics: o.metrics}
	if !res.Correct {
		res.Metrics = map[string]metric{} // a failed check is never reported as a number
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	record := struct {
		Workload string   `json:"workload"`
		Trace    bool     `json:"trace"`
		Stamp    stamp    `json:"stamp"`
		Failures []string `json:"check_failures"`
		Result   result   `json:"result"`
		Report   []string `json:"report"`
	}{name, trace, o.stamp, o.checks.failures, res, o.report}
	stampLine, _ := json.Marshal(o.stamp)
	fmt.Printf("stamp: %s\n", stampLine)
	mode := "trace0"
	if trace {
		mode = "trace1"
	}
	base := fmt.Sprintf("%s-seed%d-%s", name, seed, mode)
	if err := writeJSON(filepath.Join(outDir, base+".json"), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
	}
	if len(o.spans) > 0 {
		if err := writeJSON(filepath.Join(outDir, base+".spans.json"), o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
