package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"stat4/internal/detect"
	"stat4/internal/ingest"
	"stat4/internal/netem"
	"stat4/internal/traffic"
)

// The harness self-test: every workload at a tiny scale, every mode, plus
// proof that the correctness checks fire on corrupted outputs and that a
// seed pins its input. Run with `go test` from this directory.

func requireOK(t *testing.T, o *outcome) {
	t.Helper()
	if !o.checks.ok() {
		t.Fatalf("checks failed: %v", o.checks.failures)
	}
	if o.checks.passed == 0 {
		t.Fatal("no check ran")
	}
}

func requireMetrics(t *testing.T, o *outcome, trace bool) {
	t.Helper()
	want := []string{"cpu_ns_per_pkt", "state_mb", "setup_s"}
	if trace {
		want = want[:0]
		for _, m := range layerMetrics {
			want = append(want, m.name)
		}
	}
	if len(o.metrics) != len(want) {
		t.Fatalf("%d metrics, want %d: %v", len(o.metrics), len(want), o.metrics)
	}
	for _, name := range want {
		if _, ok := o.metrics[name]; !ok {
			t.Fatalf("metric %s missing", name)
		}
	}
	if !trace {
		for name, m := range o.metrics {
			if !(m.Value > 0) {
				t.Fatalf("end-to-end metric %s = %v, want > 0", name, m.Value)
			}
		}
	}
}

func requireTable(t *testing.T, o *outcome) {
	t.Helper()
	for _, line := range o.report {
		if strings.Contains(line, "where a packet's nanoseconds go") {
			return
		}
	}
	t.Fatalf("traced run printed no layer table: %v", o.report)
}

func tinyReplay(seed int64) replayParams {
	p := defaultReplayParams(seed)
	p.frames = 4000
	p.minReps = 1
	return p
}

func TestReplayTiny(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := runReplay(tinyReplay(3), 0, trace)
		requireOK(t, o)
		requireMetrics(t, o, trace)
		if trace {
			requireTable(t, o)
			t.Log("\n" + strings.Join(o.report, "\n"))
		}
	}
}

// A frame left out of the capture but counted as offered must break the
// replay ledger.
func TestReplayWithheldFrameBreaksLedger(t *testing.T) {
	p := tinyReplay(3)
	p.withhold = 1
	o := runReplay(p, 0, false)
	for _, f := range o.checks.failures {
		if strings.Contains(f, "replay ledger") {
			return
		}
	}
	t.Fatalf("withheld frame not caught; failures: %v", o.checks.failures)
}

// tinyStream keeps every 32-frame burst inside one 32 KiB slab block: the
// default 64/576/1500 mix overflows blocks, which the workload reports as a
// broken ledger (see README.md), so the harness machinery is tested apart.
func tinyStream(seed int64) streamParams {
	p := defaultStreamParams(seed)
	p.sizes = []int{64, 576}
	p.pool = 16
	p.setups = 1
	return p
}

func TestStreamTiny(t *testing.T) {
	o := runStream(tinyStream(4), 300*time.Millisecond, false)
	requireOK(t, o)
	requireMetrics(t, o, false)
	o = runStream(tinyStream(4), 600*time.Millisecond, true)
	requireOK(t, o)
	requireMetrics(t, o, true)
	requireTable(t, o)
	t.Log("\n" + strings.Join(o.report, "\n"))
}

func TestSimTiny(t *testing.T) {
	for _, trace := range []bool{false, true} {
		p := defaultSimParams(2)
		p.scale = 0.05
		p.setups = 1
		p.minPasses = 1
		o := runSim(p, 0, trace)
		requireOK(t, o)
		requireMetrics(t, o, trace)
	}
}

// At seed 1 a cell must reproduce its DETECT_2 row; a perturbed row must
// fail the check.
func TestSimGoldenCheckFires(t *testing.T) {
	sc, _ := traffic.FindScenario(traffic.Registry(1), "pulse-ddos")
	cfg, _ := detect.FindConfig(detect.Configs(), "entropy")
	r, err := detect.Run(detect.Cell{Scenario: sc, Config: cfg, Shards: 4, Sched: netem.SchedWheel, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	checkGolden(&c, detect2Rows, []detect.Result{r})
	if !c.ok() {
		t.Fatalf("unperturbed rows fail: %v", c.failures)
	}
	var rows []map[string]any
	if err := json.Unmarshal(detect2Rows, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row["scenario"] == "pulse-ddos" {
			row["alerts"] = row["alerts"].(float64) + 1
		}
	}
	perturbed, _ := json.Marshal(rows)
	c = checks{}
	checkGolden(&c, perturbed, []detect.Result{r})
	if c.ok() {
		t.Fatal("perturbed DETECT_2 row not caught")
	}
}

// The same seed must generate the same input, byte for byte; another seed
// must not.
func TestSeedPinsInput(t *testing.T) {
	replayDigest := func(seed int64) string {
		d := newInputDigest()
		for _, f := range genReplay(seed, 3000) {
			d.add(f.ts, f.data)
		}
		return d.sum()
	}
	streamDigest := func(seed int64) string {
		p := defaultStreamParams(seed)
		p.pool = 8
		return genStream(p).digest().sum()
	}
	simDigest := func(seed int64) string {
		d := newInputDigest()
		sc, _ := traffic.FindScenario(traffic.Registry(0.02), "flow-churn")
		digestStream(d, sc.Build(seed))
		return d.sum()
	}
	for name, dig := range map[string]func(int64) string{"replay": replayDigest, "stream": streamDigest, "sim": simDigest} {
		a, b, c := dig(5), dig(5), dig(6)
		if a != b {
			t.Errorf("%s: seed 5 digests differ: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 give the same digest %s", name, a)
		}
	}
}

// The stream records must decode back to the generated frames with the
// timestamps burstAt stamps.
func TestStreamBurstRecords(t *testing.T) {
	p := tinyStream(1)
	in := genStream(p)
	buf, fs := in.burstAt(17)
	off := 0
	for k, f := range fs {
		var want bytes.Buffer
		_ = ingest.WriteRecord(&want, f.ts, 1, f.data) // a bytes.Buffer write cannot fail
		if got := buf[off : off+want.Len()]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("record %d differs", k)
		}
		off += want.Len()
	}
	if off != len(buf) {
		t.Fatalf("burst has %d trailing bytes", len(buf)-off)
	}
}
