package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"stat4/internal/detect"
	"stat4/internal/experiments"
	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// detect2Rows are the DETECT_2.json rows (scale 1, seed 1) of the sim-detect
// cells, copied verbatim minus the baseline columns: at seed 1 each cell's
// Result must reproduce its row field for field.
//
//go:embed detect2_cells.json
var detect2Rows []byte

// simCell names one detection cell; all run on the wheel scheduler. Shards
// above 1 are logical: netem drives the sharded switch one packet at a time.
type simCell struct {
	scenario, config string
	shards           int
}

type simParams struct {
	seed      int64
	scale     float64 // scenario scale; DETECT_2 is scale 1
	cells     []simCell
	setups    int // set-up repetitions per run (setup_s is their median)
	minPasses int
}

func defaultSimParams(seed int64) simParams {
	return simParams{
		seed:  seed,
		scale: 1,
		cells: []simCell{
			{"flow-churn", "entropy", 1},
			{"flow-churn", "hh", 1},
			{"flow-churn", "window", 1},
			{"pulse-ddos", "entropy", 4},
		},
		setups:    5,
		minPasses: 2,
	}
}

// resolve maps cell names to detect cells at the run's seed and scale.
func (p simParams) resolve() ([]detect.Cell, error) {
	reg := traffic.Registry(p.scale)
	cfgs := detect.Configs()
	var out []detect.Cell
	for _, c := range p.cells {
		sc, ok := traffic.FindScenario(reg, c.scenario)
		if !ok {
			return nil, fmt.Errorf("no scenario %q", c.scenario)
		}
		cfg, ok := detect.FindConfig(cfgs, c.config)
		if !ok {
			return nil, fmt.Errorf("no config %q", c.config)
		}
		out = append(out, detect.Cell{Scenario: sc, Config: cfg, Shards: c.shards, Sched: netem.SchedWheel, Seed: p.seed})
	}
	return out, nil
}

// simPass is one untraced pass over every cell plus the case study.
type simPass struct {
	results []detect.Result
	cs      experiments.CaseStudyResult
	elapsed time.Duration
	packets uint64
	mallocs uint64
	bytes   uint64
	cpu     time.Duration
}

func runSimPass(cells []detect.Cell, seed int64, csPackets uint64) (simPass, error) {
	var p simPass
	m0, b0 := mallocs()
	c0 := cpuTime()
	start := time.Now()
	for _, c := range cells {
		r, err := detect.Run(c)
		if err != nil {
			return p, fmt.Errorf("%s/%s: %w", c.Scenario.Name, c.Config.Name, err)
		}
		p.results = append(p.results, r)
		p.packets += r.Packets + r.BenignPackets
	}
	cs, err := experiments.CaseStudy(experiments.CaseStudyParams{Seed: seed})
	if err != nil {
		return p, fmt.Errorf("case study: %w", err)
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - c0
	m1, b1 := mallocs()
	p.mallocs, p.bytes = m1-m0, b1-b0
	p.cs = cs
	p.packets += csPackets
	return p, nil
}

// caseStudyPackets counts the case study's simulated packets with the
// telemetry observer attached, outside the timed passes.
func caseStudyPackets(seed int64) (uint64, experiments.CaseStudyResult, error) {
	tel := telemetry.NewPipeline()
	cs, err := experiments.CaseStudy(experiments.CaseStudyParams{Seed: seed, Telemetry: tel})
	return tel.Switch.Cost.Count(), cs, err
}

// simSetup constructs every cell's system (program, runtime, bindings),
// returning the set-up thread's CPU time and the constructed state.
func simSetup(cells []detect.Cell) (build, populate time.Duration, held []any, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, c := range cells {
		t0 := threadCPU()
		lib := stat4p4.Build(c.Config.Opts)
		var b detect.Binder
		if c.Shards > 1 {
			sr, e := stat4p4.NewShardedRuntime(lib, c.Shards)
			if e != nil {
				return 0, 0, nil, e
			}
			b = sr
		} else {
			rt, e := stat4p4.NewRuntime(lib)
			if e != nil {
				return 0, 0, nil, e
			}
			b = rt
		}
		t1 := threadCPU()
		if _, err = c.Config.Bind(b, c.Scenario.EndNs); err != nil {
			return 0, 0, nil, err
		}
		build += t1 - t0
		populate += threadCPU() - t1
		held = append(held, b)
	}
	return build, populate, held, nil
}

func releaseSetup(held []any) {
	for _, h := range held {
		if sr, ok := h.(*stat4p4.ShardedRuntime); ok {
			sr.Close()
		}
	}
}

// checkGolden compares each result with its DETECT_2 row, field for field.
func checkGolden(c *checks, golden []byte, results []detect.Result) {
	var rows []map[string]any
	if err := json.Unmarshal(golden, &rows); err != nil {
		c.expect(false, "golden rows: %v", err)
		return
	}
	for _, r := range results {
		var want map[string]any
		for _, row := range rows {
			if row["scenario"] == r.Scenario && row["config"] == r.Config && row["shards"] == float64(r.Shards) && row["sched"] == r.Sched {
				want = row
			}
		}
		b, _ := json.Marshal(r)
		var got map[string]any
		_ = json.Unmarshal(b, &got) // a Result always round-trips
		c.expect(want != nil && reflect.DeepEqual(got, want), "sim %s: result differs from its DETECT_2 row\n got: %v\nwant: %v", r.Key(), got, want)
	}
}

// runSim is the sim-detect workload.
func runSim(p simParams, budget time.Duration, trace bool) *outcome {
	o := &outcome{stamp: hostStamp("sim-detect", p.seed)}
	cells, err := p.resolve()
	if err != nil {
		o.checks.expect(false, "%v", err)
		return o
	}
	dig := newInputDigest()
	for _, c := range cells {
		for _, st := range []traffic.Stream{c.Scenario.Build(p.seed), c.Scenario.Benign(p.seed)} {
			digestStream(dig, st)
		}
	}
	o.stamp.InputFNV, o.stamp.InputFrames = dig.sum(), dig.frames

	csPackets, csRef, err := caseStudyPackets(p.seed)
	if err != nil {
		o.checks.expect(false, "case study: %v", err)
		return o
	}

	var setups, builds, popls, states []float64
	for i := 0; i < p.setups; i++ {
		base := liveHeap()
		b, pp, held, err := simSetup(cells)
		if err != nil {
			o.checks.expect(false, "setup: %v", err)
			return o
		}
		if h := liveHeap(); h > base {
			states = append(states, float64(h-base)/(1<<20))
		}
		releaseSetup(held)
		setups = append(setups, (b + pp).Seconds())
		builds = append(builds, float64(b)/1e6/float64(len(cells)))
		popls = append(popls, float64(pp)/1e6/float64(len(cells)))
	}

	var passes []simPass
	start := time.Now()
	minPasses := p.minPasses
	if trace {
		minPasses = 1
	}
	for len(passes) < minPasses || (!trace && time.Since(start) < budget) {
		ps, err := runSimPass(cells, p.seed, csPackets)
		if err != nil {
			o.checks.expect(false, "%v", err)
			o.failed++
			return o
		}
		if len(passes) > 0 {
			o.checks.expect(reflect.DeepEqual(ps.results, passes[0].results), "sim: pass %d results differ from pass 0 (nondeterminism)", len(passes))
		}
		passes = append(passes, ps)
	}
	first := passes[0]
	if p.seed == 1 && p.scale == 1 {
		checkGolden(&o.checks, detect2Rows, first.results)
		o.checks.expect(first.cs.Detected && first.cs.HostCorrect, "case study at seed 1: spike target %v not identified", first.cs.SpikeTarget)
	}
	o.checks.expect(first.cs.SpikeTarget == csRef.SpikeTarget && first.cs.PinpointNs == csRef.PinpointNs,
		"case study: observed run differs from the untimed counting run")

	var mpps, cpuNs []float64
	for _, ps := range passes {
		o.attempted += uint64(len(ps.results)) + 1 // the cells and the case study
		mpps = append(mpps, float64(ps.packets)/ps.elapsed.Seconds()/1e6)
		cpuNs = append(cpuNs, float64(ps.cpu)/float64(ps.packets))
	}
	o.note("sim-detect: %d passes, %d simulated packets per pass, median %.4f Mpkt/s; case study detected=%v host=%v",
		len(passes), first.packets, median(mpps), first.cs.Detected, first.cs.HostCorrect)

	if !trace {
		o.set("cpu_ns_per_pkt", median(cpuNs), "ns")
		o.set("state_mb", median(states), "MiB")
		o.set("setup_s", median(setups), "s")
		return o
	}
	setLayerDefaults(o)
	o.set("wall_mpps", median(mpps), "Mpkt/s")
	o.set("p4.allocs_per_pkt", float64(first.mallocs)/float64(first.packets), "count")
	o.set("p4.alloc_bytes_per_pkt", float64(first.bytes)/float64(first.packets), "B")
	o.set("stat4p4.build_ms", median(builds), "ms")
	o.set("stat4p4.populate_ms", median(popls), "ms")
	traceSim(o, cells, p.seed, first)
	return o
}

// digestStream folds a packet stream into the input digest.
func digestStream(d *inputDigest, st traffic.Stream) {
	var buf []byte
	for {
		pk, ok := st.Next()
		if !ok {
			return
		}
		buf = pk.Frame.AppendSerialize(buf[:0])
		d.add(pk.TsNs, buf)
	}
}

// traceSim replays every cell layer by layer: generation, set-up, the netem
// run (attack and benign twin), scoring, and a probe that feeds the attack
// packets straight to Switch.ProcessPacket to isolate the datapath's share.
func traceSim(o *outcome, cells []detect.Cell, seed int64, untraced simPass) {
	tr := newTracer(64 * len(cells))
	var genPkts, simPkts, steps, probePkts, probeDigests, probeRecirc uint64
	for i, c := range cells {
		want := untraced.results[i]
		tr.beginBatch()
		tr.time("traffic.gen", func() {
			for _, st := range []traffic.Stream{c.Scenario.Build(seed), c.Scenario.Benign(seed)} {
				for {
					if _, ok := st.Next(); !ok {
						break
					}
					genPkts++
				}
			}
		})
		var alerts [2][]detect.Alert
		var warm [2]uint64
		var cands []stat4p4.HHEntry
		for k, mk := range []func(int64) traffic.Stream{c.Scenario.Build, c.Scenario.Benign} {
			var b detect.Binder
			var sw *p4.Switch
			var ss *p4.ShardedSwitch
			var sr *stat4p4.ShardedRuntime
			var rt *stat4p4.Runtime
			var err error
			tr.time("stat4p4.build", func() {
				lib := stat4p4.Build(c.Config.Opts)
				if c.Shards > 1 {
					if sr, err = stat4p4.NewShardedRuntime(lib, c.Shards); err == nil {
						b, ss = sr, sr.Sharded()
					}
				} else if rt, err = stat4p4.NewRuntime(lib); err == nil {
					b, sw = rt, rt.Switch()
				}
				if err == nil {
					warm[k], err = c.Config.Bind(b, c.Scenario.EndNs)
				}
			})
			if err != nil {
				o.checks.expect(false, "traced set-up %s: %v", want.Key(), err)
				return
			}
			wantID := stat4p4.DigestAnomaly
			switch c.Config.Track {
			case detect.TrackEntropy:
				wantID = stat4p4.DigestEntropy
			case detect.TrackHH:
				wantID = stat4p4.DigestHeavyHitter
			}
			onDigest := func(now uint64, d p4.Digest) {
				if d.ID == wantID {
					a := detect.Alert{TsNs: now}
					if c.Config.Track == detect.TrackHH {
						a.Key = d.Values[1]
					}
					alerts[k] = append(alerts[k], a)
				}
			}
			tr.time("netem.run", func() {
				sim := netem.NewSimSched(netem.SchedWheel)
				s0 := sim.Steps()
				if ss != nil {
					node := netem.NewShardedSwitchNode(sim, ss, 1_000_000)
					node.OnDigest = onDigest
					node.InjectStream(mk(seed), 1)
				} else {
					node := netem.NewSwitchNode(sim, sw, 1_000_000)
					node.OnDigest = onDigest
					node.InjectStream(mk(seed), 1)
				}
				sim.Run()
				steps += sim.Steps() - s0
			})
			if k == 0 && c.Config.Track == detect.TrackHH {
				if sr != nil {
					cands, err = sr.MergedHeavyHitters(0)
				} else {
					cands, err = rt.ReadHeavyHitters(0)
				}
				o.checks.expect(err == nil, "traced candidates %s: %v", want.Key(), err)
			}
			if sr != nil {
				sr.Close()
			}
		}
		simPkts += want.Packets + want.BenignPackets
		var score detect.Temporal
		tr.time("detect.score", func() {
			detect.TallySrcs(c.Scenario.Build(seed))
			tally, total := detect.TallySrcs(c.Scenario.Benign(seed))
			if c.Config.Track == detect.TrackHH {
				reported := make(map[uint64]bool)
				for _, e := range cands {
					reported[e.Key] = true
				}
				detect.SetPRF(reported, detect.HeavySet(tally, total, 0.02))
				return
			}
			score = detect.ScoreTemporal(c.Scenario.Truth, c.Scenario.EndNs, warm[0], 32, alerts[0])
			detect.FlaggedFraction(c.Scenario.EndNs, warm[1], 32, alerts[1])
		})
		o.checks.expect(len(alerts[0]) == want.Alerts && len(alerts[1]) == want.BenignAlerts,
			"traced %s: %d/%d alerts, untraced %d/%d", want.Key(), len(alerts[0]), len(alerts[1]), want.Alerts, want.BenignAlerts)
		if c.Config.Track != detect.TrackHH {
			o.checks.expect(score.F1 == want.F1 && score.Precision == want.Precision && score.Recall == want.Recall,
				"traced %s: score %.4f/%.4f/%.4f, untraced %.4f/%.4f/%.4f", want.Key(),
				score.Precision, score.Recall, score.F1, want.Precision, want.Recall, want.F1)
		}

		// Datapath probe: the attack packets straight into ProcessPacket.
		tr.time("probe.exec", func() {
			lib := stat4p4.Build(c.Config.Opts)
			var process func(ts uint64, pk traffic.Pkt)
			var stats func() p4.Stats
			count := func(p4.Digest) { probeDigests++ }
			if c.Shards > 1 {
				sr, err := stat4p4.NewShardedRuntime(lib, c.Shards)
				if err != nil {
					o.checks.expect(false, "probe: %v", err)
					return
				}
				defer sr.Close()
				_, _ = c.Config.Bind(sr, c.Scenario.EndNs) // bound identically above
				ss := sr.Sharded()
				ss.SetDigestSink(count)
				process = func(ts uint64, pk traffic.Pkt) { ss.ProcessPacket(ts, 1, pk.Frame) }
				stats = ss.Stats
			} else {
				rt, err := stat4p4.NewRuntime(lib)
				if err != nil {
					o.checks.expect(false, "probe: %v", err)
					return
				}
				_, _ = c.Config.Bind(rt, c.Scenario.EndNs)
				sw := rt.Switch()
				sw.SetDigestSink(count)
				process = func(ts uint64, pk traffic.Pkt) { sw.ProcessPacket(ts, 1, pk.Frame) }
				stats = sw.Stats
			}
			chunk := make([]traffic.Pkt, 0, 4096)
			st := c.Scenario.Build(seed)
			for done := false; !done; {
				chunk = chunk[:0]
				s := tr.now()
				for len(chunk) < cap(chunk) {
					pk, ok := st.Next()
					if !ok {
						done = true
						break
					}
					chunk = append(chunk, pk)
				}
				s2 := tr.now()
				tr.record("probe.exec_gen", s, s2)
				for _, pk := range chunk {
					process(pk.TsNs, pk)
				}
				tr.record("probe.exec_switch", s2, tr.now())
			}
			st2 := stats()
			probePkts += st2.PktsIn
			probeRecirc += st2.Recirculated
		})
		tr.endBatch()
	}
	tr.beginBatch()
	tr.time("experiments.case_study", func() {
		cs, err := experiments.CaseStudy(experiments.CaseStudyParams{Seed: seed})
		o.checks.expect(err == nil && cs.SpikeTarget == untraced.cs.SpikeTarget && cs.PinpointNs == untraced.cs.PinpointNs &&
			cs.DetectedSwitchTs == untraced.cs.DetectedSwitchTs, "traced case study differs from the untraced one")
	})
	tr.endBatch()

	self, total := selfTimes(tr.spans)
	o.set("netem.event_ns", float64(self["netem.run"])/float64(max(steps, 1)), "ns")
	o.set("netem.events_per_pkt", float64(steps)/float64(max(simPkts, 1)), "ratio")
	o.set("traffic.gen_ns", float64(self["traffic.gen"])/float64(max(genPkts, 1)), "ns")
	o.set("detect.score_ms", float64(self["detect.score"])/1e6/float64(len(cells)), "ms")
	o.set("p4.exec_ns", float64(self["probe.exec_switch"])/float64(max(probePkts, 1)), "ns")
	o.set("p4.digests_per_pkt", float64(probeDigests)/float64(max(probePkts, 1)), "ratio")
	o.set("p4.recirc_frac", float64(probeRecirc)/float64(max(probePkts, 1)), "ratio")
	tracedNs := float64(total) / float64(untraced.packets)
	untracedNs := float64(untraced.elapsed) / float64(untraced.packets)
	rows := []layerRow{
		{name: "traffic.gen", what: "draining Scenario.Build and Benign streams"},
		{name: "stat4p4.build", what: "stat4p4.Build, NewRuntime/NewShardedRuntime, Config.Bind"},
		{name: "netem.run", what: "netem InjectStream + Sim.Run (generation, ProcessPacket, digests)"},
		{name: "detect.score", what: "TallySrcs, ScoreTemporal/FlaggedFraction or HeavySet/SetPRF"},
		{name: "experiments.case_study", what: "experiments.CaseStudy (detection + controller.DrillDown)"},
		{name: "probe.exec_gen", what: "regenerating the attack stream for the datapath probe", probe: true},
		{name: "probe.exec_switch", what: "Switch.ProcessPacket on generated packets", probe: true},
		{name: "probe.exec", what: "probe set-up", probe: true},
	}
	lines, unattr, _ := layerTable("sim-detect (per simulated packet of the untraced pass)", rows, tr.spans, untraced.packets, untracedNs)
	o.report = append(o.report, lines...)
	o.set("harness.unattributed_frac", unattr, "ratio")
	o.set("harness.trace_overhead", tracedNs/untracedNs, "ratio")
	o.spans = tr.spans
}
