package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"stat4/internal/ingest"
	"stat4/internal/packet"
	"stat4/internal/traffic"
)

// replayParams shapes the replay-ddos workload.
type replayParams struct {
	seed   int64
	frames int // frames in the capture
	shape  shape
	// minReps is the least number of untraced replays a run makes, however
	// short the budget.
	minReps int
	// ctrlPeriod spaces the controller's calls during each replay.
	ctrlPeriod time.Duration
	// withhold leaves this many frames out of the capture while still
	// counting them as offered: the self-test's broken-ledger input.
	withhold int
}

// replayVictim is the spike's destination; a /32 heavy-hitter binding
// tracks its sources.
var replayVictim = packet.ParseIP4(10, 0, 77, 7)

func defaultReplayParams(seed int64) replayParams {
	return replayParams{
		seed:       seed,
		frames:     200_000,
		shape:      shape{shards: 2, tenants: 62, hhVictim: replayVictim, routes: 64},
		minReps:    3,
		ctrlPeriod: 5 * time.Millisecond,
	}
}

// minFrameLen is the smallest Ethernet frame without FCS: 14 + 20 + 8 + 18.
const minFrameLen = 60

// genReplay builds the capture: 60-byte UDP frames whose destinations follow
// a zipf popularity over 256 /24s (a churning 2^20-flow population), merged
// with a single-source volumetric spike toward replayVictim.
func genReplay(seed int64, n int) []frame {
	dests := make([]packet.IP4, 256)
	for i := range dests {
		dests[i] = dstBase + packet.IP4(i<<8) + 1
	}
	const rate = 1e6 // virtual packets per second
	end := uint64(float64(n) / rate * 1.2e9)
	mix := &traffic.FlowMix{
		Dests: dests, Base: packet.ParseIP4(100, 64, 0, 0),
		Flows: 1 << 20, Stable: 4096, ChurnNs: end / 8, S: 1.1,
		Rate: rate * 0.8, End: end, Seed: seed, Jitter: 0.5,
	}
	spike := &traffic.Spike{Dest: replayVictim, Rate: rate * 0.2, Start: end / 4, End: end, Seed: seed + 1, Jitter: 0.5}
	st := traffic.Merge(mix, spike)
	out := make([]frame, 0, n)
	var buf []byte
	for len(out) < n {
		p, ok := st.Next()
		if !ok {
			break
		}
		f := *p.Frame
		f.Payload = f.Payload[:minFrameLen-42]
		buf = f.AppendSerialize(buf[:0])
		out = append(out, frame{ts: p.TsNs, data: append([]byte(nil), buf...)})
	}
	return out
}

func writePcap(path string, frames []frame) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	pw := packet.NewPcapWriter(bw)
	for _, fr := range frames {
		if err := pw.WriteFrame(fr.ts, fr.data); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayRep is one untraced replay's measurements.
type replayRep struct {
	setup          setupTimes
	elapsed, cpu   time.Duration
	offered        uint64
	state          uint64
	mallocs, bytes uint64
	stats          ingest.Stats
	ctrl           []ctrlSample
}

// replayOnce sets up a fresh engine, replays the capture losslessly through
// PlayPcap with the controller polling, waits until every frame is
// absorbed, and checks the run against the reference.
func replayOnce(p replayParams, path string, offered uint64, ref *reference, c *checks) (replayRep, error) {
	var r replayRep
	ctrl := newController(p.ctrlPeriod, []ctrlOp{opStats, opScrape, opCounters, opSnapshot}, 4096)
	base := liveHeap()
	e, st, err := newEngine(p.shape)
	if err != nil {
		return r, err
	}
	defer stopEngine(e)
	r.setup = st
	m0, b0 := mallocs()
	c0 := cpuTime()
	t0 := time.Now()
	ctrl.start(e, t0)
	n, err := e.PlayPcap(path, 1, true)
	if err != nil {
		ctrl.stopAndWait()
		return r, err
	}
	absorbed := waitAbsorbed(e, n, 100*time.Microsecond)
	r.elapsed = time.Since(t0)
	r.cpu = cpuTime() - c0
	ctrl.stopAndWait()
	m1, b1 := mallocs()
	r.mallocs, r.bytes = m1-m0, b1-b0
	r.ctrl = ctrl.samples
	r.offered = offered
	r.stats = e.Stats()
	s := r.stats
	c.expect(absorbed, "replay: frames stopped arriving (%d of %d absorbed after %v)", s.Frames+s.ShedFrames, n, absorbTimeout)
	c.expect(s.Frames+s.ShedFrames == offered && s.ShedFrames == 0,
		"replay ledger: frames %d + shed %d != offered %d (or shed != 0)", s.Frames, s.ShedFrames, offered)
	c.expect(s.Switch.ParseErrors == 0, "replay: %d parse errors", s.Switch.ParseErrors)
	c.expect(s.Switch.DigestDrops == 0, "replay: %d digests dropped", s.Switch.DigestDrops)
	c.expect(snapshotsEqual(e.MergedSnapshot(), ref.snap, true), "replay: merged snapshot differs from the serial reference")
	c.expect(s.AlertsTotal == ref.digests, "replay: %d alerts, reference %d digests", s.AlertsTotal, ref.digests)
	if h := liveHeap(); h > base {
		r.state = h - base
	}
	return r, nil
}

// runReplay is the replay-ddos workload.
func runReplay(p replayParams, budget time.Duration, trace bool) *outcome {
	o := &outcome{stamp: hostStamp("replay-ddos", p.seed)}
	frames := genReplay(p.seed, p.frames)
	dig := newInputDigest()
	for _, f := range frames {
		dig.add(f.ts, f.data)
	}
	o.stamp.InputFNV, o.stamp.InputFrames = dig.sum(), dig.frames
	path := filepath.Join(outDir, fmt.Sprintf("replay-ddos-%d-%d.pcap", p.seed, os.Getpid()))
	defer os.Remove(path)
	if err := writePcap(path, frames[:len(frames)-p.withhold]); err != nil {
		o.checks.expect(false, "write capture: %v", err)
		return o
	}
	ref, err := computeReference(p.shape, nil, func(yield func(uint64, []byte)) {
		for _, f := range frames {
			yield(f.ts, f.data)
		}
	})
	if err != nil {
		o.checks.expect(false, "reference: %v", err)
		return o
	}
	o.checks.expect(ref.parseEr == 0, "reference: %d parse errors", ref.parseEr)
	offered := uint64(len(frames))

	reps := p.minReps
	if trace {
		reps = 1
	}
	var all []replayRep
	start := time.Now()
	for len(all) < reps || (!trace && time.Since(start) < budget) {
		r, err := replayOnce(p, path, offered, ref, &o.checks)
		if err != nil {
			o.checks.expect(false, "replay: %v", err)
			return o
		}
		all = append(all, r)
		if !o.checks.ok() {
			break
		}
	}
	var mpps, cpuNs, setup, state, build, popl []float64
	var ctrl []ctrlSample
	var mall, mbytes, absorbed uint64
	for _, r := range all {
		o.attempted += r.offered
		o.failed += r.stats.ShedFrames
		mpps = append(mpps, float64(r.offered)/r.elapsed.Seconds()/1e6)
		cpuNs = append(cpuNs, float64(r.cpu)/float64(r.offered))
		setup = append(setup, r.setup.total().Seconds())
		build = append(build, float64(r.setup.build)/1e6)
		popl = append(popl, float64(r.setup.populate)/1e6)
		state = append(state, float64(r.state)/(1<<20))
		ctrl = append(ctrl, r.ctrl...)
		mall += r.mallocs
		mbytes += r.bytes
		absorbed += r.offered
	}
	cs := summarizeCtrl(ctrl)
	o.attempted += cs.calls
	o.failed += cs.errors
	o.checks.expect(cs.errors == 0, "controller: %d failed calls (first: %v)", cs.errors, cs.firstErr)
	o.note("replay-ddos: %d reps of %d frames, median %.4f Mpps, ctrl p50 %.1f us (%d calls)", len(all), offered, median(mpps), cs.p50, cs.calls)

	if !trace {
		o.set("cpu_ns_per_pkt", median(cpuNs), "ns")
		o.set("state_mb", median(state), "MiB")
		o.set("setup_s", median(setup), "s")
		return o
	}

	// Per-layer metrics from the untraced rep.
	last := all[len(all)-1]
	setLayerDefaults(o)
	o.set("wall_mpps", median(mpps), "Mpkt/s")
	o.set("p4.allocs_per_pkt", float64(mall)/float64(absorbed), "count")
	o.set("p4.alloc_bytes_per_pkt", float64(mbytes)/float64(absorbed), "B")
	o.set("ingest.frames_per_batch", float64(last.stats.Frames)/float64(max(last.stats.Batches, 1)), "count")
	o.set("ingest.shed_frac", float64(last.stats.ShedFrames)/float64(last.offered), "ratio")
	o.set("p4.shard_skew", shardSkew(last.stats.PerShard), "ratio")
	o.set("stat4p4.build_ms", median(build), "ms")
	o.set("stat4p4.populate_ms", median(popl), "ms")
	setCtrlLayer(o, cs)

	// Traced pass: pcap read → ring → dispatch → parse → execute → sink.
	tw, err := newTwins(p.shape, nil)
	if err != nil {
		o.checks.expect(false, "twins: %v", err)
		return o
	}
	defer tw.close()
	f, err := os.Open(path)
	if err != nil {
		o.checks.expect(false, "open capture: %v", err)
		return o
	}
	defer f.Close()
	rd := packet.NewPcapReader(f)
	tr := newTracer(16 * (len(frames)/256 + 2))
	batch := make([]frame, 0, 256)
	for eof := false; !eof; {
		tr.beginBatch()
		batch = batch[:0]
		tr.time("ingest.pcap_read", func() {
			for len(batch) < cap(batch) {
				ts, data, err := rd.Next()
				if errors.Is(err, io.EOF) {
					eof = true
					return
				}
				if err != nil {
					o.checks.expect(false, "traced read: %v", err)
					eof = true
					return
				}
				batch = append(batch, frame{ts, data})
			}
		})
		if len(batch) > 0 {
			if err := tw.batch(tr, batch); err != nil {
				o.checks.expect(false, "traced batch: %v", err)
				break
			}
		}
		tr.endBatch()
	}
	tw.finish(tr, &o.checks, ref.snap, true, ref.digests, true)
	tw.setLayerMetrics(o, tr)
	self, _ := selfTimes(tr.spans)
	o.set("ingest.pcap_read_ns", float64(self["ingest.pcap_read"])/float64(tw.frames), "ns")
	untraced := float64(last.elapsed) / float64(last.offered)
	rows := append([]layerRow{{name: "ingest.pcap_read", what: "packet.PcapReader.Next"}}, twinRows...)
	lines, unattr, traced := layerTable("replay-ddos", rows, tr.spans, tw.frames, untraced)
	o.report = append(o.report, lines...)
	o.set("harness.unattributed_frac", unattr, "ratio")
	o.set("harness.trace_overhead", traced/untraced, "ratio")
	o.set("harness.gen_lag_p99_us", cs.lagP99, "us")
	o.checks.expect(unattr <= 0.10, "traced layers leave %.1f%% of the traced time unattributed (margin 10%%)", 100*unattr)
	o.spans = tr.spans
	return o
}

func shardSkew(per []uint64) float64 {
	var sum, hi uint64
	for _, v := range per {
		sum += v
		hi = max(hi, v)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(per)) / float64(sum)
}

// setCtrlLayer reports the controller-side per-layer metrics.
func setCtrlLayer(o *outcome, cs ctrlSummary) {
	o.set("ctrl_p50_us", cs.p50, "us")
	o.set("ctrl_p99_us", cs.p99, "us")
	o.set("ingest.ctrl_wait_us", cs.waitP50, "us")
	o.set("ingest.ctrl_busy_us", cs.busyP50, "us")
	o.set("stat4p4.rebind_us", cs.rebindP50, "us")
	o.set("stat4p4.merge_us", cs.mergeP50, "us")
	o.set("telemetry.scrape_us", cs.scrapeP50, "us")
	o.set("telemetry.scrape_bytes", cs.scrapeBytes, "B")
}
