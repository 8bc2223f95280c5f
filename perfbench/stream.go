package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/traffic"
)

// streamParams shapes the stream-ctrl workload.
type streamParams struct {
	seed       int64
	sizes      []int   // frame sizes of the mix, in bytes
	rate       float64 // offered frames per second
	burst      int     // frames per write
	pool       int     // distinct generated bursts, replayed cyclically
	setups     int     // set-ups timed per run (setup_s is their median)
	ctrlPeriod time.Duration
}

func defaultStreamParams(seed int64) streamParams {
	return streamParams{seed: seed, sizes: []int{64, 576, 1500}, rate: 100_000, burst: 32, pool: 1024, setups: 5, ctrlPeriod: 5 * time.Millisecond}
}

var streamShape = shape{shards: 1}

// streamInput is the generated stream: a pool of encoded bursts in the
// stat4d record format, replayed cyclically. Record timestamps are stamped
// at send time as the frame's scheduled offset, so they are a pure function
// of the frame index.
type streamInput struct {
	bursts [][]byte // encoded records, timestamp fields zero
	frames [][]frame
	tsStep uint64 // virtual ns between frames (1e9 / rate)
}

// genStream generates the pool: UDP frames to uniformly chosen hosts across
// the 256 /24s of 10.0.0.0/16, sizes drawn uniformly from p.sizes.
func genStream(p streamParams) *streamInput {
	dests := make([]packet.IP4, 0, 1024)
	for i := 0; i < 256; i++ {
		for h := 1; h <= 4; h++ {
			dests = append(dests, dstBase+packet.IP4(i<<8+h))
		}
	}
	n := p.pool * p.burst
	st := &traffic.LoadBalanced{Dests: dests, Rate: p.rate, End: ^uint64(0) >> 1, Seed: p.seed, Jitter: 0.5}
	sizes := rand.New(rand.NewSource(p.seed + 7))
	in := &streamInput{tsStep: uint64(1e9 / p.rate)}
	var rec bytes.Buffer
	for b := 0; b < p.pool; b++ {
		rec.Reset()
		var fs []frame
		for k := 0; k < p.burst && len(fs)+b*p.burst < n; k++ {
			pk, _ := st.Next()
			f := *pk.Frame
			f.Payload = make([]byte, p.sizes[sizes.Intn(len(p.sizes))]-42)
			data := f.AppendSerialize(nil)
			fs = append(fs, frame{data: data})
			_ = ingest.WriteRecord(&rec, 0, 1, data) // a bytes.Buffer write cannot fail
		}
		in.bursts = append(in.bursts, append([]byte(nil), rec.Bytes()...))
		in.frames = append(in.frames, fs)
	}
	return in
}

// burstAt returns burst b's records with timestamps stamped in place, and
// its frames with the same timestamps.
func (in *streamInput) burstAt(b int) ([]byte, []frame) {
	buf, fs := in.bursts[b%len(in.bursts)], in.frames[b%len(in.frames)]
	off := 0
	first := uint64(b * len(fs))
	for k := range fs {
		ts := (first + uint64(k) + 1) * in.tsStep
		binary.LittleEndian.PutUint64(buf[off:], ts)
		fs[k].ts = ts
		off += ring.FrameHdrLen + len(fs[k].data)
	}
	return buf, fs
}

func (in *streamInput) digest() *inputDigest {
	d := newInputDigest()
	for _, fs := range in.frames {
		for _, f := range fs {
			d.add(0, f.data)
		}
	}
	return d
}

// streamRun is one live run's measurements.
type streamRun struct {
	bursts         int
	offered        uint64
	elapsed, cpu   time.Duration
	lat, lag       []float64 // per burst, us
	ctrl           []ctrlSample
	stats          ingest.Stats
	state          uint64
	mallocs, bytes uint64
	stalled        bool // a burst was never absorbed
}

// liveStream drives the engine open-loop: burst b is due at t0 + b·period
// and is timed from that moment until the engine's frame counter plus its
// shed counter passes the burst's last frame.
func liveStream(p streamParams, in *streamInput, e *ingest.Engine, ctrl *controller, dur time.Duration, base uint64) (streamRun, error) {
	var r streamRun
	period := time.Duration(float64(time.Second) * float64(p.burst) / p.rate)
	maxBursts := int(dur/period) + 1
	r.lat = make([]float64, 0, maxBursts)
	r.lag = make([]float64, 0, maxBursts)
	pr, pw := io.Pipe()
	served := make(chan error, 1)
	go func() {
		_, err := e.ServeConn(pr)
		served <- err
	}()
	m0, b0 := mallocs()
	c0 := cpuTime()
	t0 := time.Now().Add(time.Millisecond)
	ctrl.start(e, t0)
	var target uint64
	for b := 0; b < maxBursts; b++ {
		due := t0.Add(time.Duration(b) * period)
		sleepUntil(due, nil)
		r.lag = append(r.lag, us(time.Since(due)))
		buf, fs := in.burstAt(b)
		if _, err := pw.Write(buf); err != nil {
			ctrl.stopAndWait()
			return r, fmt.Errorf("stream write: %w", err)
		}
		target += uint64(len(fs))
		if !waitAbsorbed(e, target, 0) {
			// The ledger is broken: frames were accepted and never
			// delivered. End the run; the ledger check reports it.
			r.stalled = true
			break
		}
		r.lat = append(r.lat, us(time.Since(due)))
		r.bursts++
	}
	r.elapsed = time.Since(t0)
	r.cpu = cpuTime() - c0
	ctrl.stopAndWait()
	m1, b1 := mallocs()
	r.mallocs, r.bytes = m1-m0, b1-b0
	r.ctrl = ctrl.samples
	r.offered = target
	pw.Close()
	if err := <-served; err != nil {
		return r, fmt.Errorf("ServeConn: %w", err)
	}
	r.stats = e.Stats()
	if h := liveHeap(); h > base {
		r.state = h - base
	}
	return r, nil
}

// runStream is the stream-ctrl workload.
func runStream(p streamParams, budget time.Duration, trace bool) *outcome {
	o := &outcome{stamp: hostStamp("stream-ctrl", p.seed)}
	in := genStream(p)
	dig := in.digest()
	o.stamp.InputFNV, o.stamp.InputFrames = dig.sum(), dig.frames

	dur := budget
	if trace {
		dur = budget / 2
	}
	ctrl := newController(p.ctrlPeriod, []ctrlOp{opStats, opScrape, opCounters, opSnapshot, opRebind}, int(dur/p.ctrlPeriod)+1)

	// Set-up is timed several times; the last engine serves the run, and
	// the live heap before it is the baseline of state_mb.
	var setups []float64
	var build, popl []float64
	var e *ingest.Engine
	var slot1 p4.EntryID
	var base uint64
	for i := 0; i < p.setups; i++ {
		if e != nil {
			stopEngine(e)
		}
		base = liveHeap()
		var st setupTimes
		var err error
		e, st, err = newEngine(streamShape)
		if err != nil {
			o.checks.expect(false, "setup: %v", err)
			return o
		}
		runtime.LockOSThread()
		t := threadCPU()
		id, err := bindSlot1(e.Runtime())
		st.populate += threadCPU() - t
		runtime.UnlockOSThread()
		if err != nil {
			stopEngine(e)
			o.checks.expect(false, "slot-1 binding: %v", err)
			return o
		}
		slot1 = id
		setups = append(setups, st.total().Seconds())
		build = append(build, float64(st.build)/1e6)
		popl = append(popl, float64(st.populate)/1e6)
	}
	defer func() { stopEngine(e) }()

	ctrl.slot1 = slot1
	run, err := liveStream(p, in, e, ctrl, dur, base)
	if err != nil {
		o.checks.expect(false, "%v", err)
		return o
	}
	s := run.stats
	o.attempted += run.offered
	o.failed += s.ShedFrames
	o.checks.expect(s.Frames+s.ShedFrames == run.offered,
		"stream ledger: frames %d + shed %d != offered %d after burst %d (the stream stops at the first burst not absorbed within %v)",
		s.Frames, s.ShedFrames, run.offered, run.bursts, absorbTimeout)
	o.checks.expect(s.Switch.ParseErrors == 0, "stream: %d parse errors", s.Switch.ParseErrors)
	cs := summarizeCtrl(run.ctrl)
	o.attempted += cs.calls
	o.failed += cs.errors
	o.checks.expect(cs.errors == 0, "controller: %d failed calls (first: %v)", cs.errors, cs.firstErr)

	// The datapath's result must equal a serial runtime fed the same frames
	// (when nothing was shed, the frames it saw are exactly the offered ones).
	got := e.MergedSnapshot()
	frames := func(yield func(uint64, []byte)) {
		for b := 0; b < run.bursts; b++ {
			_, fs := in.burstAt(b)
			for _, f := range fs {
				yield(f.ts, f.data)
			}
		}
	}
	if !o.checks.ok() {
		return o // a broken ledger leaves nothing to compare or trace
	}
	if s.ShedFrames == 0 {
		ref, err := computeReference(streamShape, func(b binder) error { _, err := bindSlot1(b); return err }, frames)
		if err != nil {
			o.checks.expect(false, "reference: %v", err)
			return o
		}
		o.checks.expect(snapshotsEqual(got, ref.snap, false), "stream: merged registers differ from the serial reference")
		o.checks.expect(s.AlertsTotal == ref.digests, "stream: %d alerts, reference %d digests", s.AlertsTotal, ref.digests)
	}
	o.note("stream-ctrl: %d bursts of %d at %.0f frames/s, burst p50 %.1f us p99 %.1f us, ctrl p50 %.1f us p99 %.1f us (%d calls), %d alerts",
		run.bursts, p.burst, p.rate, median(run.lat), quantile(run.lat, 0.99), cs.p50, cs.p99, cs.calls, s.AlertsTotal)

	if !trace {
		o.set("cpu_ns_per_pkt", float64(run.cpu)/float64(run.offered), "ns")
		o.set("state_mb", float64(run.state)/(1<<20), "MiB")
		o.set("setup_s", median(setups), "s")
		return o
	}

	setLayerDefaults(o)
	o.set("wall_mpps", float64(s.Frames)/run.elapsed.Seconds()/1e6, "Mpkt/s")
	o.set("stream_p50_us", median(run.lat), "us")
	o.set("p4.allocs_per_pkt", float64(run.mallocs)/float64(run.offered), "count")
	o.set("p4.alloc_bytes_per_pkt", float64(run.bytes)/float64(run.offered), "B")
	o.set("ingest.frames_per_batch", float64(s.Frames)/float64(max(s.Batches, 1)), "count")
	o.set("ingest.shed_frac", float64(s.ShedFrames)/float64(run.offered), "ratio")
	o.set("p4.shard_skew", shardSkew(s.PerShard), "ratio")
	o.set("stat4p4.build_ms", median(build), "ms")
	o.set("stat4p4.populate_ms", median(popl), "ms")
	o.set("stream_p99_us", quantile(run.lat, 0.99), "us")
	o.set("harness.gen_lag_p99_us", quantile(run.lag, 0.99), "us")
	setCtrlLayer(o, cs)
	traceStream(o, in, run, got)
	return o
}

// traceStream is the traced pass of stream-ctrl: each burst goes through
// ServeConn on a decode twin engine, one burst at a time (the time ServeConn
// spends outside the harness reader is the decode span), then through the
// twin pipeline.
func traceStream(o *outcome, in *streamInput, run streamRun, snap *p4.Snapshot) {
	bindExtra := func(b binder) error { _, err := bindSlot1(b); return err }
	tw, err := newTwins(streamShape, bindExtra)
	if err != nil {
		o.checks.expect(false, "twins: %v", err)
		return
	}
	defer tw.close()
	dec, _, err := newEngine(streamShape)
	if err != nil {
		o.checks.expect(false, "decode twin: %v", err)
		return
	}
	defer stopEngine(dec)
	if _, err := bindSlot1(dec.Runtime()); err != nil {
		o.checks.expect(false, "decode twin binding: %v", err)
		return
	}
	tr := newTracer(16 * (run.bursts + 2))
	src := &stepReader{next: make(chan []byte), entered: make(chan int64), t0: tr.t0}
	served := make(chan error, 1)
	go func() {
		_, err := dec.ServeConn(src)
		served <- err
	}()
	var target uint64
	<-src.entered // ServeConn is waiting for the first burst
	for b := 0; b < run.bursts; b++ {
		buf, fs := in.burstAt(b)
		tr.beginBatch()
		src.next <- buf
		end := <-src.entered // ServeConn decoded and flushed the burst
		tr.record("ingest.decode", src.returned, end)
		target += uint64(len(fs))
		w := tr.now()
		if !o.checks.expect(waitAbsorbed(dec, target, 0), "decode twin: burst %d never absorbed", b) {
			break
		}
		tr.record("probe.decode_twin", w, tr.now())
		if err := tw.batch(tr, fs); err != nil {
			o.checks.expect(false, "traced batch: %v", err)
			break
		}
		tr.endBatch()
	}
	close(src.next)
	if err := <-served; err != nil {
		o.checks.expect(false, "decode twin ServeConn: %v", err)
	}
	o.checks.expect(snapshotsEqual(dec.MergedSnapshot(), snap, false), "decode twin: merged registers differ from the untraced run's")
	tw.finish(tr, &o.checks, snap, false, run.stats.AlertsTotal, true)
	tw.setLayerMetrics(o, tr)
	self, _ := selfTimes(tr.spans)
	o.set("ingest.decode_ns", float64(self["ingest.decode"])/float64(tw.frames), "ns")
	// The open loop's wall time per frame is the offered period, so the
	// overhead compares against the untraced run's CPU time per frame.
	untraced := float64(run.cpu) / float64(run.offered)
	rows := append([]layerRow{{name: "ingest.decode", what: "Engine.ServeConn record decode + Producer.Add/Flush"}}, twinRows...)
	rows = append(rows, layerRow{name: "probe.decode_twin", what: "waiting for the decode twin's consumer to absorb the burst", probe: true})
	lines, unattr, traced := layerTable("stream-ctrl", rows, tr.spans, tw.frames, untraced)
	o.report = append(o.report, lines...)
	o.set("harness.unattributed_frac", unattr, "ratio")
	o.set("harness.trace_overhead", traced/untraced, "ratio")
	o.checks.expect(unattr <= 0.10, "traced layers leave %.1f%% of the traced time unattributed (margin 10%%)", 100*unattr)
	o.spans = tr.spans
}

// stepReader hands ServeConn one burst per Read and reports, on entered,
// the moment ServeConn comes back for more: the time between a Read
// returning and the next Read call is ServeConn's own busy time.
type stepReader struct {
	next     chan []byte
	entered  chan int64
	pending  []byte
	returned int64     // ns since t0 of the last Read return; read after entered
	t0       time.Time // the tracer's clock origin
}

func (r *stepReader) Read(p []byte) (int, error) {
	if len(r.pending) == 0 {
		r.entered <- int64(time.Since(r.t0))
		buf, ok := <-r.next
		if !ok {
			return 0, io.EOF
		}
		r.pending = buf
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	r.returned = int64(time.Since(r.t0))
	return n, nil
}
