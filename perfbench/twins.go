package main

import (
	"fmt"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// twins is the traced pass's system: the layers of the live pipeline driven
// one public call at a time, in pipeline order, on twin runtimes fed exactly
// the frames the untraced run saw.
//
//   - a: the production twin, telemetry observers attached as ingest.New
//     attaches them; its shards are driven directly (parse, then
//     Switch.ProcessPacket), so each layer gets its own span.
//   - b: the same program with no observer, fed the same parsed packets; the
//     a − b difference is the observer's cost.
//   - c: a sharded twin run through ShardedSwitch.ProcessBatch with its real
//     shard workers; its batch time minus the busiest shard's time on a is
//     the per-batch handoff cost.
//
// All three must end with the reference snapshot.
type twins struct {
	a, b, c *stat4p4.ShardedRuntime

	slab *ring.Slab
	mq   *ring.MPSC

	ins     []p4.FrameIn
	pkts    []packet.Packet
	parsed  []bool
	shardOf []int
	buf     []byte

	frames, forwarded, digests, parseErrs, cDigests uint64
	handoffUs                                       []float64
	shardNs                                         []int64
}

func newTwins(sh shape, extra func(b binder) error) (*twins, error) {
	tw := &twins{
		slab: ring.NewSlab(4, 64<<10),
		mq:   ring.NewMPSC(4),
	}
	var err error
	for _, dst := range []**stat4p4.ShardedRuntime{&tw.a, &tw.b, &tw.c} {
		if *dst, _, err = newSharded(sh); err != nil {
			tw.close()
			return nil, err
		}
		if extra != nil {
			if err = extra(*dst); err != nil {
				tw.close()
				return nil, err
			}
		}
	}
	for _, sr := range []*stat4p4.ShardedRuntime{tw.a, tw.c} {
		sp := telemetry.NewShardedPipeline(sr.NumShards())
		for i := 0; i < sr.NumShards(); i++ {
			sr.Sharded().Shard(i).SetObserver(sp.Shards[i])
		}
	}
	tw.c.Sharded().SetDigestSink(func(p4.Digest) { tw.cDigests++ })
	tw.shardNs = make([]int64, sh.shards)
	return tw, nil
}

func (tw *twins) close() {
	for _, sr := range []*stat4p4.ShardedRuntime{tw.a, tw.b, tw.c} {
		if sr != nil {
			sr.Close()
		}
	}
}

// batch runs one batch of frames through every layer after the source,
// recording a span per layer call group under the open batch root.
func (tw *twins) batch(tr *tracer, frames []frame) error {
	n := len(frames)
	if cap(tw.ins) < n {
		tw.ins = make([]p4.FrameIn, n)
		tw.pkts = make([]packet.Packet, n)
		tw.parsed = make([]bool, n)
		tw.shardOf = make([]int, n)
	}
	ins, pkts, parsed, shardOf := tw.ins[:n], tw.pkts[:n], tw.parsed[:n], tw.shardOf[:n]

	// Slab/ring handoff: the producer half (acquire, append records, push)
	// and the consumer half (pop, iterate records).
	var d ring.Desc
	var herr error
	tr.time("ring.handoff", func() {
		idx, ok := tw.slab.TryAcquire()
		if !ok {
			herr = fmt.Errorf("twin slab exhausted")
			return
		}
		buf := tw.slab.Bytes(idx)[:0:tw.slab.BlockSize()]
		for _, f := range frames {
			if buf, ok = ring.AppendFrame(buf, f.ts, 1, f.data); !ok {
				herr = fmt.Errorf("twin block overflow")
				return
			}
		}
		if !tw.mq.TryPush(ring.Desc{Block: idx, N: uint32(n)}) || !tw.mq.TryPop(&d) {
			herr = fmt.Errorf("twin ring refused the batch")
			return
		}
		it := ring.NewFrameIter(tw.slab.Bytes(d.Block), d.N)
		for i := 0; ; i++ {
			ts, port, data, ok := it.Next()
			if !ok {
				break
			}
			ins[i] = p4.FrameIn{TsNs: ts, Port: port, Data: data}
		}
	})
	if herr != nil {
		return herr
	}

	ssA, ssB := tw.a.Sharded(), tw.b.Sharded()
	tr.time("p4.dispatch", func() {
		for i := range ins {
			shardOf[i] = ssA.ShardOf(ins[i].Data)
		}
	})
	for s := range tw.shardNs {
		tw.shardNs[s] = tr.time("packet.parse", func() {
			for i := range ins {
				if shardOf[i] == s {
					parsed[i] = packet.ParseInto(&pkts[i], ins[i].Data) == nil
				}
			}
		})
		sw := ssA.Shard(s)
		tw.shardNs[s] += tr.time("p4.exec", func() {
			for i := range ins {
				if shardOf[i] == s && parsed[i] {
					if len(sw.ProcessPacket(ins[i].TsNs, ins[i].Port, &pkts[i])) > 0 {
						tw.forwarded++
					}
				}
			}
		})
	}
	tr.time("p4.digest_sink", func() {
		for s := 0; s < ssA.NumShards(); s++ {
			ch := ssA.Shard(s).Digests()
		drain:
			for {
				select {
				case <-ch:
					tw.digests++
				default:
					break drain
				}
			}
		}
	})
	tr.time("p4.deparse", func() {
		for i := range pkts {
			if parsed[i] {
				tw.buf = pkts[i].AppendSerialize(tw.buf[:0])
			}
		}
	})
	for s := 0; s < ssB.NumShards(); s++ {
		sw := ssB.Shard(s)
		tr.time("probe.exec_detached", func() {
			for i := range ins {
				if shardOf[i] == s && parsed[i] {
					sw.ProcessPacket(ins[i].TsNs, ins[i].Port, &pkts[i])
				}
			}
		})
		// b's digests are not under test; keep its mailbox from filling.
		for drained := false; !drained; {
			select {
			case <-sw.Digests():
			default:
				drained = true
			}
		}
	}
	cNs := tr.time("probe.sharded_batch", func() { tw.c.Sharded().ProcessBatch(ins, nil) })
	var busiest int64
	for _, ns := range tw.shardNs {
		busiest = max(busiest, ns)
	}
	tw.handoffUs = append(tw.handoffUs, float64(cNs-busiest)/1e3)
	tr.time("ring.handoff", func() { tw.slab.Release(d.Block) })
	for i := range parsed {
		if !parsed[i] {
			tw.parseErrs++
		}
	}
	tw.frames += uint64(n)
	return nil
}

// finish records the merge span and checks every twin against the
// reference snapshot (registers only when entries is false: a rebinding
// controller renumbers entries but cannot change what the datapath did).
func (tw *twins) finish(tr *tracer, c *checks, want *p4.Snapshot, entries bool, wantDigests uint64, checkDigests bool) {
	tr.beginBatch()
	var snapA *p4.Snapshot
	tr.time("stat4p4.merge", func() { snapA = tw.a.MergedSnapshot() })
	tr.endBatch()
	c.expect(snapshotsEqual(snapA, want, entries), "traced twin a: merged snapshot differs from the untraced run's")
	c.expect(snapshotsEqual(tw.b.MergedSnapshot(), want, entries), "traced twin b (detached): merged snapshot differs")
	c.expect(snapshotsEqual(tw.c.MergedSnapshot(), want, entries), "traced twin c (ProcessBatch): merged snapshot differs")
	c.expect(tw.parseErrs == 0, "traced pass: %d parse errors", tw.parseErrs)
	if checkDigests {
		c.expect(tw.digests == wantDigests, "traced twin a: %d digests, reference %d", tw.digests, wantDigests)
		c.expect(tw.cDigests == wantDigests, "traced twin c: %d digests, reference %d", tw.cDigests, wantDigests)
	}
}

// twinRows are the table rows of the twin pipeline after the source row.
var twinRows = []layerRow{
	{name: "ring.handoff", what: "Slab.TryAcquire/Release, AppendFrame, MPSC.TryPush/TryPop, FrameIter.Next"},
	{name: "p4.dispatch", what: "ShardedSwitch.ShardOf (p4.FlowKey + shard index)"},
	{name: "packet.parse", what: "packet.ParseInto"},
	{name: "p4.exec", what: "Switch.ProcessPacket, observer attached (tables, plan, deparse, observer)"},
	{name: "p4.digest_sink", what: "draining each shard's digest mailbox"},
	{name: "stat4p4.merge", what: "ShardedRuntime.MergedSnapshot (once, at the end)"},
	{name: "p4.deparse", what: "Packet.AppendSerialize of each forwarded frame", probe: true},
	{name: "probe.exec_detached", what: "Switch.ProcessPacket on the twin without observer", probe: true},
	{name: "probe.sharded_batch", what: "ShardedSwitch.ProcessBatch with live shard workers", probe: true},
}

// setLayerMetrics turns the traced pass into the per-layer metrics the twin
// pipeline measures.
func (tw *twins) setLayerMetrics(o *outcome, tr *tracer) {
	self, _ := selfTimes(tr.spans)
	perFrame := func(name string) float64 { return float64(self[name]) / float64(tw.frames) }
	o.set("packet.parse_ns", perFrame("packet.parse"), "ns")
	o.set("p4.exec_ns", perFrame("probe.exec_detached"), "ns")
	o.set("telemetry.observer_ns", perFrame("p4.exec")-perFrame("probe.exec_detached"), "ns")
	o.set("p4.deparse_ns", float64(self["p4.deparse"])/float64(max(tw.forwarded, 1)), "ns")
	o.set("p4.dispatch_ns", perFrame("p4.dispatch"), "ns")
	o.set("p4.digest_sink_ns", perFrame("p4.digest_sink"), "ns")
	o.set("ring.handoff_ns", perFrame("ring.handoff"), "ns")
	o.set("p4.handoff_us", median(tw.handoffUs), "us")
	st := tw.a.Sharded().Stats()
	o.set("p4.digests_per_pkt", float64(tw.digests)/float64(tw.frames), "ratio")
	o.set("p4.recirc_frac", float64(st.Recirculated)/float64(max(st.PktsIn, 1)), "ratio")
}
