// Allocation regression tests for the data plane: after the compile step and
// scratch-reuse work, one packet through the switch must not allocate. These
// pin the property so a future change that re-introduces a per-packet
// allocation fails loudly rather than showing up as a benchmark regression.
//
// Every test runs with a telemetry observer attached: the observability layer
// rides the per-packet path (cost histogram, digest emit stamps), so the
// zero-alloc guarantee is pinned with recording enabled, not just without.
package stat4

import (
	"testing"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// warmupPackets runs enough traffic to take every lazily-grown buffer (deparse
// buffer, digest channel headroom) to steady state before measuring.
const warmupPackets = 4096

// attachTelemetry installs a fresh SwitchMetrics observer so the measured
// path includes the telemetry recorders.
func attachTelemetry(sw *p4.Switch) *telemetry.SwitchMetrics {
	obs := telemetry.NewSwitchMetrics(0)
	sw.SetObserver(obs)
	return obs
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/packet, want 0", name, avg)
	}
}

func TestProcessPacketZeroAllocFreq(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 0, 0, 256, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	}
	assertZeroAllocs(t, "freq", func() {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

func TestProcessPacketZeroAllocWindow(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindWindow(0, 0, stat4p4.AllIPv4(), 10, 100, 2); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	// Perfectly steady traffic: interval folds happen, anomaly digests don't.
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts += 10
		sw.ProcessPacket(ts, 1, pkt)
	}
	assertZeroAllocs(t, "window", func() {
		ts += 10
		sw.ProcessPacket(ts, 1, pkt)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

func TestProcessPacketZeroAllocSparse(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Sparse: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindSparseDst(0, 0, stat4p4.AllIPv4(), 0, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.ParseIP4(203, 0, 113, 9), 5, 80, 10).Serialize())
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	}
	assertZeroAllocs(t, "sparse", func() {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestProcessFrameZeroAllocEcho covers the full frame path — parse into the
// packet scratch, frequency update, median step, reply deparse into the
// reused buffer — for the echo validation app.
func TestProcessFrameZeroAllocEcho(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 512, Stages: 1, Echo: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqEcho(0, 0, stat4p4.EchoOnly(), stat4p4.EchoBias-255, 512, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	frame := packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 42).Serialize()
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		if out := sw.ProcessFrame(ts, 1, frame); len(out) != 1 {
			t.Fatal("no echo reply")
		}
	}
	assertZeroAllocs(t, "echo", func() {
		ts++
		sw.ProcessFrame(ts, 1, frame)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestProcessBatchZeroAlloc pins the batch entry point: the loop and emit
// callback must add nothing on top of the per-frame path.
func TestProcessBatchZeroAlloc(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 0, 0, 256, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	frame := packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize()
	batch := make([]p4.FrameIn, 64)
	ts := uint64(0)
	for i := range batch {
		ts++
		batch[i] = p4.FrameIn{TsNs: ts, Port: 1, Data: frame}
	}
	var seen int
	emit := func(p4.FrameOut) { seen++ }
	sw.ProcessBatch(batch, emit)
	assertZeroAllocs(t, "batch", func() {
		sw.ProcessBatch(batch, emit)
	})
	if seen == 0 {
		t.Fatal("emit never called")
	}
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestNetemInjectZeroAllocEcho pins the simulated end-to-end path under the
// wheel engine: scheduling the packet-arrival event, dispatching it through
// the switch, and delivering the reply frame over a pooled link buffer must
// add zero allocations on top of the (already zero-alloc) datapath. This is
// the simulator-side guarantee the timer wheel exists for — the original
// heap scheduler (now a test oracle) allocated a closure and a frame copy
// per event.
func TestNetemInjectZeroAllocEcho(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 512, Stages: 1, Echo: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqEcho(0, 0, stat4p4.EchoOnly(), stat4p4.EchoBias-255, 512, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Switch()
	obs := attachTelemetry(sw)
	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, sw, 500)
	node.OnDigest = func(now uint64, d p4.Digest) {}
	var delivered int
	// Echo replies egress on the ingress port.
	node.Connect(1, 100, func(now uint64, data []byte) { delivered++ })

	pkt, _ := packet.Parse(packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 42).Serialize())
	ts := uint64(0)
	step := func() {
		ts += 200
		node.Inject(ts, 1, traffic.Pkt{TsNs: ts, Frame: pkt})
		sim.RunUntil(ts + 150)
	}
	for i := 0; i < warmupPackets; i++ {
		step()
	}
	assertZeroAllocs(t, "netem-echo", func() {
		step()
	})
	if delivered == 0 {
		t.Fatal("no echo replies delivered over the link")
	}
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestShardedProcessBatchZeroAlloc pins the sharded hot path: once the
// per-shard partition, output and digest buffers reach steady state, a batch
// through the dispatcher — partition, concurrent shard runs, ordered
// reduction — must not allocate, per shard or in the fan-out itself.
func TestShardedProcessBatchZeroAlloc(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.BindFreqDst(0, 0, stat4p4.AllIPv4(), 0, 0, 256, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	ss := sr.Sharded()
	obs := make([]*telemetry.SwitchMetrics, ss.NumShards())
	for i := range obs {
		obs[i] = attachTelemetry(ss.Shard(i))
	}
	batch := make([]p4.FrameIn, 64)
	for i := range batch {
		// Spread flows so every shard owns a partition.
		frame := packet.NewUDPFrame(packet.IP4(uint32(i)), packet.IP4(200+uint32(i%8)), uint16(5+i), 80, 10).Serialize()
		batch[i] = p4.FrameIn{TsNs: uint64(i), Port: 1, Data: frame}
	}
	var seen int
	emit := func(p4.FrameOut) { seen++ }
	for i := 0; i < warmupPackets/len(batch); i++ {
		ss.ProcessBatch(batch, emit)
	}
	assertZeroAllocs(t, "sharded-batch", func() {
		ss.ProcessBatch(batch, emit)
	})
	if seen == 0 {
		t.Fatal("emit never called")
	}
	var shardsHit int
	for _, o := range obs {
		if o.Cost.Count() > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Fatalf("traffic reached %d shards, want at least 2", shardsHit)
	}
}
