package ingest

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// newBoundRuntime builds a 1-slot dst24 frequency app over n shards.
func newBoundRuntime(t testing.TB, shards int, k uint64) *stat4p4.ShardedRuntime {
	t.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, 0x0a0000, 256, 1, 1, k); err != nil {
		sr.Close()
		t.Fatal(err)
	}
	return sr
}

// testFrames builds count UDP frames spread over flows and /24 buckets.
func testFrames(count int) [][]byte {
	frames := make([][]byte, count)
	for i := range frames {
		dst := packet.ParseIP4(10, 0, byte(i%7), byte(i%50))
		src := packet.ParseIP4(192, 0, 2, byte(i%11))
		frames[i] = packet.NewUDPFrame(src, dst, uint16(1000+i%13), 80, i%32).Serialize()
	}
	return frames
}

// TestEngineMatchesSerial pushes the same frames through the ingest plane
// and through a serial reference switch and compares the merged moments —
// the ring handoff must be invisible to the statistics.
func TestEngineMatchesSerial(t *testing.T) {
	frames := testFrames(5000)

	// Reference: serial runtime, same binding.
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, 0x0a0000, 256, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		rt.Switch().ProcessFrame(uint64(i+1), 1, f)
	}
	want, err := rt.ReadMoments(0)
	if err != nil {
		t.Fatal(err)
	}

	sr := newBoundRuntime(t, 4, 0)
	defer sr.Close()
	e := New(sr, Config{})
	p := e.NewProducer()
	for i, f := range frames {
		if !p.AddWait(uint64(i+1), 1, f) {
			t.Fatalf("frame %d refused", i)
		}
	}
	p.FlushWait()
	p.Close()
	e.Stop()

	if got := e.Frames(); got != uint64(len(frames)) {
		t.Fatalf("consumed %d frames, want %d", got, len(frames))
	}
	var got stat4p4.Moments
	e.Do(func() { got, err = e.Runtime().ReadMoments(0) })
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Xsum != want.Xsum || got.Xsumsq != want.Xsumsq ||
		got.Var != want.Var || got.SD != want.SD || got.Median != want.Median {
		t.Fatalf("merged moments %+v, serial reference %+v", got, want)
	}
	if sb, sf := e.Shed(); sb != 0 || sf != 0 {
		t.Fatalf("lossless load shed %d batches / %d frames", sb, sf)
	}
}

// TestEngineServeConn drives the wire protocol end to end over an in-memory
// connection, including the idle flush and the record validation.
func TestEngineServeConn(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()

	client, server := net.Pipe()
	frames := testFrames(300)
	done := make(chan error, 1)
	go func() {
		defer client.Close()
		var buf bytes.Buffer
		for i, f := range frames {
			if err := WriteRecord(&buf, uint64(i+1), 7, f); err != nil {
				done <- err
				return
			}
		}
		_, err := client.Write(buf.Bytes())
		done <- err
	}()
	n, err := e.ServeConn(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(frames)) {
		t.Fatalf("served %d records, want %d", n, len(frames))
	}
	for e.Frames() < uint64(len(frames)) {
		runtime.Gosched()
	}
	st := e.Stats()
	if st.Switch.PktsIn != uint64(len(frames)) {
		t.Fatalf("datapath saw %d frames, want %d", st.Switch.PktsIn, len(frames))
	}

	// A record with an impossible length is a protocol error.
	bad := append([]byte(nil), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
	if _, err := e.ServeConn(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// A truncated frame is too.
	var tr bytes.Buffer
	_ = WriteRecord(&tr, 1, 1, frames[0])
	if _, err := e.ServeConn(bytes.NewReader(tr.Bytes()[:tr.Len()-3])); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestEngineServeConnMixedBursts streams 32-frame bursts of 64/576/1500 B
// frames, so a batch outgrows one slab block and the producer must roll
// over to fresh blocks. Every record must reach the datapath intact:
// consumed + shed == offered after each burst, nothing shed, and the merged
// counters match the per-/24 destinations that were sent.
func TestEngineServeConnMixedBursts(t *testing.T) {
	const bursts, burst = 24, 32
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{RingCap: 64, SlabBlocks: 64, BlockSize: 8 << 10, BatchFrames: burst})
	defer e.Stop()

	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() {
		_, err := e.ServeConn(server)
		served <- err
	}()
	sizes := [...]int{64, 576, 1500}
	want := make([]uint64, 256)
	offered := uint64(0)
	for b := 0; b < bursts; b++ {
		var buf bytes.Buffer
		for i := 0; i < burst; i++ {
			bucket := (b + i) % 7
			dst := packet.ParseIP4(10, 0, byte(bucket), byte(i))
			f := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, byte(b)), dst, uint16(1000+i), 80, sizes[(b+i)%3]-42).Serialize()
			if err := WriteRecord(&buf, offered+1, 1, f); err != nil {
				t.Fatal(err)
			}
			want[bucket]++
			offered++
		}
		if _, err := client.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, shed := e.Shed()
			if e.Frames()+shed == offered {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("burst %d: consumed %d + shed %d != offered %d", b, e.Frames(), shed, offered)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	client.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if _, shed := e.Shed(); shed != 0 {
		t.Fatalf("paced stream shed %d frames", shed)
	}
	if in := e.Stats().Switch.PktsIn; in != offered {
		t.Fatalf("datapath saw %d frames, want %d", in, offered)
	}
	var got []uint64
	var err error
	e.Do(func() { got, err = e.Runtime().ReadCounters(0, 0) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counter[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestEngineBackpressureSheds saturates a tiny ingest plane with the
// consumer unable to keep up (it is blocked inside a Do) and checks the shed
// ledger adds up — frames are never silently lost.
func TestEngineBackpressureSheds(t *testing.T) {
	sr := newBoundRuntime(t, 1, 0)
	defer sr.Close()
	e := New(sr, Config{RingCap: 2, SlabBlocks: 2, BlockSize: 4096, BatchFrames: 4})
	defer e.Stop()

	// Hold the consumer hostage so nothing drains.
	gate := make(chan struct{})
	holding := make(chan struct{})
	go e.Do(func() { close(holding); <-gate })
	<-holding

	frames := testFrames(200)
	p := e.NewProducer()
	accepted := 0
	for i, f := range frames {
		if p.Add(uint64(i+1), 1, f) {
			accepted++
		}
	}
	p.Close()
	close(gate)
	e.Stop()

	_, shedFrames := e.Shed()
	if shedFrames == 0 {
		t.Fatal("saturation shed nothing")
	}
	if got := e.Frames() + shedFrames; got != uint64(len(frames)) {
		t.Fatalf("consumed %d + shed %d != offered %d", e.Frames(), shedFrames, len(frames))
	}
}

// TestEngineShedLedgerConcurrent drives both shed paths at once — slab
// exhaustion (more producers than blocks) and full-ring refusal (consumer
// blocked inside a Do) — from concurrent producers, and checks the global
// ledger is exact: every offered frame is either consumed or accounted to
// the shed counters. Nothing may be double-counted under contention.
func TestEngineShedLedgerConcurrent(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	// 8 producers contending for 4 slab blocks over a 2-deep ring: some Adds
	// lose the block race (slab shed), some flushes hit the full ring (batch
	// shed), and a lucky few land and drain at Stop.
	e := New(sr, Config{RingCap: 2, SlabBlocks: 4, BlockSize: 4096, BatchFrames: 8})
	defer e.Stop()

	gate := make(chan struct{})
	holding := make(chan struct{})
	go e.Do(func() { close(holding); <-gate })
	<-holding

	const producers = 8
	const perProducer = 400
	var wg sync.WaitGroup
	var offered, accepted atomic.Uint64
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := e.NewProducer()
			defer p.Close()
			frames := testFrames(perProducer)
			for i, f := range frames {
				offered.Add(1)
				if p.Add(uint64(w*perProducer+i+1), 1, f) {
					accepted.Add(1)
				}
			}
			p.Flush()
		}(w)
	}
	wg.Wait()
	close(gate)
	e.Stop() // drains whatever made it into the ring

	shedBatches, shedFrames := e.Shed()
	if shedFrames == 0 || shedBatches == 0 {
		t.Fatalf("contention exercised neither shed path: %d batches / %d frames",
			shedBatches, shedFrames)
	}
	if e.Frames() == 0 {
		t.Fatal("nothing drained — the ring never handed off")
	}
	if got := e.Frames() + shedFrames; got != offered.Load() {
		t.Fatalf("ledger leak: consumed %d + shed %d != offered %d",
			e.Frames(), shedFrames, offered.Load())
	}
	// Add's return value must agree with the ledger: a frame reported
	// accepted is in a committed or still-buffered batch, never shed as a
	// frame-level casualty — but an accepted frame can still die with its
	// batch at flush, so accepted ≥ consumed.
	if accepted.Load() < e.Frames() {
		t.Fatalf("consumed %d frames but only %d were accepted", e.Frames(), accepted.Load())
	}
}

// TestEngineDoAfterStop pins the control path's quiesced fallback.
func TestEngineDoAfterStop(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	e.Stop()
	e.Stop() // idempotent

	ran := false
	e.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do after Stop did not run")
	}
	var sb strings.Builder
	if err := e.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineExposition checks the live scrape path: ingest gauges and shard
// series present, exposition valid, alerts surfaced through the sink.
func TestEngineExposition(t *testing.T) {
	sr := newBoundRuntime(t, 2, 2) // k=2 arms the imbalance check
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()

	// Balanced phase across 7 subnets, then one subnet goes hot — the
	// case-study recipe for an imbalance digest.
	p := e.NewProducer()
	ts := uint64(0)
	for _, f := range testFrames(2100) {
		ts++
		p.AddWait(ts, 1, f)
	}
	spike := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), packet.ParseIP4(10, 0, 3, 3), 5, 80, 10).Serialize()
	for i := 0; i < 2000; i++ {
		ts++
		p.AddWait(ts, 1, spike)
	}
	p.FlushWait()
	p.Close()
	for e.Frames() < ts {
		runtime.Gosched()
	}

	var sb strings.Builder
	if err := e.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if _, err := telemetry.ValidateExposition(out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stat4d_ingest_ring_depth",
		"stat4d_ingest_shed_batches 0",
		"stat4d_ingest_frames 4100",
		"stat4d_pkts_in 4100",
		"stat4d_shard0_packet_cost_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	recent, total := e.Alerts()
	if total == 0 || len(recent) == 0 {
		t.Fatal("single-destination spike raised no alerts")
	}
	if len(recent) > 128 {
		t.Fatalf("alert store kept %d digests, cap is 128", len(recent))
	}
	for _, d := range recent {
		if len(d.Values) == 0 {
			t.Fatal("empty digest in alert store")
		}
	}
}

// TestEnginePlayPcap round-trips a recorded capture through the file source.
func TestEnginePlayPcap(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.pcap"
	f, err := createPcap(path, 500)
	if err != nil {
		t.Fatal(err)
	}
	sr := newBoundRuntime(t, 2, 0)
	defer sr.Close()
	e := New(sr, Config{})
	defer e.Stop()
	n, err := e.PlaySource(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(f) {
		t.Fatalf("played %d frames, wrote %d", n, f)
	}
	for e.Frames() < n {
		runtime.Gosched()
	}

	// The directory source plays the same capture once per copy.
	n2, err := e.PlaySource(dir, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("dir source played %d, want %d", n2, n)
	}
}

func createPcap(path string, count int) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)
	frames := testFrames(count)
	for i, fr := range frames {
		if err := w.WriteFrame(uint64(i+1)*1000, fr); err != nil {
			return 0, err
		}
	}
	return len(frames), nil
}

// TestIngestSteadyStateZeroAlloc pins the daemon's per-packet guarantee with
// live observers attached: once the slab, ring and shard buffers are warm, a
// frame through producer → ring → consumer → sharded datapath allocates
// nothing, on any goroutine (AllocsPerRun measures the global allocator).
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	sr := newBoundRuntime(t, 2, 0) // k=0: digest-free, digests allocate by design
	defer sr.Close()
	e := New(sr, Config{BatchFrames: 64})
	defer e.Stop()

	frames := testFrames(64)
	p := e.NewProducer()
	defer p.Close()
	ts := uint64(0)
	pushBatch := func() {
		for _, f := range frames {
			ts++
			p.AddWait(ts, 1, f)
		}
		p.FlushWait()
		target := ts
		for e.Frames() < target {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		pushBatch()
	}
	perRun := testing.AllocsPerRun(100, pushBatch)
	if perPacket := perRun / float64(len(frames)); perPacket != 0 {
		t.Errorf("steady state allocates %.3f/packet (%.1f/batch), want 0", perPacket, perRun)
	}
	if e.sp.Shards[0].Cost.Count() == 0 && e.sp.Shards[1].Cost.Count() == 0 {
		t.Fatal("observers recorded nothing")
	}
}
