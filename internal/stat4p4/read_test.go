package stat4p4

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stat4/internal/intstat"
	"stat4/internal/packet"
	"stat4/internal/traffic"
)

// readsOpts builds every measure the shared read path serves: a frequency
// slot, an entropy slot, a heavy-hitter slot and a flow slot, one stage
// each. The candidate and flow tables are small so rejections and
// evictions are in flight.
var readsOpts = Options{
	Slots: 4, Size: 64, Stages: 4,
	Entropy: true, HeavyHitter: true, HHTableSize: 8,
	FlowTable: true, FlowTableSize: 16,
}

// readAll takes every promoted read of every slot, errors included, keyed by
// read and slot.
func readAll(c *control) map[string]any {
	out := make(map[string]any)
	for slot := 0; slot < readsOpts.Slots; slot++ {
		put := func(name string, v any, err error) {
			key := fmt.Sprintf("%s/%d", name, slot)
			if err != nil {
				out[key] = "error: " + err.Error()
				return
			}
			out[key] = v
		}
		cnt, err := c.ReadCounters(slot, 0)
		put("ReadCounters", cnt, err)
		mom, err := c.ReadMoments(slot)
		put("ReadMoments", mom, err)
		ent, err := c.ReadEntropy(slot)
		put("ReadEntropy", ent, err)
		hh, err := c.ReadHeavyHitters(slot)
		put("ReadHeavyHitters", hh, err)
		rej, err := c.HHRejected(slot)
		put("HHRejected", rej, err)
		fl, err := c.ReadFlows(slot)
		put("ReadFlows", fl, err)
		fs, err := c.ReadFlowStats(slot)
		put("ReadFlowStats", fs, err)
	}
	return out
}

// oldMerge is the controller merge as it was written before the read path
// was shared: one replica's reads per shard, combined by the per-measure
// ShardedRuntime merge methods' arithmetic (counters, moments, entropy,
// candidates, flows, flow ledger), plus the per-shard HHRejected sum the
// commands looped for.
func oldMerge(sr *ShardedRuntime) map[string]any {
	lib := sr.Library()
	mask := lib.cellMask()
	out := make(map[string]any)
	for slot := 0; slot < readsOpts.Slots; slot++ {
		var counters []uint64
		var moves, rejected uint64
		byKeyHH := make(map[uint64]uint64)
		type acc struct{ count, stamp uint64 }
		byKeyFlow := make(map[uint64]acc)
		var fs FlowStats
		for i := 0; i < sr.NumShards(); i++ {
			rt := sr.ShardRuntime(i)
			cells, _ := rt.ReadCounters(slot, 0)
			if counters == nil {
				counters = cells
			} else {
				for j := range counters {
					counters[j] = (counters[j] + cells[j]) & mask
				}
			}
			mm, _ := rt.ReadMoments(slot)
			moves = (moves + mm.MedianMoves) & mask
			hh, _ := rt.ReadHeavyHitters(slot)
			for _, e := range hh {
				byKeyHH[e.Key] += e.Count
			}
			rej, _ := rt.HHRejected(slot)
			rejected += rej
			flows, _ := rt.ReadFlows(slot)
			for _, e := range flows {
				a := byKeyFlow[e.Key]
				a.count += e.Count
				if e.Stamp > a.stamp {
					a.stamp = e.Stamp
				}
				byKeyFlow[e.Key] = a
			}
			st, _ := rt.ReadFlowStats(slot)
			fs.Occupied += st.Occupied
			fs.Admitted += st.Admitted
			fs.Evicted += st.Evicted
			fs.Rejected += st.Rejected
			fs.Shed += st.Shed
			fs.Capacity += st.Capacity
		}
		key := func(name string) string { return fmt.Sprintf("%s/%d", name, slot) }
		out[key("ReadCounters")] = counters

		pa, pb := uint64(1), uint64(1)
		if sb, ok := sr.freq[slot]; ok {
			pa, pb = sb.PA, sb.PB
		}
		s := lib.recomputeSlot(counters, pa, pb)
		out[key("ReadMoments")] = Moments{
			N: s.n, Xsum: s.xsum, Xsumsq: s.xsumsq,
			Var: s.varv, SD: s.sd, Median: s.med, MedianMoves: moves,
		}

		var total, sum uint64
		for _, f := range counters {
			total += f
			sum += (f * intstat.Log2Fixed(f, lib.Opts.EntropyFrac)) & mask
		}
		out[key("ReadEntropy")] = lib.entropySnapshot(total&mask, sum&mask)

		hh := make([]HHEntry, 0, len(byKeyHH))
		for k, c := range byKeyHH {
			hh = append(hh, HHEntry{Key: k, Count: c})
		}
		sort.Slice(hh, func(i, j int) bool {
			if hh[i].Count != hh[j].Count {
				return hh[i].Count > hh[j].Count
			}
			return hh[i].Key < hh[j].Key
		})
		out[key("ReadHeavyHitters")] = hh
		out[key("HHRejected")] = rejected

		flows := make([]FlowEntry, 0, len(byKeyFlow))
		for k, a := range byKeyFlow {
			flows = append(flows, FlowEntry{Key: k, Count: a.count, Stamp: a.stamp})
		}
		sort.Slice(flows, func(i, j int) bool {
			if flows[i].Count != flows[j].Count {
				return flows[i].Count > flows[j].Count
			}
			return flows[i].Key < flows[j].Key
		})
		out[key("ReadFlows")] = flows
		out[key("ReadFlowStats")] = fs
	}
	return out
}

// TestReadsAcrossReplicas is the differential test of the one read path.
// One generated stream drives a serial runtime and 1- and 3-shard runtimes
// bound identically. Every read of every slot must agree between the serial
// runtime and the 1-shard one, and the 3-shard reads must equal the
// per-measure merges the controller used before the read path was shared.
func TestReadsAcrossReplicas(t *testing.T) {
	lib := Build(readsOpts)
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	var srs []*ShardedRuntime
	for _, n := range []int{1, 3} {
		sr, err := NewShardedRuntime(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sr.Close)
		srs = append(srs, sr)
	}
	srcBase := uint64(packet.ParseIP4(192, 168, 0, 0))
	for _, c := range []*control{&rt.control, &srs[0].control, &srs[1].control} {
		_, e1 := c.BindFreqDst(0, 0, AllIPv4(), 0, 0, 64, 1, 3, 0)
		_, e2 := c.BindEntropySrc(1, 1, AllIPv4(), 0, srcBase, 64, 0, 1)
		_, e3 := c.BindHeavyHitterSrc(2, 2, AllIPv4(), 0, 1)
		_, e4 := c.BindFlowDst(3, 3, AllIPv4(), 0, 10, 1, 0, 0)
		if err := errors.Join(e1, e2, e3, e4); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6000; i++ {
		src := packet.ParseIP4(192, 168, 0, byte(rng.Intn(40)))
		dst := packet.IP4(uint32(rng.Intn(64)))
		frame := packet.NewUDPFrame(src, dst, uint16(1024+rng.Intn(8)), 80, 10).Serialize()
		ts := uint64(i) * 300
		rt.Switch().ProcessFrame(ts, 1, frame)
		for _, sr := range srs {
			sr.Sharded().ProcessFrame(ts, 1, frame)
		}
	}

	serial := readAll(&rt.control)
	// Non-vacuity: every measure is live, with rejections and evictions.
	if m := serial["ReadMoments/0"].(Moments); m.N == 0 {
		t.Fatal("test vacuous: frequency slot is empty")
	}
	if e := serial["ReadEntropy/1"].(EntropySnapshot); e.Total == 0 {
		t.Fatal("test vacuous: entropy slot is empty")
	}
	if r := serial["HHRejected/2"].(uint64); r == 0 {
		t.Fatal("test vacuous: no heavy-hitter rejections")
	}
	if fs := serial["ReadFlowStats/3"].(FlowStats); fs.Evicted == 0 {
		t.Fatal("test vacuous: no flow evictions")
	}

	one := readAll(&srs[0].control)
	for k, want := range serial {
		if got := one[k]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 1 shard %+v, serial %+v", k, got, want)
		}
	}
	three, old := readAll(&srs[1].control), oldMerge(srs[1])
	// The per-measure merge read a flow slot's moments from the counter
	// array, which flow slots never write, so it reported zeros; the shared
	// path refuses that read instead (TestFlowSlotReads).
	old["ReadMoments/3"] = "error: " + (&UnmergedSlotError{Slot: 3, Kind: "flow"}).Error()
	for k, want := range old {
		if got := three[k]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 3 shards %+v, per-measure merge %+v", k, got, want)
		}
	}
}

// TestFlowSlotReads pins the flow-slot read contract: a flow slot's moments
// run over its replica-local flow table, not the counter array, so one
// replica reads them from the registers (every live flow, every packet)
// while more than one refuses with *UnmergedSlotError instead of reporting
// the empty counter array's zeros. Each shard's own read still answers, and
// the shards' flows and packets add up to the serial switch's.
func TestFlowSlotReads(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 256})
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	srs := make(map[int]*ShardedRuntime)
	for _, n := range []int{1, 3} {
		sr, err := NewShardedRuntime(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sr.Close)
		srs[n] = sr
	}
	for _, c := range []*control{&rt.control, &srs[1].control, &srs[3].control} {
		if _, err := c.BindFlowSrc(0, 0, AllIPv4(), 0, 30, 8, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	const sources, packets = 97, 3000
	dst := packet.ParseIP4(10, 0, 0, 1)
	for i := 0; i < packets; i++ {
		src := packet.ParseIP4(192, 168, 0, byte(i%sources))
		frame := packet.NewUDPFrame(src, dst, 1000, 80, 0).Serialize()
		rt.Switch().ProcessFrame(uint64(i), 1, frame)
		for _, sr := range srs {
			sr.Sharded().ProcessFrame(uint64(i), 1, frame)
		}
	}

	want, err := rt.ReadMoments(0)
	if err != nil {
		t.Fatal(err)
	}
	if want.N != sources || want.Xsum != packets {
		t.Fatalf("serial flow moments N=%d Xsum=%d, want N=%d Xsum=%d", want.N, want.Xsum, sources, packets)
	}
	if got, err := srs[1].ReadMoments(0); err != nil || got != want {
		t.Fatalf("1-shard flow moments %+v (err %v), serial %+v", got, err, want)
	}

	var ue *UnmergedSlotError
	if m, err := srs[3].ReadMoments(0); !errors.As(err, &ue) || ue.Slot != 0 || ue.Kind != "flow" {
		t.Fatalf("3-shard flow ReadMoments = %+v, err %v; want *UnmergedSlotError for flow slot 0", m, err)
	}
	var n, xsum uint64
	for i := 0; i < srs[3].NumShards(); i++ {
		m, err := srs[3].ShardRuntime(i).ReadMoments(0)
		if err != nil {
			t.Fatalf("shard %d flow read: %v", i, err)
		}
		n += m.N
		xsum += m.Xsum
	}
	if n != sources || xsum != packets {
		t.Fatalf("per-shard flow moments add to N=%d Xsum=%d, want N=%d Xsum=%d", n, xsum, sources, packets)
	}
	if err := srs[3].ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if _, err := srs[3].ReadMoments(0); err != nil {
		t.Fatalf("after ResetSlot the slot is no longer a flow slot: %v", err)
	}
}

// TestWindowSlotReads pins the window-slot read contract on the case-study
// stream: with one replica ReadMoments returns the window registers exactly
// as a serial switch holds them, and with more than one it refuses with
// *UnmergedSlotError rather than treating the interval ring as a frequency
// distribution. ResetSlot forgets the window record.
func TestWindowSlotReads(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	srs := make(map[int]*ShardedRuntime)
	for _, n := range []int{1, 4} {
		sr, err := NewShardedRuntime(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sr.Close)
		srs[n] = sr
	}
	for _, c := range []*control{&rt.control, &srs[1].control, &srs[4].control} {
		if _, err := c.BindWindow(0, 0, AllIPv4(), 20, 32, 2); err != nil {
			t.Fatal(err)
		}
	}

	const end = 100_000_000 // 100 ms
	dests := traffic.CaseStudyDests()
	st := traffic.Merge(
		&traffic.LoadBalanced{Dests: dests, Rate: 20000, End: end, Seed: 1, Jitter: 0.5},
		&traffic.Spike{Dest: dests[3], Rate: 60000, Start: end / 2, End: end, Seed: 2, Jitter: 0.5},
	)
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		frame := p.Frame.Serialize()
		rt.Switch().ProcessFrame(p.TsNs, 1, frame)
		for _, sr := range srs {
			sr.Sharded().ProcessFrame(p.TsNs, 1, frame)
		}
	}

	want, err := rt.ReadMoments(0)
	if err != nil {
		t.Fatal(err)
	}
	if want.N == 0 {
		t.Fatal("test vacuous: window is empty")
	}
	got, err := srs[1].ReadMoments(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("1-shard window moments %+v, serial %+v", got, want)
	}

	var we *UnmergedSlotError
	if _, err := srs[4].ReadMoments(0); !errors.As(err, &we) || we.Slot != 0 || we.Kind != "window" {
		t.Fatalf("4-shard window ReadMoments: err %v, want *UnmergedSlotError for window slot 0", err)
	}
	for i := 0; i < srs[4].NumShards(); i++ {
		if _, err := srs[4].ShardRuntime(i).ReadMoments(0); err != nil {
			t.Fatalf("shard %d window read: %v", i, err)
		}
	}
	if err := srs[4].ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if _, err := srs[4].ReadMoments(0); err != nil {
		t.Fatalf("ReadMoments after ResetSlot: %v", err)
	}
}
