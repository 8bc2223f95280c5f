package stat4p4

import (
	"fmt"
	"sort"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// control is the one binding-table write path and the one register read
// path (read.go), shared by Runtime (one replica) and ShardedRuntime (N
// replicas behind the flow-hash dispatcher). Every write is validated once
// and then applied to each replica in turn, so the replicas stay configured
// identically from birth — the contract the dispatcher's correctness and
// MergedSnapshot's entry view both rest on. A serial switch is simply the
// one-replica case.
//
// Writes must be serialised by the caller (stat4d routes them through
// Engine.Do; the simulator and the commands are single-threaded); they are
// safe against the data plane processing packets. Reads taken while packets
// flow see each replica at a slightly different instant.
type control struct {
	lib  *Library
	reps []*p4.Switch
	// freq records the percentile weights of every bound frequency or
	// entropy slot, the one piece of binding state canonicalisation needs.
	freq map[int]SlotBinding
	// local records the kind ("window" or "flow") of every slot whose
	// moments are per-replica state with no merged form (ReadMoments).
	local map[int]string
}

func newControl(lib *Library, reps ...*p4.Switch) control {
	return control{lib: lib, reps: reps, freq: make(map[int]SlotBinding), local: make(map[int]string)}
}

// Library returns the emitted library.
func (c *control) Library() *Library { return c.lib }

// replicaErr names the replica a multi-replica write failed on.
func (c *control) replicaErr(i int, err error) error {
	if len(c.reps) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// write installs one entry on every replica, asserting the replicas hand
// back the same entry ID — they must, since they are driven identically; a
// divergence means the identical-configuration contract was broken and
// replicated state can no longer be trusted.
func (c *control) write(table string, mv []p4.MatchValue, prio int, action string, args []uint64) (p4.EntryID, error) {
	var id p4.EntryID
	for i, sw := range c.reps {
		got, err := sw.InsertEntry(table, mv, prio, action, args)
		if err != nil {
			return 0, c.replicaErr(i, err)
		}
		if i > 0 && got != id {
			return 0, fmt.Errorf("stat4p4: shard %d assigned entry %d, shard 0 assigned %d — shards configured divergently", i, got, id)
		}
		id = got
	}
	return id, nil
}

// remove deletes one entry from every replica.
func (c *control) remove(table string, id p4.EntryID) error {
	for i, sw := range c.reps {
		if err := sw.DeleteEntry(table, id); err != nil {
			return c.replicaErr(i, err)
		}
	}
	return nil
}

func (c *control) insert(stage int, m Match, action string, args []uint64) (p4.EntryID, error) {
	return c.write(c.lib.BindTables[stage], m.values(), m.Priority, action, args)
}

func (c *control) checkSlotStage(stage, slot int) error {
	if stage < 0 || stage >= c.lib.Opts.Stages {
		return fmt.Errorf("%w: %d of %d", ErrBadStage, stage, c.lib.Opts.Stages)
	}
	if slot < 0 || slot >= c.lib.Opts.Slots {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, c.lib.Opts.Slots)
	}
	return nil
}

func (c *control) commonArgs(slot int) (slotBase, slotID uint64) {
	return uint64(slot * c.lib.Opts.Size), uint64(slot)
}

func (c *control) checkFreq(size int, pa, pb, k uint64) error {
	if size <= 0 || size > c.lib.Opts.Size {
		return fmt.Errorf("%w: %d of %d", ErrBadSize, size, c.lib.Opts.Size)
	}
	if pa == 0 || pb == 0 {
		return fmt.Errorf("stat4p4: percentile weights must be positive")
	}
	if c.lib.Opts.Strict {
		if pa != 1 || pb != 1 {
			return fmt.Errorf("%w: percentile weights %d:%d (strict supports the median only)", ErrStrict, pa, pb)
		}
		if k != 0 && k != 2 {
			return fmt.Errorf("%w: k must be 0 or 2", ErrStrict)
		}
	}
	return nil
}

// bindFreq installs one frequency binding — args are [slot base, slot id,
// mode args..., size, pa, pb, k] — and records the slot's percentile weights.
func (c *control) bindFreq(stage, slot int, m Match, action string, size int, pa, pb, k uint64, mode ...uint64) (p4.EntryID, error) {
	if err := c.checkSlotStage(stage, slot); err != nil {
		return 0, err
	}
	if err := c.checkFreq(size, pa, pb, k); err != nil {
		return 0, err
	}
	sb, id := c.commonArgs(slot)
	args := append(append([]uint64{sb, id}, mode...), uint64(size), pa, pb, k)
	eid, err := c.insert(stage, m, action, args)
	if err == nil {
		c.freq[slot] = SlotBinding{Slot: slot, PA: pa, PB: pb}
	}
	return eid, err
}

// BindFreqEcho tracks the frequency distribution of the echo test integer on
// [0, size): observed value = (wire value + EchoBias) − base. pa:pb are the
// percentile weights (1,1 = median). k ≥ 1 arms the in-switch imbalance
// check at k standard deviations; k = 0 leaves it off.
func (c *control) BindFreqEcho(stage, slot int, m Match, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return c.bindFreq(stage, slot, m, "bind_freq_echo", size, pa, pb, k, base)
}

// BindFreqDst tracks packets per destination group: observed value =
// (ipv4.dst >> shift) − base. shift 8 with a /24-aligned base tracks hosts
// within a /24; shift 16 tracks /24 subnets within a /16, and so on.
func (c *control) BindFreqDst(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	if shift > 32 {
		return 0, fmt.Errorf("stat4p4: dst shift %d out of range", shift)
	}
	return c.bindFreq(stage, slot, m, "bind_freq_dst", size, pa, pb, k, uint64(shift), base)
}

// BindFreqDport tracks packets per TCP destination port group.
func (c *control) BindFreqDport(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return c.bindFreq(stage, slot, m, "bind_freq_dport", size, pa, pb, k, uint64(shift), base)
}

// BindFreqProto tracks packets by IP protocol — the traffic-classification
// use case of Table 1.
func (c *control) BindFreqProto(stage, slot int, m Match, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return c.bindFreq(stage, slot, m, "bind_freq_proto", size, pa, pb, k, base)
}

// BindFreqLen tracks the frame-size distribution in 2^shift-byte buckets.
func (c *control) BindFreqLen(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return c.bindFreq(stage, slot, m, "bind_freq_len", size, pa, pb, k, uint64(shift), base)
}

func (c *control) checkWindow(stage, slot int, intervalShift uint, capacity int) error {
	if err := c.checkSlotStage(stage, slot); err != nil {
		return err
	}
	if capacity <= 0 || capacity > c.lib.Opts.Size {
		return fmt.Errorf("%w: window capacity %d of %d", ErrBadSize, capacity, c.lib.Opts.Size)
	}
	if intervalShift >= 64 {
		return fmt.Errorf("stat4p4: interval shift %d out of range", intervalShift)
	}
	return nil
}

// BindWindow tracks packets per time interval in a circular window of the
// given capacity, checking each completed interval against mean + k·σ.
// Interval length is 2^intervalShift nanoseconds (2^23 ≈ 8.4 ms, the
// case-study default). On a sharded data plane each shard maintains its own
// window over its share of the traffic; per-interval totals combine with
// the shared-clock core.Window merge, not through CanonicalizeSnapshot.
func (c *control) BindWindow(stage, slot int, m Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	if err := c.checkWindow(stage, slot, intervalShift, capacity); err != nil {
		return 0, err
	}
	if c.lib.Opts.Strict {
		if capacity != 1<<c.lib.Opts.StrictCapShift {
			return 0, fmt.Errorf("%w: window capacity must be %d", ErrStrict, 1<<c.lib.Opts.StrictCapShift)
		}
		if k != 2 {
			return 0, fmt.Errorf("%w: k must be 2", ErrStrict)
		}
	}
	return c.bindWindow(stage, slot, m, "bind_window", intervalShift, capacity, k)
}

// BindWindowBytes tracks bytes per time interval ("traffic volumes over
// time"): each packet adds its wire length to the current interval. Only
// available on multiply-capable targets (the squared accumulator needs
// 2·cur·δ + δ²).
func (c *control) BindWindowBytes(stage, slot int, m Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	if c.lib.Opts.Strict {
		return 0, fmt.Errorf("%w: byte-counting windows need runtime multiplication", ErrStrict)
	}
	if err := c.checkWindow(stage, slot, intervalShift, capacity); err != nil {
		return 0, err
	}
	return c.bindWindow(stage, slot, m, "bind_window_bytes", intervalShift, capacity, k)
}

// bindWindow installs one window binding and records the slot as a window.
func (c *control) bindWindow(stage, slot int, m Match, action string, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	sb, id := c.commonArgs(slot)
	eid, err := c.insert(stage, m, action, []uint64{sb, id, uint64(intervalShift), uint64(capacity), k})
	if err == nil {
		c.local[slot] = "window"
	}
	return eid, err
}

// AddRoute installs an LPM forwarding route: IPv4 packets into the prefix
// leave on the given port.
func (c *control) AddRoute(prefix packet.Prefix, port uint16) (p4.EntryID, error) {
	return c.write(FwdTable, []p4.MatchValue{{Value: uint64(prefix.Addr), PrefixLen: prefix.Len}},
		0, "fwd_set_port", []uint64{uint64(port)})
}

// AddDropRoute installs an LPM blackhole route — the paper's "locally react
// to anomalies (e.g., rate limiting some flows)" in its bluntest form.
func (c *control) AddDropRoute(prefix packet.Prefix) (p4.EntryID, error) {
	return c.write(FwdTable, []p4.MatchValue{{Value: uint64(prefix.Addr), PrefixLen: prefix.Len}},
		0, "fwd_drop", nil)
}

// DelRoute removes a forwarding entry.
func (c *control) DelRoute(id p4.EntryID) error { return c.remove(FwdTable, id) }

// Unbind removes a binding entry.
func (c *control) Unbind(stage int, id p4.EntryID) error {
	if stage < 0 || stage >= c.lib.Opts.Stages {
		return fmt.Errorf("%w: %d", ErrBadStage, stage)
	}
	return c.remove(c.lib.BindTables[stage], id)
}

// ResetSlot zeroes a distribution's counters, squares and metadata so the
// slot can be rebound to a new value of interest, and forgets the slot's
// recorded bindings.
func (c *control) ResetSlot(slot int) error {
	if slot < 0 || slot >= c.lib.Opts.Slots {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	spans := c.lib.slotSpans()
	for i, sw := range c.reps {
		for _, sp := range spans {
			reg, err := sw.Register(sp.reg)
			if err != nil {
				return c.replicaErr(i, err)
			}
			for cell := slot * sp.cells; cell < (slot+1)*sp.cells; cell++ {
				if err := reg.WriteCell(cell, 0); err != nil {
					return c.replicaErr(i, err)
				}
			}
		}
	}
	delete(c.freq, slot)
	delete(c.local, slot)
	return nil
}

// slotSpan is one register region a slot owns: cells consecutive cells
// starting at slot·cells (1 for per-slot scalars).
type slotSpan struct {
	reg   string
	cells int
}

// slotSpans lists every register region a slot owns in the emitted program.
func (l *Library) slotSpans() []slotSpan {
	o := l.Opts
	spans := []slotSpan{{RegCounters, o.Size}, {RegSquares, o.Size}}
	if o.Sparse {
		spans = append(spans, slotSpan{RegKeys, o.Size}, slotSpan{RegUsedBits, o.Size}, slotSpan{RegRejected, 1})
	}
	if o.Entropy {
		spans = append(spans, slotSpan{RegEntCell, o.Size}, slotSpan{RegEntSum, 1})
	}
	if o.HeavyHitter {
		spans = append(spans, slotSpan{RegHHKeys, o.HHTableSize}, slotSpan{RegHHCounts, o.HHTableSize}, slotSpan{RegHHRej, 1})
	}
	if o.FlowTable {
		for _, r := range []string{RegFTKeys, RegFTStamp, RegFTCnt} {
			spans = append(spans, slotSpan{r, o.FlowTableSize})
		}
		for _, r := range []string{RegFTAdm, RegFTEvt, RegFTRej, RegFTShed} {
			spans = append(spans, slotSpan{r, 1})
		}
	}
	for _, r := range ScalarRegisters {
		spans = append(spans, slotSpan{r, 1})
	}
	return spans
}

// FreqSlots returns the recorded frequency-slot bindings in slot order — the
// slot list MergedSnapshot canonicalises, and the one a serial reference
// passes to CanonicalizeSnapshot.
func (c *control) FreqSlots() []SlotBinding {
	out := make([]SlotBinding, 0, len(c.freq))
	for _, sb := range c.freq {
		out = append(out, sb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}
