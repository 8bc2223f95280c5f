package stat4p4

import (
	"fmt"
	"sort"

	"stat4/internal/intstat"
)

// This file is the one register read path, shared by Runtime and
// ShardedRuntime exactly as control.go's write path is. Every read returns
// what one switch that saw every replica's traffic would hold:
//
//   - additive registers (counters, the HH reject counter, the flow ledger)
//     are summed cell-wise across replicas and masked to the cell width;
//   - candidate and flow tables are replica-local, so they merge by key;
//   - derived scalars (moments, entropy) are the registers themselves on one
//     replica, and are recomputed from the summed counters with the emitted
//     arithmetic on more than one.
//
// A serial runtime is the one-replica case: its sums are the registers, and
// no merge step runs.

// UnmergedSlotError is returned by a multi-replica ReadMoments of a slot
// whose moments are per-replica state rather than a function of the summed
// counters, so they have no merged form. Kind names the binding:
//
//   - "window": a window's scalars are interval state driven by each
//     replica's clock;
//   - "flow": a flow slot's moments run over its replica-local flow table
//     (stat.ftcnt), and its counter array stays empty.
//
// Each shard's moments are read through its own runtime.
type UnmergedSlotError struct {
	Slot int
	Kind string
}

func (e *UnmergedSlotError) Error() string {
	return fmt.Sprintf("stat4p4: slot %d is a %s slot, which has no merged moments; read ShardRuntime(i).ReadMoments(%d) for each shard i", e.Slot, e.Kind, e.Slot)
}

// cells reads n cells of each named register from every replica, starting
// at cell slot·stride: out[r][i] holds register names[r] on replica i. A
// per-slot scalar is stride 1, n 1.
func (c *control) cells(slot, stride, n int, names ...string) ([][][]uint64, error) {
	if slot < 0 || slot >= c.lib.Opts.Slots {
		return nil, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	out := make([][][]uint64, len(names))
	for r, name := range names {
		out[r] = make([][]uint64, len(c.reps))
		for i, sw := range c.reps {
			reg, err := sw.Register(name)
			if err != nil {
				return nil, err
			}
			cells := make([]uint64, n)
			for j := range cells {
				cells[j], _ = reg.Read(slot*stride + j)
			}
			out[r][i] = cells
		}
	}
	return out, nil
}

// sum reads an additive register span, summed cell-wise across replicas and
// masked to the cell width.
func (c *control) sum(name string, slot, stride, n int) ([]uint64, error) {
	per, err := c.cells(slot, stride, n, name)
	if err != nil {
		return nil, err
	}
	out, mask := per[0][0], c.lib.cellMask()
	for _, cells := range per[0][1:] {
		for j := range out {
			out[j] = (out[j] + cells[j]) & mask
		}
	}
	return out, nil
}

// scalars reads per-slot scalar registers into dst, each summed across
// replicas.
func (c *control) scalars(slot int, regs []string, dst ...*uint64) error {
	for i, reg := range regs {
		v, err := c.sum(reg, slot, 1, 1)
		if err != nil {
			return err
		}
		*dst[i] = v[0]
	}
	return nil
}

// ReadCounters reads a distribution's counter cells — what a sketch-only
// controller would pull. n limits how many cells are returned (≤ Size, 0 for
// all).
func (c *control) ReadCounters(slot, n int) ([]uint64, error) {
	if n <= 0 || n > c.lib.Opts.Size {
		n = c.lib.Opts.Size
	}
	return c.sum(RegCounters, slot, c.lib.Opts.Size, n)
}

// ReadMoments reads a distribution's measures. On more than one replica the
// moments and σ are recomputed from the summed counters with the emitted
// arithmetic and the marker is re-derived from them; MedianMoves is the one
// additive exception — it sums the replicas' movement counters, total marker
// work across the fleet rather than the path length of any serial marker.
// A window or flow slot on more than one replica returns *UnmergedSlotError.
func (c *control) ReadMoments(slot int) (Moments, error) {
	var m Moments
	if err := c.scalars(slot, []string{RegMedMoves}, &m.MedianMoves); err != nil {
		return Moments{}, err
	}
	if len(c.reps) == 1 {
		err := c.scalars(slot, []string{RegN, RegXsum, RegXsumsq, RegVar, RegSD, RegMed},
			&m.N, &m.Xsum, &m.Xsumsq, &m.Var, &m.SD, &m.Median)
		return m, err
	}
	if kind, ok := c.local[slot]; ok {
		return Moments{}, &UnmergedSlotError{Slot: slot, Kind: kind}
	}
	counters, err := c.ReadCounters(slot, 0)
	if err != nil {
		return Moments{}, err
	}
	pa, pb := uint64(1), uint64(1)
	if sb, ok := c.freq[slot]; ok {
		pa, pb = sb.PA, sb.PB
	}
	s := c.lib.recomputeSlot(counters, pa, pb)
	m.N, m.Xsum, m.Xsumsq, m.Var, m.SD, m.Median = s.n, s.xsum, s.xsumsq, s.varv, s.sd, s.med
	return m, nil
}

// ReadEntropy reads a slot's entropy state and derives the scaled form with
// the same intstat arithmetic the datapath uses. On more than one replica T
// and S are rederived from the summed counters, which telescopes to the S a
// serial switch maintains incrementally.
func (c *control) ReadEntropy(slot int) (EntropySnapshot, error) {
	if !c.lib.Opts.Entropy {
		return EntropySnapshot{}, fmt.Errorf("stat4p4: library built without Options.Entropy")
	}
	var total, sum uint64
	if len(c.reps) == 1 {
		if err := c.scalars(slot, []string{RegXsum, RegEntSum}, &total, &sum); err != nil {
			return EntropySnapshot{}, err
		}
		return c.lib.entropySnapshot(total, sum), nil
	}
	counters, err := c.ReadCounters(slot, 0)
	if err != nil {
		return EntropySnapshot{}, err
	}
	mask := c.lib.cellMask()
	for _, f := range counters {
		total += f
		sum += (f * intstat.Log2Fixed(f, c.lib.Opts.EntropyFrac)) & mask
	}
	return c.lib.entropySnapshot(total&mask, sum&mask), nil
}

// ReadHeavyHitters reads a slot's candidate table, heaviest first. Candidate
// buckets are replica-local (shards sample and claim independently), so
// more than one replica's tables merge by key, counts adding.
func (c *control) ReadHeavyHitters(slot int) ([]HHEntry, error) {
	if !c.lib.Opts.HeavyHitter {
		return nil, fmt.Errorf("stat4p4: library built without Options.HeavyHitter")
	}
	n := c.lib.Opts.HHTableSize
	regs, err := c.cells(slot, n, n, RegHHKeys, RegHHCounts)
	if err != nil {
		return nil, err
	}
	keys, counts := regs[0], regs[1]
	var out []HHEntry
	for i := range c.reps {
		for j, cnt := range counts[i] {
			if cnt != 0 {
				out = append(out, HHEntry{Key: keys[i][j], Count: cnt})
			}
		}
	}
	if len(c.reps) > 1 {
		byKey := make(map[uint64]uint64)
		for _, e := range out {
			byKey[e.Key] += e.Count
		}
		out = make([]HHEntry, 0, len(byKey))
		for k, cnt := range byKey {
			out = append(out, HHEntry{Key: k, Count: cnt})
		}
	}
	sortHH(out)
	return out, nil
}

// HHRejected reads a slot's rejected-promotion counter.
func (c *control) HHRejected(slot int) (uint64, error) {
	var rej uint64
	err := c.scalars(slot, []string{RegHHRej}, &rej)
	return rej, err
}

// ReadFlows reads a slot's occupied flow buckets, heaviest first. Buckets
// are replica-local, so more than one replica's tables merge by key: counts
// add, stamps take the freshest.
func (c *control) ReadFlows(slot int) ([]FlowEntry, error) {
	if !c.lib.Opts.FlowTable {
		return nil, fmt.Errorf("stat4p4: library built without Options.FlowTable")
	}
	n := c.lib.Opts.FlowTableSize
	regs, err := c.cells(slot, n, n, RegFTKeys, RegFTStamp, RegFTCnt)
	if err != nil {
		return nil, err
	}
	keys, stamps, counts := regs[0], regs[1], regs[2]
	var out []FlowEntry
	for i := range c.reps {
		for j, s := range stamps[i] {
			if s != 0 {
				out = append(out, FlowEntry{Key: keys[i][j], Count: counts[i][j], Stamp: s})
			}
		}
	}
	if len(c.reps) > 1 {
		byKey := make(map[uint64]FlowEntry)
		for _, e := range out {
			a := byKey[e.Key]
			a.Count += e.Count
			a.Stamp = max(a.Stamp, e.Stamp)
			byKey[e.Key] = a
		}
		out = make([]FlowEntry, 0, len(byKey))
		for k, a := range byKey {
			out = append(out, FlowEntry{Key: k, Count: a.Count, Stamp: a.Stamp})
		}
	}
	sortFlows(out)
	return out, nil
}

// ReadFlowStats reads a slot's admission ledger, summed across replicas
// (exact: every flow is owned by one replica), and the capacity of every
// replica's table together.
func (c *control) ReadFlowStats(slot int) (FlowStats, error) {
	if !c.lib.Opts.FlowTable {
		return FlowStats{}, fmt.Errorf("stat4p4: library built without Options.FlowTable")
	}
	st := FlowStats{Capacity: uint64(len(c.reps) * c.lib.Opts.FlowTableSize)}
	if err := c.scalars(slot, []string{RegFTAdm, RegFTEvt, RegFTRej, RegFTShed},
		&st.Admitted, &st.Evicted, &st.Rejected, &st.Shed); err != nil {
		return FlowStats{}, err
	}
	// Occupied = claims minus reclaims, the conservation half of the
	// flowtable ledger invariant.
	st.Occupied = st.Admitted - st.Evicted
	return st, nil
}

// sortHH orders entries by descending count, then ascending key for
// determinism.
func sortHH(entries []HHEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
}

// sortFlows orders entries by descending count, then ascending key.
func sortFlows(entries []FlowEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
}
