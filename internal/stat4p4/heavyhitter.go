package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// This file emits the probabilistic-recirculation heavy-hitter path. The
// main pass hashes the flow key folded with the ingress timestamp and
// compares k well-mixed bits against zero — a 2^-k coin flip per packet —
// and raises the recirculation flag on heads.
// The single extra pass (internal/p4's structurally-bounded recirculation)
// promotes the sampled key into a small exact-count candidate table with
// 2-way hash probing: a flow sending n packets is promoted with probability
// 1 − (1 − 2^-k)^n, so heavy flows enter the table almost surely while mice
// rarely spend the recirculation budget. Candidate counts tally promotions,
// each representing ≈ 2^k packets of the flow.
//
// The candidate tables are replica-local (shards sample and claim
// independently), so the registers are MergeDerived-with-why: merged
// snapshots zero them and the controller merges candidates by key instead
// (ReadHeavyHitters), keeping the byte-identity contract trivial.

// Heavy-hitter register names.
const (
	RegHHKeys   = "stat.hhkeys" // candidate flow keys, Slots×HHTableSize
	RegHHCounts = "stat.hhcnt"  // promotion counts; 0 marks an empty bucket
	RegHHRej    = "stat.hhrej"  // per-slot rejected promotions (table full)
)

const kindHH = 4

// declareHeavyHitter adds the heavy-hitter registers, binding actions, the
// main-pass sampling block and the recirculation promotion pass.
func (l *Library) declareHeavyHitter() {
	f := &l.f
	std := l.Std
	cells := l.Opts.Slots * l.Opts.HHTableSize
	w := l.Opts.CellWidth

	l.Prog.AddRegister(RegHHKeys, cells, 64)
	l.Prog.SetRegisterMerge(RegHHKeys, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegHHKeys,
		"candidate-table keys are replica-local: shards sample and claim buckets independently; the controller merges candidates by key")
	l.Prog.AddRegister(RegHHCounts, cells, w)
	l.Prog.SetRegisterMerge(RegHHCounts, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegHHCounts,
		"promotion counts keyed by the replica-local candidate table; summed per key by the controller, never cell-wise")
	l.Prog.AddRegister(RegHHRej, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(RegHHRej, p4.MergeSum)

	// bind_hh_src(hhBase, slot, shift, sampleMask): key = ipv4.src >> shift;
	// recirculate when hash(key + ts) & sampleMask == 0 (sampleMask =
	// 2^k − 1). The hh* metadata fields are deliberately private to this
	// mode: they must survive every later binding stage to reach the
	// recirculation pass intact.
	common := []p4.Op{
		p4.Mov(f.hhbase, p4.P(0)),
		p4.Mov(f.hhslot, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindHH)),
	}
	// The coin flip must be per PACKET, not per key: hashing the key alone
	// deterministically partitions the key space, and an elephant whose key
	// lands in the unsampled 1 − 2^-k never recirculates at any rate. Folding
	// the ingress timestamp into the hash input makes each packet an
	// independent trial. The engine's multiply-shift hash also mixes its HIGH
	// bits well and its low bits barely at all (the product's low bits are a
	// bijection of the input's), so the gate takes the high word before
	// masking.
	gate := func() []p4.Op {
		return []p4.Op{
			p4.Add(f.hhgate, p4.F(f.hhkey), p4.F(std.TsNs)),
			p4.Hash(f.hhgate, 0, p4.F(f.hhgate), ^uint64(0)),
			p4.Shr(f.hhgate, p4.F(f.hhgate), p4.C(32)),
			p4.And(f.hhgate, p4.F(f.hhgate), p4.P(3)),
		}
	}
	l.Prog.AddAction(p4.NewAction("bind_hh_src", 4, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.hhkey, p4.F(std.IPv4Src), p4.P(2))),
		gate()...)...))
	// bind_hh_dst(hhBase, slot, shift, sampleMask): per-destination heavy
	// hitters — the elephant-sink view.
	l.Prog.AddAction(p4.NewAction("bind_hh_dst", 4, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.hhkey, p4.F(std.IPv4Dst), p4.P(2))),
		gate()...)...))

	add := func(name string, ops ...p4.Op) {
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}

	// hh_mark: request the single extra pass.
	add("hh_mark", p4.Mov(f.recirc, p4.C(1)))

	// --- recirculation pass actions --------------------------------------

	tmask := uint64(l.Opts.HHTableSize - 1)
	// hh_probe: both candidate buckets; a zero count marks an empty bucket
	// (claims write count 1 first, so an occupied bucket is never zero).
	// Hash functions 1 and 2 are distinct from the sampling hash 0.
	add("hh_probe",
		p4.Hash(f.h1, 1, p4.F(f.hhkey), ^uint64(0)),
		p4.Shr(f.h1, p4.F(f.h1), p4.C(32)),
		p4.And(f.h1, p4.F(f.h1), p4.C(tmask)),
		p4.Add(f.h1, p4.F(f.hhbase), p4.F(f.h1)),
		p4.Hash(f.h2, 2, p4.F(f.hhkey), ^uint64(0)),
		p4.Shr(f.h2, p4.F(f.h2), p4.C(32)),
		p4.And(f.h2, p4.F(f.h2), p4.C(tmask)),
		p4.Add(f.h2, p4.F(f.hhbase), p4.F(f.h2)),
		p4.RegRead(f.k1, RegHHKeys, p4.F(f.h1)),
		p4.RegRead(f.u1, RegHHCounts, p4.F(f.h1)),
		p4.RegRead(f.k2, RegHHKeys, p4.F(f.h2)),
		p4.RegRead(f.u2, RegHHCounts, p4.F(f.h2)),
	)
	add("hh_claim1",
		p4.RegWrite(RegHHKeys, p4.F(f.h1), p4.F(f.hhkey)),
		p4.RegWrite(RegHHCounts, p4.F(f.h1), p4.C(1)),
		p4.EmitDigest(DigestHeavyHitter, f.hhslot, f.hhkey, std.TsNs),
	)
	add("hh_take1",
		p4.Add(f.u1, p4.F(f.u1), p4.C(1)),
		p4.RegWrite(RegHHCounts, p4.F(f.h1), p4.F(f.u1)),
	)
	add("hh_claim2",
		p4.RegWrite(RegHHKeys, p4.F(f.h2), p4.F(f.hhkey)),
		p4.RegWrite(RegHHCounts, p4.F(f.h2), p4.C(1)),
		p4.EmitDigest(DigestHeavyHitter, f.hhslot, f.hhkey, std.TsNs),
	)
	add("hh_take2",
		p4.Add(f.u2, p4.F(f.u2), p4.C(1)),
		p4.RegWrite(RegHHCounts, p4.F(f.h2), p4.F(f.u2)),
	)
	add("hh_reject",
		p4.RegRead(f.t2, RegHHRej, p4.F(f.hhslot)),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.RegWrite(RegHHRej, p4.F(f.hhslot), p4.F(f.t2)),
	)

	eqf := func(a, b p4.FieldID) p4.Cond { return p4.Cond{A: p4.F(a), Op: p4.CmpEq, B: p4.F(b)} }
	l.Prog.SetRecirc(f.recirc, []p4.Stmt{
		p4.Call("hh_probe"),
		p4.If(eq(f.u1, 0),
			p4.Call("hh_claim1"),
		).WithElse(
			p4.If(eqf(f.k1, f.hhkey),
				p4.Call("hh_take1"),
			).WithElse(
				p4.If(eq(f.u2, 0),
					p4.Call("hh_claim2"),
				).WithElse(
					p4.If(eqf(f.k2, f.hhkey),
						p4.Call("hh_take2"),
					).WithElse(
						p4.Call("hh_reject"),
					),
				),
			),
		),
	})
}

// hhBlock is the main-pass side: the bind action already hashed the key and
// masked the sample bits; on a zero gate the packet wins the 2^-k coin flip
// and requests the promotion pass.
func (l *Library) hhBlock() []p4.Stmt {
	return []p4.Stmt{
		p4.If(eq(l.f.hhgate, 0), p4.Call("hh_mark")),
	}
}

// BindHeavyHitterSrc samples flows keyed by (ipv4.src >> shift) with
// recirculation probability 2^-sampleShift, promoting winners into the
// slot's candidate table.
func (c *control) BindHeavyHitterSrc(stage, slot int, m Match, shift, sampleShift uint) (p4.EntryID, error) {
	return c.bindHH(stage, slot, m, "bind_hh_src", shift, sampleShift)
}

// BindHeavyHitterDst samples flows keyed by (ipv4.dst >> shift).
func (c *control) BindHeavyHitterDst(stage, slot int, m Match, shift, sampleShift uint) (p4.EntryID, error) {
	return c.bindHH(stage, slot, m, "bind_hh_dst", shift, sampleShift)
}

func (c *control) bindHH(stage, slot int, m Match, action string, shift, sampleShift uint) (p4.EntryID, error) {
	if !c.lib.Opts.HeavyHitter {
		return 0, fmt.Errorf("stat4p4: library built without Options.HeavyHitter")
	}
	if err := c.checkSlotStage(stage, slot); err != nil {
		return 0, err
	}
	if shift > 32 {
		return 0, fmt.Errorf("stat4p4: heavy-hitter shift %d out of range", shift)
	}
	if sampleShift > 32 {
		return 0, fmt.Errorf("stat4p4: sample shift %d out of range", sampleShift)
	}
	base := uint64(slot * c.lib.Opts.HHTableSize)
	mask := uint64(1)<<sampleShift - 1
	return c.insert(stage, m, action, []uint64{base, uint64(slot), uint64(shift), mask})
}

// HHEntry is one occupied candidate bucket. Count tallies promotions, each
// representing roughly 2^sampleShift packets of the flow.
type HHEntry struct {
	Key   uint64
	Count uint64
}

// MergedHeavyHitters is ReadHeavyHitters.
//
// Deprecated: use ReadHeavyHitters. This forward stays until perfbench/
// moves to the new name.
func (sr *ShardedRuntime) MergedHeavyHitters(slot int) ([]HHEntry, error) {
	return sr.ReadHeavyHitters(slot)
}
