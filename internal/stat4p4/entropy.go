package stat4p4

import (
	"fmt"

	"stat4/internal/intstat"
	"stat4/internal/p4"
)

// This file emits the integer-only normalized-entropy measure over a tracked
// frequency distribution, the in-switch counterpart of core.Entropy. The
// datapath maintains
//
//	c_i = f_i · log2fix(f_i)   (one cell per counter cell, RegEntCell)
//	S   = Σ c_i                (one scalar per slot, RegEntSum)
//
// incrementally: each observation reads the cell's old contribution, computes
// the new one from the just-incremented counter, and folds the difference
// into S. All arithmetic wraps mod the cell width, so the incremental S is
// bit-identical to rederiving Σ f·log2fix(f) from the final counters — which
// is exactly how CanonicalizeSnapshot rebuilds both registers from merged
// counters, making sharded merges byte-identical to serial.
//
// The fixed-point log2 is intstat.Log2Fixed emitted as a nested-if binary
// search on the operand's MSB with one leaf action per exponent (the Figure 2
// square-root idiom): at leaf e every shift amount is a compile-time
// constant, so the tree is legal on shift-constant targets. The entropy
// detection itself is division-free: with T = Σf observations,
//
//	H·T·2^frac = T·log2fix(T) − S,
//
// and the collapse check H < h0 becomes T·log2fix(T) − S < h0·T, a
// multiply-and-compare evaluated every checkEvery-th observation.

// Entropy-mode register names.
const (
	RegEntCell = "stat.entcell" // c_i = f_i·log2fix(f_i), Slots×Size cells
	RegEntSum  = "stat.entsum"  // per-slot S = Σ c_i
)

const kindEntropy = 3

// declareEntropy adds the entropy registers, binding actions and update
// actions to the program.
func (l *Library) declareEntropy() {
	f := &l.f
	std := l.Std
	cells := l.Opts.Slots * l.Opts.Size
	w := l.Opts.CellWidth
	// Both registers are pure functions of the counter array, recomputed
	// cell-for-cell by CanonicalizeSnapshot — they are in the recomputed
	// set, not the MergeWhy set.
	l.Prog.AddRegister(RegEntCell, cells, w)
	l.Prog.SetRegisterMerge(RegEntCell, p4.MergeDerived)
	l.Prog.AddRegister(RegEntSum, l.Opts.Slots, w)
	l.Prog.SetRegisterMerge(RegEntSum, p4.MergeDerived)

	common := []p4.Op{
		p4.Mov(f.base, p4.P(0)),
		p4.Mov(f.slotid, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindEntropy)),
	}
	entTail := []p4.Op{
		p4.Mov(f.size, p4.P(4)),
		p4.Mov(f.h0, p4.P(5)),
		p4.Mov(f.entchk, p4.P(6)),
	}
	// bind_ent_dst(slotBase, slot, shift, base, size, h0, chkmask):
	// value = (ipv4.dst >> shift) − base, wrapping like the freq binds so
	// out-of-range values fail the val < size guard instead of aliasing.
	// h0 = threshold·2^EntropyFrac (0 disables the check); chkmask gates the
	// check to observations where T & chkmask == 0.
	l.Prog.AddAction(p4.NewAction("bind_ent_dst", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.t1, p4.F(std.IPv4Dst), p4.P(2)),
		p4.Sub(f.val, p4.F(f.t1), p4.P(3))),
		entTail...)...))
	// bind_ent_src(slotBase, slot, shift, base, size, h0, chkmask): source
	// entropy — the distribution that collapses under a single-source flood
	// and explodes under a spoofed-source DDoS.
	l.Prog.AddAction(p4.NewAction("bind_ent_src", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.t1, p4.F(std.IPv4Src), p4.P(2)),
		p4.Sub(f.val, p4.F(f.t1), p4.P(3))),
		entTail...)...))

	add := func(name string, ops ...p4.Op) {
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}
	slot := p4.F(f.slotid)

	// ent_store: fold the contribution delta into S. The explicit cell-width
	// mask on c_new keeps the field-side arithmetic identical to what the
	// register stores, so the incremental S telescopes to the rederived one
	// at any cell width, not just 64.
	add("ent_store",
		p4.RegRead(f.ecold, RegEntCell, p4.F(f.idx)),
		p4.Mul(f.ec, p4.F(f.fnew), p4.F(f.lf)),
		p4.And(f.ec, p4.F(f.ec), p4.C(l.cellMask())),
		p4.RegWrite(RegEntCell, p4.F(f.idx), p4.F(f.ec)),
		p4.RegRead(f.es, RegEntSum, slot),
		p4.Add(f.es, p4.F(f.es), p4.F(f.ec)),
		p4.Sub(f.es, p4.F(f.es), p4.F(f.ecold)),
		p4.RegWrite(RegEntSum, slot, p4.F(f.es)),
	)
	// ent_chkgate: the check runs when T & chkmask == 0.
	add("ent_chkgate",
		p4.And(f.entg, p4.F(f.xsum), p4.F(f.entchk)),
	)
	// ent_thr: enta = T·log2fix(T), ht = enta − S (the scaled H·T, clamped),
	// entb = h0·T.
	add("ent_thr",
		p4.Mul(f.enta, p4.F(f.xsum), p4.F(f.lt)),
		p4.SatSub(f.ht, p4.F(f.enta), p4.F(f.es)),
		p4.Mul(f.entb, p4.F(f.h0), p4.F(f.xsum)),
	)
	add("ent_alert",
		p4.EmitDigest(DigestEntropy, f.slotid, f.xsum, f.ht, f.entb, std.TsNs),
	)
}

// entropyBlock is the per-packet entropy update: the shared counter/moment
// accumulation, the log2 tree on the fresh counter, the contribution fold,
// and the periodic collapse check.
func (l *Library) entropyBlock() []p4.Stmt {
	f := &l.f
	stmts := []p4.Stmt{
		p4.Call("freq_load"),
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("freq_accum"),
	}
	stmts = append(stmts, l.log2Tree(f.fnew, f.lf)...)
	stmts = append(stmts, p4.Call("ent_store"))

	check := l.log2Tree(f.xsum, f.lt)
	check = append(check,
		p4.Call("ent_thr"),
		p4.If(flt(f.ht, f.entb), p4.Call("ent_alert")),
	)
	stmts = append(stmts,
		p4.If(ne(f.h0, 0),
			p4.Call("ent_chkgate"),
			p4.If(eq(f.entg, 0), check...),
		),
	)
	return stmts
}

// log2Tree emits dst = intstat.Log2Fixed(src, EntropyFrac) as a nested-if
// binary search on src's MSB with one constant-shift leaf per exponent —
// bit-identical to the library function at every input, including the
// src = 0 and src = 1 conventions.
func (l *Library) log2Tree(src, dst p4.FieldID) []p4.Stmt {
	prefix := l.log2LeafPrefix(src, dst)
	return []p4.Stmt{
		p4.If(eq(src, 0),
			p4.Call(prefix+"_zero"),
		).WithElse(
			l.log2Range(prefix, src, 0, 63),
		),
	}
}

func (l *Library) log2Range(prefix string, src p4.FieldID, lo, hi int) p4.Stmt {
	if lo == hi {
		return p4.Call(fmt.Sprintf("%s_%d", prefix, lo))
	}
	mid := (lo + hi + 1) / 2
	return p4.IfStmt{
		Cond: p4.Cond{A: p4.F(src), Op: p4.CmpGe, B: p4.C(1 << uint(mid))},
		Then: []p4.Stmt{l.log2Range(prefix, src, mid, hi)},
		Else: []p4.Stmt{l.log2Range(prefix, src, lo, mid-1)},
	}
}

// log2LeafPrefix names (and lazily declares) the 64 leaf actions plus the
// zero case for one (src, dst) pair. Leaf e computes
// (e << frac) | fraction-bits with the exact Log2Fixed shift layout; at
// EntropyFrac ≤ Log2MaxFrac no uint64 exponent can saturate, so the leaves
// need no sentinel branch.
func (l *Library) log2LeafPrefix(src, dst p4.FieldID) string {
	prefix := fmt.Sprintf("lg_%d_%d", src, dst)
	if l.declaredLogLeaves == nil {
		l.declaredLogLeaves = make(map[string]bool)
	}
	if l.declaredLogLeaves[prefix] {
		return prefix
	}
	l.declaredLogLeaves[prefix] = true
	fr := l.Opts.EntropyFrac
	l.Prog.AddAction(p4.NewAction(prefix+"_zero", 0, p4.Mov(dst, p4.C(0))))
	// e = 0 (src == 1): log2 is exactly 0 at every precision.
	l.Prog.AddAction(p4.NewAction(prefix+"_0", 0, p4.Mov(dst, p4.C(0))))
	for e := 1; e <= 63; e++ {
		ops := []p4.Op{
			// mantissa: clear the MSB.
			p4.Xor(dst, p4.F(src), p4.C(1<<uint(e))),
		}
		// Align the mantissa to the fractional width; the aligned bits are
		// strictly below the e << frac integer part, so Or combines exactly.
		if uint(e) >= fr {
			ops = append(ops, p4.Shr(dst, p4.F(dst), p4.C(uint64(uint(e)-fr))))
		} else {
			ops = append(ops, p4.Shl(dst, p4.F(dst), p4.C(uint64(fr-uint(e)))))
		}
		ops = append(ops, p4.Or(dst, p4.F(dst), p4.C(uint64(e)<<fr)))
		l.Prog.AddAction(p4.NewAction(fmt.Sprintf("%s_%d", prefix, e), 0, ops...))
	}
	return prefix
}

// BindEntropyDst tracks the entropy of the destination-group distribution
// value = (ipv4.dst >> shift) − base on [0, size). h0 arms the in-switch
// collapse check at h0/2^EntropyFrac bits of normalized-scale entropy
// (0 disables it); checkEvery (a power of two) rate-limits the check to
// every checkEvery-th observation.
func (c *control) BindEntropyDst(stage, slot int, m Match, shift uint, base uint64, size int, h0, checkEvery uint64) (p4.EntryID, error) {
	return c.bindEntropy(stage, slot, m, "bind_ent_dst", shift, base, size, h0, checkEvery)
}

// BindEntropySrc tracks the entropy of the source-group distribution — the
// signal that collapses when one source dominates the traffic mix.
func (c *control) BindEntropySrc(stage, slot int, m Match, shift uint, base uint64, size int, h0, checkEvery uint64) (p4.EntryID, error) {
	return c.bindEntropy(stage, slot, m, "bind_ent_src", shift, base, size, h0, checkEvery)
}

func (c *control) bindEntropy(stage, slot int, m Match, action string, shift uint, base uint64, size int, h0, checkEvery uint64) (p4.EntryID, error) {
	if !c.lib.Opts.Entropy {
		return 0, fmt.Errorf("stat4p4: library built without Options.Entropy")
	}
	if err := c.checkSlotStage(stage, slot); err != nil {
		return 0, err
	}
	if size <= 0 || size > c.lib.Opts.Size {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadSize, size, c.lib.Opts.Size)
	}
	if shift > 32 {
		return 0, fmt.Errorf("stat4p4: entropy shift %d out of range", shift)
	}
	if checkEvery == 0 {
		checkEvery = 1
	}
	if checkEvery&(checkEvery-1) != 0 {
		return 0, fmt.Errorf("stat4p4: checkEvery %d is not a power of two", checkEvery)
	}
	sb, id := c.commonArgs(slot)
	eid, err := c.insert(stage, m, action, []uint64{sb, id, uint64(shift), base, uint64(size), h0, checkEvery - 1})
	if err == nil {
		c.freq[slot] = SlotBinding{Slot: slot, PA: 1, PB: 1, Entropy: true}
	}
	return eid, err
}

// EntropySnapshot is a control-plane view of one slot's entropy state.
type EntropySnapshot struct {
	// Total is T, the number of observations (the slot's Xsum).
	Total uint64
	// Sum is S = Σ f·log2fix(f), masked to the cell width.
	Sum uint64
	// ScaledBits is T·log2fix(T) − S = H·T·2^frac, the division-free form
	// the in-switch check compares against h0·T.
	ScaledBits uint64
	// Bits is ScaledBits/(T·2^frac) — the Shannon entropy in bits, computed
	// in floating point for display only; every decision path stays integer.
	Bits float64
}

func (l *Library) entropySnapshot(total, sum uint64) EntropySnapshot {
	snap := EntropySnapshot{Total: total, Sum: sum}
	if total == 0 {
		return snap
	}
	snap.ScaledBits = intstat.SatSub(total*intstat.Log2Fixed(total, l.Opts.EntropyFrac), sum)
	snap.Bits = float64(snap.ScaledBits) / (float64(total) * float64(uint64(1)<<l.Opts.EntropyFrac))
	return snap
}
