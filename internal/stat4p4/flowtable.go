package stat4p4

import (
	"fmt"

	"stat4/internal/p4"
)

// This file emits the sparse flow-table addressing mode, the register-model
// twin of internal/flowtable: a per-slot 2-left hash table of {key, epoch
// stamp, count} buckets with epoch-based lazy expiry and an optional
// 2^-k admission coin for mouse-flow shedding. Where sparse mode (sparse.go)
// claims buckets forever — high-cardinality churn fills it once and then
// rejects — the flow table reclaims buckets whose stamp has aged past the
// binding's TTL, so bounded SRAM tracks an unbounded churning population of
// flows.
//
// Hash-family discipline matches internal/flowtable exactly (coin = hash 0,
// left probe = hash 1, right probe = hash 2, always the product's high word)
// so the host table is a bit-exact reference for the emitted program; the
// parity test in flowtable_test.go pins placement, counts and the ledger.
//
// The mode maintains the slot's moments (N, Xsum, Xsumsq) over LIVE flows:
// accumulation mirrors freq_accum against the flow-count register, and an
// eviction first subtracts the dead flow's contribution (N−1, Xsum−c,
// Xsumsq−c²) — which needs runtime multiplication, so the mode is
// incompatible with Strict. With k ≥ 1 the shared mean+kσ check runs on the
// refreshed count and the anomaly digest names the flow key itself.
//
// All flow-table registers are replica-local (MergeDerived with a why):
// shards admit along different collision paths, so neither bucket contents
// nor the admission ledger are cell-wise additive. Merged snapshots zero
// them — the CanonicalizeSnapshot byte-identity contract stays trivial, like
// the window precedent — and the controller instead merges flows by key
// (ReadFlows) and sums ledgers across shards (ReadFlowStats).

// Flow-table register names.
const (
	RegFTKeys  = "stat.ftkeys"  // bucket keys, Slots×FlowTableSize cells
	RegFTStamp = "stat.ftstamp" // last-touch epoch + 1; 0 marks an empty bucket
	RegFTCnt   = "stat.ftcnt"   // per-flow packet counts
	RegFTAdm   = "stat.ftadm"   // per-slot admissions (claims of any bucket)
	RegFTEvt   = "stat.ftevt"   // per-slot evictions (claims over an expired entry)
	RegFTRej   = "stat.ftrej"   // per-slot rejections (both candidates live)
	RegFTShed  = "stat.ftshed"  // per-slot sheds (admission coin lost)
)

const kindFlow = 5

// Hash-family assignments, mirroring internal/flowtable: hash 0 is the
// admission coin, hash 1 probes the left half, hash 2 the right.
const (
	ftHashCoin  = 0
	ftHashLeft  = 1
	ftHashRight = 2
)

// declareFlowTable adds the flow-table registers, binding actions, probe and
// resolution actions to the program.
func (l *Library) declareFlowTable() {
	f := &l.f
	std := l.Std
	size := l.Opts.FlowTableSize
	cells := l.Opts.Slots * size
	w := l.Opts.CellWidth

	l.Prog.AddRegister(RegFTKeys, cells, 64)
	l.Prog.SetRegisterMerge(RegFTKeys, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegFTKeys,
		"flow-table key ownership is replica-local: shards admit different keys to the same bucket; the controller merges flows by key")
	l.Prog.AddRegister(RegFTStamp, cells, w)
	l.Prog.SetRegisterMerge(RegFTStamp, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegFTStamp,
		"epoch stamps of the replica-local flow table; liveness is per replica")
	l.Prog.AddRegister(RegFTCnt, cells, w)
	l.Prog.SetRegisterMerge(RegFTCnt, p4.MergeDerived)
	l.Prog.SetMergeWhy(RegFTCnt,
		"per-flow counts keyed by the replica-local bucket table; summed per key by the controller (ReadFlows), never cell-wise")
	for reg, why := range map[string]string{
		RegFTAdm:  "admissions follow the replica-local collision path; serial and sharded runs claim different buckets, so the ledger is reported per shard and summed by the controller",
		RegFTEvt:  "evictions follow the replica-local collision path (see " + RegFTAdm + ")",
		RegFTRej:  "rejections depend on replica-local occupancy (see " + RegFTAdm + ")",
		RegFTShed: "coin losses are counted where the packet landed (see " + RegFTAdm + ")",
	} {
		l.Prog.AddRegister(reg, l.Opts.Slots, w)
		l.Prog.SetRegisterMerge(reg, p4.MergeDerived)
		l.Prog.SetMergeWhy(reg, why)
	}

	// bind_flow_*(ftBase, slot, shift, epochShift, ttl, sampleMask, k):
	// key = header >> shift, epoch = ts >> epochShift, and the admission coin
	// hashes key+ts so every packet of a flow is an independent 2^-k trial
	// (the heavy-hitter gate discipline — key alone would deterministically
	// partition the key space). The product's HIGH word feeds the mask.
	common := []p4.Op{
		p4.Mov(f.base, p4.P(0)),
		p4.Mov(f.slotid, p4.P(1)),
		p4.Mov(f.enable, p4.C(1)),
		p4.Mov(f.kind, p4.C(kindFlow)),
	}
	tail := []p4.Op{
		p4.Shr(f.curint, p4.F(std.TsNs), p4.P(3)),
		p4.Mov(f.cap, p4.P(4)),
		p4.Add(f.ftgate, p4.F(f.val), p4.F(std.TsNs)),
		p4.Hash(f.ftgate, ftHashCoin, p4.F(f.ftgate), ^uint64(0)),
		p4.Shr(f.ftgate, p4.F(f.ftgate), p4.C(32)),
		p4.And(f.ftgate, p4.F(f.ftgate), p4.P(5)),
		p4.Mov(f.k, p4.P(6)),
	}
	l.Prog.AddAction(p4.NewAction("bind_flow_dst", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.val, p4.F(std.IPv4Dst), p4.P(2))),
		tail...)...))
	l.Prog.AddAction(p4.NewAction("bind_flow_src", 7, append(append(append([]p4.Op{}, common...),
		p4.Shr(f.val, p4.F(std.IPv4Src), p4.P(2))),
		tail...)...))
	// bind_flow_pair(ftBase, slot, zero, epochShift, ttl, sampleMask, k):
	// key = src<<32 | dst — the flow-pair view, the closest the parsed
	// headers come to a 5-tuple. P2 is ignored (kept for a uniform layout).
	l.Prog.AddAction(p4.NewAction("bind_flow_pair", 7, append(append(append([]p4.Op{}, common...),
		p4.Shl(f.t1, p4.F(std.IPv4Src), p4.C(32)),
		p4.Or(f.val, p4.F(f.t1), p4.F(std.IPv4Dst))),
		tail...)...))

	add := func(name string, ops ...p4.Op) {
		l.Prog.AddAction(p4.NewAction(name, 0, ops...))
	}
	slot := p4.F(f.slotid)
	halfMask := uint64(size/2) - 1
	half := uint64(size / 2)

	// flow_probe: both candidate buckets (left half by hash 1, right half by
	// hash 2), their keys and stamps, plus the liveness ages. fts is the
	// stamp a touch would write (epoch + 1; 0 stays reserved for empty), and
	// fta{1,2} = fts − stamp wraps huge for empty buckets — the explicit
	// stamp≠0 guards in the resolution tree run first.
	add("flow_probe",
		p4.Hash(f.h1, ftHashLeft, p4.F(f.val), ^uint64(0)),
		p4.Shr(f.h1, p4.F(f.h1), p4.C(32)),
		p4.And(f.h1, p4.F(f.h1), p4.C(halfMask)),
		p4.Add(f.h1, p4.F(f.base), p4.F(f.h1)),
		p4.Hash(f.h2, ftHashRight, p4.F(f.val), ^uint64(0)),
		p4.Shr(f.h2, p4.F(f.h2), p4.C(32)),
		p4.And(f.h2, p4.F(f.h2), p4.C(halfMask)),
		p4.Add(f.h2, p4.F(f.h2), p4.C(half)),
		p4.Add(f.h2, p4.F(f.base), p4.F(f.h2)),
		p4.RegRead(f.k1, RegFTKeys, p4.F(f.h1)),
		p4.RegRead(f.u1, RegFTStamp, p4.F(f.h1)),
		p4.RegRead(f.k2, RegFTKeys, p4.F(f.h2)),
		p4.RegRead(f.u2, RegFTStamp, p4.F(f.h2)),
		p4.Add(f.fts, p4.F(f.curint), p4.C(1)),
		p4.Sub(f.fta1, p4.F(f.fts), p4.F(f.u1)),
		p4.Sub(f.fta2, p4.F(f.fts), p4.F(f.u2)),
	)
	// flow_sel1/2: the key owns this live bucket — refresh the stamp.
	add("flow_sel1",
		p4.RegWrite(RegFTStamp, p4.F(f.h1), p4.F(f.fts)),
		p4.Mov(f.idx, p4.F(f.h1)),
		p4.Mov(f.ok, p4.C(1)),
	)
	add("flow_sel2",
		p4.RegWrite(RegFTStamp, p4.F(f.h2), p4.F(f.fts)),
		p4.Mov(f.idx, p4.F(f.h2)),
		p4.Mov(f.ok, p4.C(1)),
	)
	// flow_evict1/2: reclaim an expired bucket — subtract the dead flow's
	// moment contribution (N−1, Xsum−c, Xsumsq−c²), zero its count cell and
	// charge the eviction ledger. The claim action follows.
	evict := func(name string, h p4.FieldID) {
		add(name,
			p4.RegRead(f.old, RegFTCnt, p4.F(h)),
			p4.Mul(f.oldsq, p4.F(f.old), p4.F(f.old)),
			p4.RegRead(f.n, RegN, slot),
			p4.SatSub(f.n, p4.F(f.n), p4.C(1)),
			p4.RegWrite(RegN, slot, p4.F(f.n)),
			p4.RegRead(f.xsum, RegXsum, slot),
			p4.SatSub(f.xsum, p4.F(f.xsum), p4.F(f.old)),
			p4.RegWrite(RegXsum, slot, p4.F(f.xsum)),
			p4.RegRead(f.xsumsq, RegXsumsq, slot),
			p4.SatSub(f.xsumsq, p4.F(f.xsumsq), p4.F(f.oldsq)),
			p4.RegWrite(RegXsumsq, slot, p4.F(f.xsumsq)),
			p4.RegWrite(RegFTCnt, p4.F(h), p4.C(0)),
			p4.RegRead(f.t2, RegFTEvt, slot),
			p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
			p4.RegWrite(RegFTEvt, slot, p4.F(f.t2)),
		)
	}
	evict("flow_evict1", f.h1)
	evict("flow_evict2", f.h2)
	// flow_claim1/2: take the bucket (its count cell is 0: never used, or
	// zeroed by the eviction that just ran).
	claim := func(name string, h p4.FieldID) {
		add(name,
			p4.RegWrite(RegFTKeys, p4.F(h), p4.F(f.val)),
			p4.RegWrite(RegFTStamp, p4.F(h), p4.F(f.fts)),
			p4.RegRead(f.t2, RegFTAdm, slot),
			p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
			p4.RegWrite(RegFTAdm, slot, p4.F(f.t2)),
			p4.Mov(f.idx, p4.F(h)),
			p4.Mov(f.ok, p4.C(1)),
		)
	}
	claim("flow_claim1", f.h1)
	claim("flow_claim2", f.h2)
	add("flow_reject",
		p4.RegRead(f.t2, RegFTRej, slot),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.RegWrite(RegFTRej, slot, p4.F(f.t2)),
		p4.Mov(f.ok, p4.C(0)),
	)
	add("flow_shed",
		p4.RegRead(f.t2, RegFTShed, slot),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.RegWrite(RegFTShed, slot, p4.F(f.t2)),
		p4.Mov(f.ok, p4.C(0)),
	)
	// flow_load/flow_accum: the freq_load/freq_accum pattern against the
	// flow-count register instead of the dense counter array.
	add("flow_load",
		p4.RegRead(f.f, RegFTCnt, p4.F(f.idx)),
		p4.RegRead(f.n, RegN, slot),
		p4.RegRead(f.xsum, RegXsum, slot),
		p4.RegRead(f.xsumsq, RegXsumsq, slot),
	)
	add("flow_accum",
		p4.Add(f.xsum, p4.F(f.xsum), p4.C(1)),
		p4.RegWrite(RegXsum, slot, p4.F(f.xsum)),
		p4.Shl(f.t2, p4.F(f.f), p4.C(1)),
		p4.Add(f.t2, p4.F(f.t2), p4.C(1)),
		p4.Add(f.xsumsq, p4.F(f.xsumsq), p4.F(f.t2)),
		p4.RegWrite(RegXsumsq, slot, p4.F(f.xsumsq)),
		p4.Add(f.fnew, p4.F(f.f), p4.C(1)),
		p4.RegWrite(RegFTCnt, p4.F(f.idx), p4.F(f.fnew)),
	)
}

// flowBlock resolves the bucket with the exact decision tree of
// flowtable.Table.Touch — hit-left, hit-right, coin, self-stale reclaim,
// empty-left, empty-right, expired-left, expired-right, reject — then runs
// the shared moment/variance/check pipeline on the resolved index.
func (l *Library) flowBlock() []p4.Stmt {
	f := &l.f
	eqf := func(a, b p4.FieldID) p4.Cond { return p4.Cond{A: p4.F(a), Op: p4.CmpEq, B: p4.F(b)} }
	fge := func(a, b p4.FieldID) p4.Cond { return p4.Cond{A: p4.F(a), Op: p4.CmpGe, B: p4.F(b)} }
	// general: the key owns no bucket (or only an empty-keyed one) — the
	// coin-gated claim cascade of Table.Touch. Repeated verbatim under three
	// leaves of the key-match tree; actions are shared, only the Call
	// skeleton duplicates.
	general := func() []p4.Stmt {
		return []p4.Stmt{
			p4.If(eq(f.ftgate, 0),
				p4.If(eq(f.u1, 0),
					p4.Call("flow_claim1"),
				).WithElse(
					p4.If(eq(f.u2, 0),
						p4.Call("flow_claim2"),
					).WithElse(
						p4.If(fge(f.fta1, f.cap),
							p4.Call("flow_evict1"),
							p4.Call("flow_claim1"),
						).WithElse(
							p4.If(fge(f.fta2, f.cap),
								p4.Call("flow_evict2"),
								p4.Call("flow_claim2"),
							).WithElse(
								p4.Call("flow_reject"),
							),
						),
					),
				),
			).WithElse(
				p4.Call("flow_shed"),
			),
		}
	}
	// selfStale: the key's own bucket expired — reclaim it in place (still
	// coin-gated: an expired flow re-admits like a new one).
	selfStale := func(evict, claim string) []p4.Stmt {
		return []p4.Stmt{
			p4.If(eq(f.ftgate, 0),
				p4.Call(evict),
				p4.Call(claim),
			).WithElse(
				p4.Call("flow_shed"),
			),
		}
	}
	// ownBucket: the key matches bucket i and the bucket is in use — a hit
	// if still live, otherwise an in-place coin-gated restart.
	ownBucket := func(age p4.FieldID, sel, evict, claim string) p4.IfStmt {
		return p4.If(flt(age, f.cap),
			p4.Call(sel),
		).WithElse(selfStale(evict, claim)...)
	}
	resolve := []p4.Stmt{
		p4.Call("flow_probe"),
		p4.If(eqf(f.k1, f.val),
			p4.If(ne(f.u1, 0),
				ownBucket(f.fta1, "flow_sel1", "flow_evict1", "flow_claim1"),
			).WithElse(general()...),
		).WithElse(
			p4.If(eqf(f.k2, f.val),
				p4.If(ne(f.u2, 0),
					ownBucket(f.fta2, "flow_sel2", "flow_evict2", "flow_claim2"),
				).WithElse(general()...),
			).WithElse(general()...),
		),
	}
	update := []p4.Stmt{
		p4.Call("flow_load"),
		p4.If(eq(f.f, 0), p4.Call("freq_incr_n")),
		p4.Call("flow_accum"),
	}
	update = append(update, l.varStmts()...)
	if !l.Opts.NoVariance {
		update = append(update, p4.If(ne(f.k, 0), p4.Call("freq_arm_check")))
	}
	return append(resolve, p4.If(eq(f.ok, 1), update...))
}

// BindFlowDst tracks flows keyed by (ipv4.dst >> shift) in the slot's
// 2-left flow table: epochShift sets the expiry clock (epoch = ts >>
// epochShift), ttl how many epochs an entry survives after its last touch,
// sampleShift the 2^-sampleShift admission coin for new keys (0 admits
// every flow), and k ≥ 1 arms the mean+kσ hot-flow check whose digest names
// the key.
func (c *control) BindFlowDst(stage, slot int, m Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return c.bindFlow(stage, slot, m, "bind_flow_dst", shift, epochShift, ttl, sampleShift, k)
}

// BindFlowSrc tracks flows keyed by (ipv4.src >> shift) — the per-source
// view (super-spreaders, DDoS sources).
func (c *control) BindFlowSrc(stage, slot int, m Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return c.bindFlow(stage, slot, m, "bind_flow_src", shift, epochShift, ttl, sampleShift, k)
}

// BindFlowPair tracks flows keyed by src<<32|dst, the flow-pair view.
func (c *control) BindFlowPair(stage, slot int, m Match, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return c.bindFlow(stage, slot, m, "bind_flow_pair", 0, epochShift, ttl, sampleShift, k)
}

func (c *control) bindFlow(stage, slot int, m Match, action string, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	if !c.lib.Opts.FlowTable {
		return 0, fmt.Errorf("stat4p4: library built without Options.FlowTable")
	}
	if err := c.checkSlotStage(stage, slot); err != nil {
		return 0, err
	}
	if shift > 32 {
		return 0, fmt.Errorf("stat4p4: flow shift %d out of range", shift)
	}
	if epochShift >= 64 {
		return 0, fmt.Errorf("stat4p4: epoch shift %d out of range", epochShift)
	}
	if ttl == 0 {
		return 0, fmt.Errorf("stat4p4: flow TTL must be ≥ 1 epoch")
	}
	if sampleShift > 32 {
		return 0, fmt.Errorf("stat4p4: sample shift %d out of range", sampleShift)
	}
	base := uint64(slot * c.lib.Opts.FlowTableSize)
	mask := uint64(1)<<sampleShift - 1
	eid, err := c.insert(stage, m, action,
		[]uint64{base, uint64(slot), uint64(shift), uint64(epochShift), ttl, mask, k})
	if err == nil {
		c.local[slot] = "flow"
	}
	return eid, err
}

// FlowEntry is one occupied flow bucket as the control plane reads it.
type FlowEntry struct {
	Key   uint64
	Count uint64
	// Stamp is the entry's last-touch epoch + 1.
	Stamp uint64
}

// FlowStats is the control-plane admission ledger of one slot's flow table.
// Occupied counts buckets holding an entry, live or expired.
type FlowStats struct {
	Occupied uint64
	Admitted uint64
	Evicted  uint64
	Rejected uint64
	Shed     uint64
	Capacity uint64
}
