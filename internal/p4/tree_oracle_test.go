package p4

import "stat4/internal/packet"

// This file is the test oracle for the compiled plan: a tree-walking
// interpreter that resolves tables and actions by name per packet, the
// simplest correct reading of the program. Differential tests
// (compile_test.go, recirc_test.go, and the stat4p4 program suites in
// stat4p4_differential_test.go) replay the same streams through the plan
// and through treeProcessFrame and demand identical outputs, digests,
// counters and register state.

// treeProcessFrame is ProcessFrame run by the tree walker: the same parse,
// extraction, recirculation bound, drop and deparse steps as the
// production path, with execStmts in place of the compiled plan. Observer
// timing is not modelled.
func (sw *Switch) treeProcessFrame(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	sw.ctr.pktsIn.Add(1)
	if err := packet.ParseInto(&sw.pktScratch, data); err != nil {
		sw.ctr.parseErrs.Add(1)
		sw.ctr.dropped.Add(1)
		return nil
	}
	pkt := &sw.pktScratch
	ctx := &sw.scratch
	fields := ctx.fields
	for i := range fields {
		fields[i] = 0
	}
	sw.std.extract(ctx, tsNs, inPort, pkt)
	sw.execStmts(ctx, sw.prog.Control)
	if sw.prog.hasRecirc && fields[sw.prog.RecircField] != 0 {
		fields[sw.prog.RecircField] = 0
		sw.ctr.recircs.Add(1)
		sw.execStmts(ctx, sw.prog.RecircControl)
	}
	if fields[sw.std.Drop] != 0 {
		sw.ctr.dropped.Add(1)
		return nil
	}
	out := sw.deparser.Deparse(ctx, pkt, sw.deparseBuf[:0])
	sw.deparseBuf = out[:0]
	sw.ctr.pktsOut.Add(1)
	sw.outScratch[0] = FrameOut{Port: uint16(fields[sw.std.Egress]), Data: out}
	return sw.outScratch[:]
}

// execStmts interprets a statement list: the reference semantics.
// The recursion into IfStmt branches and the iteration over the list walk
// the program's fixed control-flow tree: its depth and size are set when the
// program is emitted, so on the target this is the straight-line pipeline
// itself, not runtime looping.
//
//stat4:datapath
//stat4:exempt:boundedloop walks the compile-time control-flow tree of the emitted program
func (sw *Switch) execStmts(ctx *Ctx, stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			t := sw.tables[st.Table]
			// Key extraction: one fixed field copy per declared key. The
			// scratch is pre-sized at compile time; the guard only fires for
			// hand-built switches that bypassed compile.
			if cap(sw.keyScratch) < len(t.def.Keys) {
				//stat4:exempt:allocfree cold guard for hand-built switches; NewSwitch pre-sizes the scratch so this never runs per packet
				sw.keyScratch = make([]uint64, len(t.def.Keys))
			}
			keys := sw.keyScratch[:len(t.def.Keys)]
			for i, k := range t.def.Keys {
				keys[i] = ctx.fields[k.Field]
			}
			e := t.lookup(keys)
			if e != nil {
				a, _ := sw.prog.action(e.Action)
				sw.execAction(ctx, a, e.Args)
			} else if t.def.DefaultAction != "" {
				a, _ := sw.prog.action(t.def.DefaultAction)
				sw.execAction(ctx, a, t.def.DefaultArgs)
			}
		case CallStmt:
			a, _ := sw.prog.action(st.Action)
			sw.execAction(ctx, a, st.Args)
		case IfStmt:
			if st.Cond.eval(sw.resolve(ctx, st.Cond.A), sw.resolve(ctx, st.Cond.B)) {
				sw.execStmts(ctx, st.Then)
			} else {
				sw.execStmts(ctx, st.Else)
			}
		}
	}
}

// execAction runs one action body: a fixed op sequence with the entry's
// arguments bound as parameters.
//
//stat4:datapath
func (sw *Switch) execAction(ctx *Ctx, a *Action, args []uint64) {
	saved := ctx.args
	ctx.args = args
	//stat4:exempt:boundedloop an action's op list is fixed when the program is emitted; each op is one pipeline primitive
	for _, op := range a.Ops {
		sw.execOp(ctx, op)
	}
	// Restored in straight line rather than by defer: the deferred closure
	// captures ctx and allocates per action execution (allocfree), and
	// execOp has no panic paths to unwind through.
	ctx.args = saved
}

// setField writes a metadata field masked to its declared width.
//
//stat4:datapath
func (sw *Switch) setField(ctx *Ctx, id FieldID, v uint64) {
	ctx.fields[id] = v & sw.fieldMask[id]
}

// execOp interprets one primitive. Every case is work a single pipeline
// stage can do: an ALU op, a register access, a hash-unit invocation, or a
// digest push. The variable shifts in OpShl/OpShr are the simulator
// modelling the op itself — emitted programs only ever use constant shift
// operands (Program.Validate and stat4-lint both enforce it on the emitters).
//
//stat4:datapath
func (sw *Switch) execOp(ctx *Ctx, op Op) {
	switch op.Code {
	case OpMov:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A))
	case OpAdd:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)+sw.resolve(ctx, op.B))
	case OpSub:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)-sw.resolve(ctx, op.B))
	case OpMul:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)*sw.resolve(ctx, op.B))
	case OpSatAdd:
		a, b := sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)
		max := sw.fieldMask[op.Dst.Field]
		sum := a + b
		if sum < a || sum > max {
			sum = max
		}
		ctx.fields[op.Dst.Field] = sum
	case OpSatSub:
		a, b := sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)
		if b >= a {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, a-b)
		}
	case OpAnd:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)&sw.resolve(ctx, op.B))
	case OpOr:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)|sw.resolve(ctx, op.B))
	case OpXor:
		sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)^sw.resolve(ctx, op.B))
	case OpNot:
		sw.setField(ctx, op.Dst.Field, ^sw.resolve(ctx, op.A))
	case OpShl:
		amt := sw.resolve(ctx, op.B)
		if amt >= 64 {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)<<amt) //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
		}
	case OpShr:
		amt := sw.resolve(ctx, op.B)
		if amt >= 64 {
			sw.setField(ctx, op.Dst.Field, 0)
		} else {
			sw.setField(ctx, op.Dst.Field, sw.resolve(ctx, op.A)>>amt) //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
		}
	case OpRegRead:
		r := sw.regs[op.Reg]
		v, ok := r.read(sw.resolve(ctx, op.A))
		if !ok {
			sw.ctr.runtimeErrs.Add(1)
		}
		sw.setField(ctx, op.Dst.Field, v)
	case OpRegWrite:
		r := sw.regs[op.Reg]
		if !r.write(sw.resolve(ctx, op.A), sw.resolve(ctx, op.B)) {
			sw.ctr.runtimeErrs.Add(1)
		}
	case OpHash:
		sw.setField(ctx, op.Dst.Field, HashValue(op.HashID, sw.resolve(ctx, op.A))&op.B.Const)
	case OpDigest:
		//stat4:exempt:allocfree a digest hands its values to the control-plane mailbox; the allocation is the message itself, as in hardware's digest slot
		d := Digest{ID: op.DigestID, Values: make([]uint64, len(op.Fields))}
		//stat4:exempt:boundedloop a digest's field list is fixed when the program is emitted
		for i, f := range op.Fields {
			d.Values[i] = ctx.fields[f]
		}
		sw.sendDigest(d)
	case OpSetEgress:
		ctx.fields[sw.std.Egress] = sw.resolve(ctx, op.A) & sw.fieldMask[sw.std.Egress]
	case OpDrop:
		ctx.fields[sw.std.Drop] = 1
	}
}
