package p4

// This file is the compile step: NewSwitch lowers the validated Program into
// a flattened execution plan once, so the per-packet path never resolves a
// name, walks the statement tree, or touches a map. That mirrors a real
// pipeline, where the compiler fixes the stage layout and the driver resolves
// action and register references at rule-install time — per-packet work is
// dispatch over pre-bound state. The plan is the only production engine: the
// original tree-walking interpreter lives on as a test oracle
// (tree_oracle_test.go), and differential tests replay the same streams
// through both and demand identical behaviour.

// compiledAction is an Action lowered against one switch's state: register
// names resolved to *Register, destination width masks precomputed. It is
// per-switch, not per-program, because the pointers are into this switch's
// register arrays.
type compiledAction struct {
	name string
	ops  []cop
}

// cop is one lowered primitive. Compared to Op, the destination is pre-split
// into field index + width mask and the register name is a direct pointer.
type cop struct {
	code     OpCode
	dst      FieldID
	dstMask  uint64
	a, b     Ref
	reg      *Register
	hashID   int
	digestID int
	fields   []FieldID
}

// instKind discriminates plan instructions.
type instKind uint8

const (
	instApply  instKind = iota // apply tbl; on miss run act/args if non-nil
	instCall                   // run act/args
	instBranch                 // eval cond; fall through on true, jump to target on false
	instJump                   // unconditional jump to target
)

// inst is one slot of the flattened control flow. IfStmt nesting lowers to
// branch/jump with strictly forward targets, so plan execution is a single
// monotone pass over the slice — the software shape of a feed-forward
// pipeline.
type inst struct {
	kind instKind

	// instApply: the table plus its key fields pre-extracted from the def.
	tbl       *table
	keyFields []FieldID

	// instApply (resolved default action) and instCall.
	act  *compiledAction
	args []uint64

	// instBranch, instJump.
	cond   Cond
	target int
}

// plan is the compiled program: the flattened control flow plus the resolved
// action set that table inserts bind entries against. recirc is the lowered
// recirculation pass (empty when the program declares none); its branch and
// jump targets index into the recirc slice itself.
type plan struct {
	code    []inst
	recirc  []inst
	actions map[string]*compiledAction
}

// compile builds the switch's execution plan. Called once from NewSwitch,
// after registers and tables exist and the program has validated; everything
// the per-packet path needs is resolved here.
func (sw *Switch) compile() {
	acts := make(map[string]*compiledAction, len(sw.prog.Actions))
	for _, a := range sw.prog.Actions {
		acts[a.Name] = sw.compileAction(a)
	}
	c := &compiler{sw: sw, acts: acts}
	sw.plan = &plan{
		code:    c.lowerStmts(nil, sw.prog.Control),
		recirc:  c.lowerStmts(nil, sw.prog.RecircControl),
		actions: acts,
	}

	// Tables resolve entry actions against the compiled set at insert,
	// modify and restore time — the rule-install moment, as on hardware.
	maxKeys := 0
	for _, t := range sw.tables {
		t.acts = acts
		if len(t.def.Keys) > maxKeys {
			maxKeys = len(t.def.Keys)
		}
	}

	// Scratch sized once: key extraction never grows a slice per apply, and
	// the per-packet context is ready before the first frame.
	sw.keyScratch = make([]uint64, maxKeys)
	sw.fieldMask = make([]uint64, len(sw.prog.Fields))
	for i, f := range sw.prog.Fields {
		sw.fieldMask[i] = widthMask(f.Width)
	}
	sw.scratch.fields = make([]uint64, len(sw.prog.Fields))
	sw.scratch.sw = sw
}

// compileAction lowers one action body.
func (sw *Switch) compileAction(a *Action) *compiledAction {
	ca := &compiledAction{name: a.Name, ops: make([]cop, len(a.Ops))}
	for i, op := range a.Ops {
		co := cop{
			code:     op.Code,
			a:        op.A,
			b:        op.B,
			hashID:   op.HashID,
			digestID: op.DigestID,
			fields:   op.Fields,
		}
		if op.Dst.Kind == RefField {
			co.dst = op.Dst.Field
			co.dstMask = widthMask(sw.prog.Fields[op.Dst.Field].Width)
		}
		if op.Reg != "" {
			co.reg = sw.regs[op.Reg]
		}
		ca.ops[i] = co
	}
	return ca
}

// compiler threads the resolved action set through statement lowering.
type compiler struct {
	sw   *Switch
	acts map[string]*compiledAction
}

// lowerStmts appends the lowering of a statement list to code. An IfStmt
// becomes
//
//	branch cond → else        (falls through into then on true)
//	  ...then...
//	jump → end                (only when an else branch exists)
//	  ...else...
//	end:
//
// so every target is an index strictly after the instruction that names it.
func (c *compiler) lowerStmts(code []inst, stmts []Stmt) []inst {
	for _, s := range stmts {
		switch st := s.(type) {
		case ApplyStmt:
			t := c.sw.tables[st.Table]
			kf := make([]FieldID, len(t.def.Keys))
			for i, k := range t.def.Keys {
				kf[i] = k.Field
			}
			in := inst{kind: instApply, tbl: t, keyFields: kf}
			if t.def.DefaultAction != "" {
				in.act = c.acts[t.def.DefaultAction]
				in.args = t.def.DefaultArgs
			}
			code = append(code, in)
		case CallStmt:
			code = append(code, inst{kind: instCall, act: c.acts[st.Action], args: st.Args})
		case IfStmt:
			bi := len(code)
			code = append(code, inst{kind: instBranch, cond: st.Cond})
			code = c.lowerStmts(code, st.Then)
			if len(st.Else) == 0 {
				code[bi].target = len(code)
			} else {
				ji := len(code)
				code = append(code, inst{kind: instJump})
				code[bi].target = len(code)
				code = c.lowerStmts(code, st.Else)
				code[ji].target = len(code)
			}
		}
	}
	return code
}

// execPlan drives the compiled plan for one packet. Branch and jump targets
// are strictly forward (see lowerStmts), so pc is monotone and the walk is
// bounded by the plan length — the same fixed control flow the test oracle's
// tree walker visits, minus the per-packet name resolution.
//
//stat4:datapath
func (sw *Switch) execPlan(ctx *Ctx) {
	sw.execCode(ctx, sw.plan.code)
}

// execCode runs one lowered statement list — the main pass or the
// recirculation pass.
//
//stat4:datapath
//stat4:exempt:boundedloop pc only moves forward through the compile-time flattened control flow; the walk is bounded by the emitted program's size
func (sw *Switch) execCode(ctx *Ctx, code []inst) {
	for pc := 0; pc < len(code); {
		in := &code[pc]
		switch in.kind {
		case instApply:
			keys := sw.keyScratch[:len(in.keyFields)]
			//stat4:exempt:boundedloop a table's key list is fixed when the program is emitted
			for i, f := range in.keyFields {
				keys[i] = ctx.fields[f]
			}
			if e := in.tbl.lookup(keys); e != nil {
				sw.execCompiled(ctx, e.act, e.Args)
			} else if in.act != nil {
				sw.execCompiled(ctx, in.act, in.args)
			}
			pc++
		case instCall:
			sw.execCompiled(ctx, in.act, in.args)
			pc++
		case instBranch:
			if in.cond.eval(sw.resolve(ctx, in.cond.A), sw.resolve(ctx, in.cond.B)) {
				pc++
			} else {
				pc = in.target
			}
		default: // instJump
			pc = in.target
		}
	}
}

// execCompiled runs one lowered action body with the entry's arguments bound.
//
//stat4:datapath
func (sw *Switch) execCompiled(ctx *Ctx, a *compiledAction, args []uint64) {
	saved := ctx.args
	ctx.args = args
	ops := a.ops
	//stat4:exempt:boundedloop an action's op list is fixed when the program is emitted; each op is one pipeline primitive
	for i := range ops {
		sw.execCop(ctx, &ops[i])
	}
	ctx.args = saved
}

// execCop interprets one lowered primitive, with the width mask and register
// pointer pre-resolved at compile time. The variable shifts in OpShl/OpShr
// are the simulator modelling the op itself — emitted programs only ever use
// constant shift operands (Program.Validate and stat4-lint both enforce it).
//
//stat4:datapath
func (sw *Switch) execCop(ctx *Ctx, op *cop) {
	switch op.code {
	case OpMov:
		ctx.fields[op.dst] = sw.resolve(ctx, op.a) & op.dstMask
	case OpAdd:
		ctx.fields[op.dst] = (sw.resolve(ctx, op.a) + sw.resolve(ctx, op.b)) & op.dstMask
	case OpSub:
		ctx.fields[op.dst] = (sw.resolve(ctx, op.a) - sw.resolve(ctx, op.b)) & op.dstMask
	case OpMul:
		ctx.fields[op.dst] = (sw.resolve(ctx, op.a) * sw.resolve(ctx, op.b)) & op.dstMask
	case OpSatAdd:
		a, b := sw.resolve(ctx, op.a), sw.resolve(ctx, op.b)
		sum := a + b
		if sum < a || sum > op.dstMask {
			sum = op.dstMask
		}
		ctx.fields[op.dst] = sum
	case OpSatSub:
		a, b := sw.resolve(ctx, op.a), sw.resolve(ctx, op.b)
		if b >= a {
			ctx.fields[op.dst] = 0
		} else {
			ctx.fields[op.dst] = (a - b) & op.dstMask
		}
	case OpAnd:
		ctx.fields[op.dst] = sw.resolve(ctx, op.a) & sw.resolve(ctx, op.b) & op.dstMask
	case OpOr:
		ctx.fields[op.dst] = (sw.resolve(ctx, op.a) | sw.resolve(ctx, op.b)) & op.dstMask
	case OpXor:
		ctx.fields[op.dst] = (sw.resolve(ctx, op.a) ^ sw.resolve(ctx, op.b)) & op.dstMask
	case OpNot:
		ctx.fields[op.dst] = ^sw.resolve(ctx, op.a) & op.dstMask
	case OpShl:
		amt := sw.resolve(ctx, op.b)
		if amt >= 64 {
			ctx.fields[op.dst] = 0
		} else {
			ctx.fields[op.dst] = sw.resolve(ctx, op.a) << amt & op.dstMask //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
		}
	case OpShr:
		amt := sw.resolve(ctx, op.b)
		if amt >= 64 {
			ctx.fields[op.dst] = 0
		} else {
			ctx.fields[op.dst] = sw.resolve(ctx, op.a) >> amt & op.dstMask //stat4:exempt:shiftconst simulates the shift primitive; emitted programs pass constant shift operands
		}
	case OpRegRead:
		v, ok := op.reg.read(sw.resolve(ctx, op.a))
		if !ok {
			sw.ctr.runtimeErrs.Add(1)
		}
		ctx.fields[op.dst] = v & op.dstMask
	case OpRegWrite:
		if !op.reg.write(sw.resolve(ctx, op.a), sw.resolve(ctx, op.b)) {
			sw.ctr.runtimeErrs.Add(1)
		}
	case OpHash:
		ctx.fields[op.dst] = HashValue(op.hashID, sw.resolve(ctx, op.a)) & op.b.Const & op.dstMask
	case OpDigest:
		//stat4:exempt:allocfree a digest hands its values to the control-plane mailbox; the allocation is the message itself, as in hardware's digest slot
		d := Digest{ID: op.digestID, Values: make([]uint64, len(op.fields))}
		//stat4:exempt:boundedloop a digest's field list is fixed when the program is emitted
		for i, f := range op.fields {
			d.Values[i] = ctx.fields[f]
		}
		sw.sendDigest(d)
	case OpSetEgress:
		ctx.fields[sw.std.Egress] = sw.resolve(ctx, op.a) & sw.fieldMask[sw.std.Egress]
	case OpDrop:
		ctx.fields[sw.std.Drop] = 1
	}
}
