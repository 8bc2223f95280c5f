package p4

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/packet"
)

// buildKitchenSink is a program that exercises every lowering shape: nested
// ifs with and without else branches, table applies with and without default
// actions, direct calls, a ternary table, and most opcodes including hash,
// saturating arithmetic and digests.
func buildKitchenSink() (*Program, StdFields) {
	p := NewProgram("kitchen-sink")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 16)
	tmp := p.AddField("meta.tmp", 64)
	acc := p.AddField("meta.acc", 32)
	narrow := p.AddField("meta.narrow", 8)

	p.AddRegister("cells", 32, 48)
	p.AddRegister("scratch", 4, 64)

	p.AddAction(NewAction("count_at", 2,
		Mov(idx, P(0)),
		RegRead(tmp, "cells", F(idx)),
		SatAdd(tmp, F(tmp), P(1)),
		RegWrite("cells", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("mix", 0,
		Hash(idx, 1, F(std.IPv4Src), 31),
		RegRead(tmp, "cells", F(idx)),
		Xor(acc, F(tmp), F(std.IPv4Dst)),
		Not(narrow, F(acc)),
		Shl(acc, F(acc), C(3)),
		Shr(acc, F(acc), C(1)),
		SatSub(tmp, F(tmp), C(7)),
		RegWrite("scratch", C(1), F(acc)),
	))
	p.AddAction(NewAction("alert", 0,
		EmitDigest(5, std.IPv4Dst, std.InPort),
	))
	p.AddAction(NewAction("widen", 0,
		Sub(acc, F(std.WireLen), C(9)),
		And(tmp, F(acc), C(0xff)),
		Or(tmp, F(tmp), C(0x100)),
		Add(tmp, F(tmp), F(std.TsNs)),
	))
	p.AddAction(NewAction("noop", 0))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))
	p.AddAction(NewAction("deny", 0, Drop()))

	p.AddTable(&TableDef{
		Name:          "bind",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchLPM}},
		ActionNames:   []string{"count_at", "noop"},
		DefaultAction: "noop",
		MaxEntries:    16,
	})
	p.AddTable(&TableDef{
		Name: "classify",
		Keys: []KeySpec{
			{Field: std.EthType, Kind: MatchTernary},
			{Field: std.TCPSyn, Kind: MatchTernary},
		},
		ActionNames: []string{"alert", "deny", "noop"},
		MaxEntries:  16, // no default: a miss must fall through untouched
	})
	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Apply("bind"),
			If(Cond{A: F(std.WireLen), Op: CmpGt, B: C(60)},
				Call("widen"),
			).WithElse(
				Call("mix"),
			),
		).WithElse(
			Apply("classify"),
		),
		If(Cond{A: F(std.Drop), Op: CmpEq, B: C(0)},
			Call("reflect"),
		),
	}
	return p, std
}

func installKitchenSinkEntries(t *testing.T, sw *Switch) {
	t.Helper()
	inserts := []struct {
		tbl    string
		match  []MatchValue
		prio   int
		action string
		args   []uint64
	}{
		{"bind", []MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}}, 0, "count_at", []uint64{3, 2}},
		{"bind", []MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}}, 0, "count_at", []uint64{9, 1}},
		{"classify", []MatchValue{{Value: 0x0806, Mask: 0xffff}, {}}, 5, "alert", nil},
		{"classify", []MatchValue{{Value: 0x0806, Mask: 0xff00}, {}}, 1, "deny", nil},
	}
	for _, in := range inserts {
		if _, err := sw.InsertEntry(in.tbl, in.match, in.prio, in.action, in.args); err != nil {
			t.Fatal(err)
		}
	}
}

// differentialFrames is a deterministic mixed stream: routed IPv4 (hit and
// miss, long and short), TCP SYNs, ARP-ish non-IPv4 frames that hit the
// ternary table (including the deny entry), and garbage.
func differentialFrames(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			dst := packet.ParseIP4(10, 0, 5, byte(rng.Intn(256)))
			frames = append(frames, packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, rng.Intn(64)).Serialize())
		case 1:
			dst := packet.ParseIP4(10, byte(rng.Intn(256)), 0, 1)
			frames = append(frames, packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 2), dst, 1000, 80, 2).Serialize())
		case 2:
			frames = append(frames, packet.NewTCPFrame(packet.ParseIP4(172, 16, 0, 1), packet.ParseIP4(172, 16, 0, 2), 1234, 80, packet.FlagSYN).Serialize())
		case 3:
			pkt := &packet.Packet{Eth: packet.Ethernet{Type: 0x0806}, Payload: []byte{byte(i)}}
			frames = append(frames, pkt.Serialize())
		case 4:
			pkt := &packet.Packet{Eth: packet.Ethernet{Type: 0x08ff}, Payload: []byte{1, 2}}
			frames = append(frames, pkt.Serialize())
		default:
			frames = append(frames, []byte{byte(i), 2, 3})
		}
	}
	return frames
}

// TestCompiledPlanMatchesTreeWalker replays one frame stream through the
// compiled plan and the tree-walking reference and demands byte-identical
// outputs, identical digests, identical stats and identical register state.
func TestCompiledPlanMatchesTreeWalker(t *testing.T) {
	prog, std := buildKitchenSink()
	compiled := mustSwitch(t, prog, std)
	prog2, std2 := buildKitchenSink()
	tree := mustSwitch(t, prog2, std2)
	installKitchenSinkEntries(t, compiled)
	installKitchenSinkEntries(t, tree)

	for i, frame := range differentialFrames(4000, 7) {
		port := uint16(i % 5)
		outC := compiled.ProcessFrame(uint64(i)*100, port, frame)
		// Compare before the next frame reuses the scratch buffers; copy
		// the compiled output because the tree switch's ProcessFrame runs
		// between producing and comparing.
		var savedPort uint16
		var savedData []byte
		if len(outC) > 0 {
			savedPort = outC[0].Port
			savedData = append(savedData, outC[0].Data...)
		}
		outT := tree.treeProcessFrame(uint64(i)*100, port, frame)
		if len(outC) != len(outT) {
			t.Fatalf("frame %d: compiled emitted %d frames, tree %d", i, len(outC), len(outT))
		}
		if len(outT) > 0 {
			if savedPort != outT[0].Port {
				t.Fatalf("frame %d: compiled port %d, tree port %d", i, savedPort, outT[0].Port)
			}
			if !bytes.Equal(savedData, outT[0].Data) {
				t.Fatalf("frame %d: output bytes differ\ncompiled %x\ntree     %x", i, savedData, outT[0].Data)
			}
		}

		dc, dt := drainDigests(compiled), drainDigests(tree)
		if !reflect.DeepEqual(dc, dt) {
			t.Fatalf("frame %d: digests differ: compiled %v, tree %v", i, dc, dt)
		}
	}

	if sc, st := compiled.Stats(), tree.Stats(); sc != st {
		t.Fatalf("stats differ: compiled %+v, tree %+v", sc, st)
	}
	snapC, snapT := compiled.Snapshot(), tree.Snapshot()
	if !reflect.DeepEqual(snapC.Registers, snapT.Registers) {
		t.Fatalf("register state differs: compiled %v, tree %v", snapC.Registers, snapT.Registers)
	}
}

func drainDigests(sw *Switch) []Digest {
	var out []Digest
	for {
		select {
		case d := <-sw.Digests():
			out = append(out, d)
		default:
			return out
		}
	}
}

// TestModifyRebindsCompiledAction checks the rule-install-time resolution:
// after ModifyEntry the compiled path must run the new action.
func TestModifyRebindsCompiledAction(t *testing.T) {
	prog, std := buildCounterProgram()
	sw := mustSwitch(t, prog, std)
	id, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}},
		0, "count_at", []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))
	if err := sw.ModifyEntry("bind", id, "count_at", []uint64{7}); err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(1, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))
	if err := sw.ModifyEntry("bind", id, "noop", nil); err != nil {
		t.Fatal(err)
	}
	sw.ProcessFrame(2, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))

	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Read(3); v != 1 {
		t.Fatalf("cell 3 = %d, want 1", v)
	}
	if v, _ := reg.Read(7); v != 1 {
		t.Fatalf("cell 7 = %d, want 1 (modify must rebind the compiled action)", v)
	}
}

// TestRestoreRebindsCompiledActions checks that a snapshot restored into a
// different switch instance runs against that instance's registers.
func TestRestoreRebindsCompiledActions(t *testing.T) {
	prog, std := buildCounterProgram()
	src := mustSwitch(t, prog, std)
	if _, err := src.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 5, 0)), PrefixLen: 24}},
		0, "count_at", []uint64{4}); err != nil {
		t.Fatal(err)
	}

	prog2, std2 := buildCounterProgram()
	dst := mustSwitch(t, prog2, std2)
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	dst.ProcessFrame(0, 1, udpTo(packet.ParseIP4(10, 0, 5, 1)))

	reg, err := dst.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Read(4); v != 1 {
		t.Fatalf("restored entry did not count on the destination switch: cell 4 = %d", v)
	}
	srcReg, err := src.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := srcReg.Read(4); v != 0 {
		t.Fatalf("restored entry wrote the source switch's register: cell 4 = %d", v)
	}
}

// TestLowerStmtsTargets pins the lowering shape: forward-only targets,
// branch-to-else, jump-over-else.
func TestLowerStmtsTargets(t *testing.T) {
	prog, std := buildKitchenSink()
	sw := mustSwitch(t, prog, std)
	code := sw.plan.code
	if len(code) == 0 {
		t.Fatal("empty plan")
	}
	for pc, in := range code {
		switch in.kind {
		case instBranch, instJump:
			if in.target <= pc {
				t.Fatalf("inst %d: backward or self target %d", pc, in.target)
			}
			if in.target > len(code) {
				t.Fatalf("inst %d: target %d beyond plan end %d", pc, in.target, len(code))
			}
		case instApply:
			if in.tbl == nil {
				t.Fatalf("inst %d: apply without table", pc)
			}
			if in.tbl.def.DefaultAction != "" && in.act == nil {
				t.Fatalf("inst %d: default action not resolved", pc)
			}
		case instCall:
			if in.act == nil {
				t.Fatalf("inst %d: call without resolved action", pc)
			}
		}
	}
	_ = std
}

// TestProcessBatch drives the batch entry point and checks it observes every
// output while reusing the switch's buffers.
func TestProcessBatch(t *testing.T) {
	prog, std := buildCounterProgram()
	sw := mustSwitch(t, prog, std)
	batch := []FrameIn{
		{TsNs: 0, Port: 2, Data: udpTo(packet.ParseIP4(10, 0, 0, 1))},
		{TsNs: 1, Port: 3, Data: []byte{1, 2, 3}}, // parse error: dropped
		{TsNs: 2, Port: 4, Data: udpTo(packet.ParseIP4(10, 0, 0, 2))},
	}
	var ports []uint16
	sw.ProcessBatch(batch, func(out FrameOut) {
		ports = append(ports, out.Port)
		if _, err := packet.Parse(out.Data); err != nil {
			t.Fatalf("batch output unparseable: %v", err)
		}
	})
	if !reflect.DeepEqual(ports, []uint16{2, 4}) {
		t.Fatalf("batch output ports = %v, want [2 4]", ports)
	}
	st := sw.Stats()
	if st.PktsIn != 3 || st.PktsOut != 2 || st.Dropped != 1 || st.ParseErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// nil emit processes for side effects only.
	sw.ProcessBatch(batch[:1], nil)
	if got := sw.Stats().PktsOut; got != 3 {
		t.Fatalf("PktsOut = %d after nil-emit batch, want 3", got)
	}
}
