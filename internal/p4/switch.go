package p4

import (
	"fmt"
	"sync/atomic"
	"time"

	"stat4/internal/packet"
)

// NumHashFunctions is the size of the simulated hash-engine family.
const NumHashFunctions = 4

// hashMuls are the odd multipliers of the multiply-shift hash family. They
// are shared with core.SparseFreqDist so the reference library and the
// emitted program place keys in identical buckets.
var hashMuls = [NumHashFunctions]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

// HashValue computes the id-th hash of v (before masking). The family index
// wraps with a mask — NumHashFunctions is a power of two — because the hash
// engine runs per packet and a P4 target has no modulo.
//
//stat4:datapath
func HashValue(id int, v uint64) uint64 {
	h := v * hashMuls[id&(NumHashFunctions-1)]
	return h ^ h>>31
}

// Digest is an alert record pushed from the data plane to the control plane,
// the arrow of Figure 1c. Values holds the digested field values in the
// order the OpDigest listed them.
type Digest struct {
	ID     int
	Values []uint64
}

// FrameOut is a frame emitted by the switch on an egress port. Data points
// into the switch's reusable deparse buffer: it is valid until the next
// Process* call on the same switch, like a DMA region handed to the NIC.
// Callers that retain frames (delayed delivery, logging) must copy.
type FrameOut struct {
	Port uint16
	Data []byte
}

// FrameIn is one input frame of a ProcessBatch call.
type FrameIn struct {
	TsNs uint64
	Port uint16
	Data []byte
}

// Deparser rebuilds the outgoing frame from the original packet and the
// final field values. buf is the switch's reusable deparse buffer, passed
// with length zero; implementations append the frame to it and return the
// result, so steady-state deparsing allocates nothing. The default deparser
// forwards the original frame unchanged; applications that synthesise
// replies (like the echo validation app) install their own.
type Deparser interface {
	Deparse(ctx *Ctx, orig *packet.Packet, buf []byte) []byte
}

type forwardDeparser struct{}

func (forwardDeparser) Deparse(_ *Ctx, orig *packet.Packet, buf []byte) []byte {
	return orig.AppendSerialize(buf)
}

// Ctx is the per-packet execution context: the metadata field values. It is
// handed to deparsers so they can read what the program computed.
type Ctx struct {
	fields []uint64
	sw     *Switch
	args   []uint64 // current action parameters
}

// Get returns a field's current value.
//
//stat4:datapath
func (c *Ctx) Get(id FieldID) uint64 { return c.fields[id] }

// Set sets a field, masked to its declared width. Parsers and deparsers use
// it; program code goes through ops.
//
//stat4:datapath
func (c *Ctx) Set(id FieldID, v uint64) {
	c.fields[id] = v & c.sw.fieldMask[id]
}

// Stats are the switch's global counters.
type Stats struct {
	PktsIn      uint64
	PktsOut     uint64
	Dropped     uint64
	ParseErrors uint64
	// RuntimeErrors counts data-plane faults the simulator tolerates but
	// records: out-of-bounds register accesses.
	RuntimeErrors uint64
	// DigestDrops counts digests lost because the channel to the control
	// plane was full.
	DigestDrops uint64
	// Recirculated counts packets that took the program's recirculation
	// pass — the extra pipeline trips a deployment pays for, so a reader can
	// verify the sampling probability (2^-k of traffic) from the outside.
	Recirculated uint64
}

// switchCounters consolidates the global counters in one place. Every field
// is atomic so a control-plane Stats() snapshot is race-free against the
// single-goroutine data plane, and the data plane pays one uncontended
// atomic add per event.
type switchCounters struct {
	pktsIn      atomic.Uint64
	pktsOut     atomic.Uint64
	dropped     atomic.Uint64
	parseErrs   atomic.Uint64
	runtimeErrs atomic.Uint64
	digestDrops atomic.Uint64
	recircs     atomic.Uint64
}

// Observer receives data-plane instrumentation events. Implementations must
// be allocation-free and cheap — they run on the per-packet hot path — and
// are called from the data-plane goroutine only. telemetry.SwitchMetrics is
// the canonical implementation; its recording path is integer-only and
// passes the same stat4-lint gate as the datapath it measures.
type Observer interface {
	// PacketCost reports one Process* call's wall-clock cost in nanoseconds.
	PacketCost(ns uint64)
	// DigestEmitted reports a digest accepted by the channel.
	DigestEmitted()
	// DigestDropped reports a digest lost to a full channel.
	DigestDropped()
}

// Switch interprets a validated Program. ProcessFrame must be called from a
// single goroutine (the data plane); table and register control-plane
// methods may be called concurrently with it. Output frames alias internal
// scratch buffers — see FrameOut.
type Switch struct {
	prog     *Program
	std      StdFields
	regs     map[string]*Register
	tables   map[string]*table
	digests  chan Digest
	sink     func(Digest)
	deparser Deparser

	// plan is the compiled execution plan. fieldMask caches
	// widthMask(Fields[i].Width) so the hot path masks with one index
	// instead of a struct load and shift.
	plan      *plan
	fieldMask []uint64

	ctr switchCounters
	obs Observer

	// Per-packet scratch, reused across packets since the data plane is
	// single-threaded (like a pipeline's PHV): the execution context, the
	// decoded packet, table-key extraction (sized at compile time from the
	// max key arity), the deparse buffer, and the one-element output slice.
	scratch    Ctx
	pktScratch packet.Packet
	keyScratch []uint64
	deparseBuf []byte
	outScratch [1]FrameOut
}

// NewSwitch validates the program, instantiates its state and compiles the
// execution plan. The digest channel is buffered with the given capacity (a
// bounded mailbox to the controller; 0 picks a default of 1024).
func NewSwitch(prog *Program, std StdFields, digestBuf int) (*Switch, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if digestBuf <= 0 {
		digestBuf = 1024
	}
	sw := &Switch{
		prog:     prog,
		std:      std,
		regs:     make(map[string]*Register, len(prog.Registers)),
		tables:   make(map[string]*table, len(prog.Tables)),
		digests:  make(chan Digest, digestBuf),
		deparser: forwardDeparser{},
	}
	for _, rd := range prog.Registers {
		sw.regs[rd.Name] = newRegister(rd)
	}
	for _, td := range prog.Tables {
		sw.tables[td.Name] = newTable(td, prog)
	}
	sw.compile()
	return sw, nil
}

// SetDeparser installs a custom deparser.
func (sw *Switch) SetDeparser(d Deparser) { sw.deparser = d }

// SetObserver attaches data-plane instrumentation (nil detaches). Call it
// before processing traffic; it is not synchronised with the data plane. With no observer attached the hot path
// pays exactly one nil check per packet.
func (sw *Switch) SetObserver(o Observer) { sw.obs = o }

// Digests returns the channel carrying data-plane alerts.
func (sw *Switch) Digests() <-chan Digest { return sw.digests }

// SetDigestSink installs a direct digest receiver: with a sink attached,
// sendDigest calls it synchronously from the data-plane goroutine instead of
// going through the buffered channel, so a caller that drains digests after
// every Process* call (the discrete-event network does) pays no channel
// operations on the hot path. A sink never drops: the bounded-mailbox
// semantics belong to the channel, which a sink replaces. Like SetObserver it
// must be installed before processing traffic; digests emitted before the
// sink was attached stay in the channel and must be drained from there. nil
// detaches and restores the channel path.
func (sw *Switch) SetDigestSink(sink func(Digest)) { sw.sink = sink }

// Program returns the interpreted program.
func (sw *Switch) Program() *Program { return sw.prog }

// Register returns a register array by name for control-plane access.
func (sw *Switch) Register(name string) (*Register, error) {
	r, ok := sw.regs[name]
	if !ok {
		return nil, fmt.Errorf("p4: no register %q", name)
	}
	return r, nil
}

// InsertEntry installs a table entry at runtime and returns its ID.
func (sw *Switch) InsertEntry(tbl string, match []MatchValue, prio int, action string, args []uint64) (EntryID, error) {
	t, ok := sw.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	return t.insert(match, prio, action, args)
}

// ModifyEntry rebinds an entry's action and arguments in place, the paper's
// drill-down refinement ("the controller modifies the previously added
// entry").
func (sw *Switch) ModifyEntry(tbl string, id EntryID, action string, args []uint64) error {
	t, ok := sw.tables[tbl]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	return t.modify(id, action, args)
}

// DeleteEntry removes an entry.
func (sw *Switch) DeleteEntry(tbl string, id EntryID) error {
	t, ok := sw.tables[tbl]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	return t.remove(id)
}

// EntryCount returns the number of installed entries in a table.
func (sw *Switch) EntryCount(tbl string) (int, error) {
	t, ok := sw.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	return t.entryCount(), nil
}

// Stats returns a snapshot of the switch counters.
func (sw *Switch) Stats() Stats {
	return Stats{
		PktsIn:        sw.ctr.pktsIn.Load(),
		PktsOut:       sw.ctr.pktsOut.Load(),
		Dropped:       sw.ctr.dropped.Load(),
		ParseErrors:   sw.ctr.parseErrs.Load(),
		RuntimeErrors: sw.ctr.runtimeErrs.Load(),
		DigestDrops:   sw.ctr.digestDrops.Load(),
		Recirculated:  sw.ctr.recircs.Load(),
	}
}

// ProcessFrame runs one frame through the pipeline: parse, execute the
// control flow, deparse. tsNs is the ingress timestamp in nanoseconds (the
// simulator's virtual clock). Unparseable frames are dropped and counted,
// like a real parser's reject state. The returned frames alias switch
// scratch and stay valid until the next Process* call.
func (sw *Switch) ProcessFrame(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	sw.ctr.pktsIn.Add(1)
	var start time.Time
	if sw.obs != nil {
		start = time.Now()
	}
	outs := sw.parseAndProcess(tsNs, inPort, data)
	if sw.obs != nil {
		sw.obs.PacketCost(uint64(time.Since(start)))
	}
	return outs
}

// parseAndProcess is ProcessFrame's body, split out so the observer timing
// wraps parse + execute + deparse in one span.
func (sw *Switch) parseAndProcess(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	if err := packet.ParseInto(&sw.pktScratch, data); err != nil {
		sw.ctr.parseErrs.Add(1)
		sw.ctr.dropped.Add(1)
		return nil
	}
	return sw.processPacket(tsNs, inPort, &sw.pktScratch)
}

// ProcessPacket is ProcessFrame for callers that already hold a decoded
// packet; it avoids the serialize/parse round trip in tight simulation
// loops. The packet must not be mutated while the call runs.
func (sw *Switch) ProcessPacket(tsNs uint64, inPort uint16, pkt *packet.Packet) []FrameOut {
	sw.ctr.pktsIn.Add(1)
	var start time.Time
	if sw.obs != nil {
		start = time.Now()
	}
	outs := sw.processPacket(tsNs, inPort, pkt)
	if sw.obs != nil {
		sw.obs.PacketCost(uint64(time.Since(start)))
	}
	return outs
}

// ProcessBatch runs a batch of frames through the pipeline in order, calling
// emit for every output frame — the entry point replay and benchmark loops
// drive. emit may be nil to process for side effects only. Each emitted
// frame's Data is valid only during its emit call (the buffer is reused for
// the next frame in the batch).
func (sw *Switch) ProcessBatch(batch []FrameIn, emit func(FrameOut)) {
	for i := range batch {
		f := &batch[i]
		outs := sw.ProcessFrame(f.TsNs, f.Port, f.Data)
		if emit != nil {
			for _, o := range outs {
				emit(o)
			}
		}
	}
}

func (sw *Switch) processPacket(tsNs uint64, inPort uint16, pkt *packet.Packet) []FrameOut {
	ctx := &sw.scratch
	fields := ctx.fields
	for i := range fields {
		fields[i] = 0
	}
	sw.std.extract(ctx, tsNs, inPort, pkt)
	sw.execPlan(ctx)
	// Recirculation: when the main pass raised the flag, the packet makes
	// exactly one extra trip. The flag clears before the pass runs, so the
	// pass cannot re-request it — the bound is structural, mirroring a
	// deployment that budgets one recirculation (the pisa-3pass model).
	if sw.prog.hasRecirc && fields[sw.prog.RecircField] != 0 {
		fields[sw.prog.RecircField] = 0
		sw.ctr.recircs.Add(1)
		sw.execCode(ctx, sw.plan.recirc)
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

// resolve reads an operand: a constant, a metadata field, or an action
// parameter.
//
//stat4:datapath
func (sw *Switch) resolve(ctx *Ctx, r Ref) uint64 {
	switch r.Kind {
	case RefConst:
		return r.Const
	case RefField:
		return ctx.fields[r.Field]
	case RefParam:
		return ctx.args[r.Param]
	default:
		return 0
	}
}

// sendDigest pushes an alert onto the bounded mailbox to the control plane,
// counting (and reporting to the observer) the accept/drop outcome. The
// compiled plan's OpDigest and the test oracle's tree walker both funnel
// through it, so emit/drop accounting cannot diverge between them.
//
//stat4:datapath
func (sw *Switch) sendDigest(d Digest) {
	if sw.sink != nil {
		sw.sink(d)
		if sw.obs != nil {
			sw.obs.DigestEmitted()
		}
		return
	}
	select {
	case sw.digests <- d:
		if sw.obs != nil {
			sw.obs.DigestEmitted()
		}
	default:
		sw.ctr.digestDrops.Add(1)
		if sw.obs != nil {
			sw.obs.DigestDropped()
		}
	}
}
