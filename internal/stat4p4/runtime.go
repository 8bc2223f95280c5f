package stat4p4

import (
	"errors"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// Runtime is the controller-side handle on a switch running the emitted
// Stat4 program: it installs and retunes binding-table entries, reads the
// tracked distributions out of the registers, and exposes the digest stream.
// All methods are safe to call while the data plane processes packets.
// The binding writes and register reads are the shared control path, here
// over one replica.
type Runtime struct {
	control
	sw *p4.Switch
}

// NewRuntime instantiates a switch for the library's program, installing the
// echo deparser when the library was built with Echo.
func NewRuntime(lib *Library) (*Runtime, error) {
	sw, err := p4.NewSwitch(lib.Prog, lib.Std, lib.Opts.DigestBuf)
	if err != nil {
		return nil, err
	}
	return newRuntime(lib, sw), nil
}

// newRuntime wraps one switch instance of the library's program.
func newRuntime(lib *Library, sw *p4.Switch) *Runtime {
	if lib.Opts.Echo {
		sw.SetDeparser(EchoDeparser{lib: lib})
	}
	return &Runtime{control: newControl(lib, sw), sw: sw}
}

// Switch returns the underlying data plane.
func (rt *Runtime) Switch() *p4.Switch { return rt.sw }

// Match selects which packets a binding entry applies to. Zero-value fields
// are wildcarded.
type Match struct {
	EthType     *packet.EtherType // exact ethertype
	RequireIPv4 bool
	DstPrefix   *packet.Prefix // IPv4 destination prefix
	SynOnly     bool           // only connection-attempt SYNs
	Priority    int            // ternary priority; higher wins
}

// EchoOnly matches echo frames.
func EchoOnly() Match {
	t := packet.EtherTypeEcho
	return Match{EthType: &t}
}

// AllIPv4 matches every IPv4 packet.
func AllIPv4() Match { return Match{RequireIPv4: true} }

// DstIn matches IPv4 packets into a destination prefix.
func DstIn(p packet.Prefix) Match { return Match{RequireIPv4: true, DstPrefix: &p} }

// SynTo matches connection-attempt SYNs into a destination prefix.
func SynTo(p packet.Prefix) Match { return Match{RequireIPv4: true, DstPrefix: &p, SynOnly: true} }

// values lowers the match to the binding tables' four ternary keys:
// [eth.type, ipv4.valid, ipv4.dst, tcp.syn].
func (m Match) values() []p4.MatchValue {
	mv := make([]p4.MatchValue, 4)
	if m.EthType != nil {
		mv[0] = p4.MatchValue{Value: uint64(*m.EthType), Mask: 0xffff}
	}
	if m.RequireIPv4 {
		mv[1] = p4.MatchValue{Value: 1, Mask: 1}
	}
	if m.DstPrefix != nil {
		mask := uint64(0)
		if m.DstPrefix.Len > 0 {
			mask = (^uint64(0) << (32 - uint(m.DstPrefix.Len))) & 0xffffffff
		}
		mv[2] = p4.MatchValue{Value: uint64(m.DstPrefix.Addr), Mask: mask}
	}
	if m.SynOnly {
		mv[3] = p4.MatchValue{Value: 1, Mask: 1}
	}
	return mv
}

// Errors returned by binding operations.
var (
	ErrBadSlot  = errors.New("stat4p4: slot out of range")
	ErrBadStage = errors.New("stat4p4: stage out of range")
	ErrBadSize  = errors.New("stat4p4: distribution exceeds STAT_COUNTER_SIZE")
	ErrStrict   = errors.New("stat4p4: parameter not representable in strict mode")
)

// Moments is a control-plane snapshot of one distribution's measures.
type Moments struct {
	N, Xsum, Xsumsq uint64
	Var, SD         uint64
	Median          uint64
	// MedianMoves is the marker's cumulative movement count; its
	// per-interval difference is the percentile change rate the paper
	// names as an anomaly signal.
	MedianMoves uint64
}
