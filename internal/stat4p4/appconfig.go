package stat4p4

import (
	"encoding/json"
	"fmt"
	"io"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// AppConfig is a declarative Stat4 application: the emitted program's sizing
// plus the routes and binding-table entries a controller installs at startup.
// It is the file-format face of the paper's Figure 4 — Table 1's use cases
// each fit in a few JSON lines, and retuning is editing the file and
// re-applying.
type AppConfig struct {
	// Options sizes the emitted program. Zero values take the library
	// defaults.
	Options Options `json:"options"`

	Routes   []RouteConfig   `json:"routes,omitempty"`
	Bindings []BindingConfig `json:"bindings"`
}

// RouteConfig is one forwarding entry.
type RouteConfig struct {
	Prefix string `json:"prefix"` // CIDR; bare addresses are /32
	Port   uint16 `json:"port"`
	Drop   bool   `json:"drop,omitempty"` // blackhole instead of forwarding
}

// MatchSpec selects the packets a binding applies to. Empty fields are
// wildcards.
type MatchSpec struct {
	Echo      bool   `json:"echo,omitempty"`       // echo frames only
	IPv4      bool   `json:"ipv4,omitempty"`       // require IPv4
	DstPrefix string `json:"dst_prefix,omitempty"` // CIDR on the destination
	SynOnly   bool   `json:"syn_only,omitempty"`   // connection-attempt SYNs
	Priority  int    `json:"priority,omitempty"`
}

// BindingConfig is one binding-table entry in declarative form.
type BindingConfig struct {
	// Kind selects the tracked statistic: window, window-bytes, freq-dst,
	// freq-dport, freq-proto, freq-len, freq-echo, sparse-dst, sparse-src,
	// entropy-dst, entropy-src, hh-dst, hh-src, flow-dst, flow-src,
	// flow-pair.
	Kind  string    `json:"kind"`
	Stage int       `json:"stage"`
	Slot  int       `json:"slot"`
	Match MatchSpec `json:"match"`

	// Window parameters.
	IntervalShift uint `json:"interval_shift,omitempty"`
	Capacity      int  `json:"capacity,omitempty"`

	// Frequency/sparse parameters.
	Shift uint   `json:"shift,omitempty"`
	Base  uint64 `json:"base,omitempty"`
	Size  int    `json:"size,omitempty"`
	PA    uint64 `json:"pa,omitempty"` // percentile weights; 0,0 → median
	PB    uint64 `json:"pb,omitempty"`

	// K arms the anomaly check at K·σ (0 disables for frequency modes).
	K uint64 `json:"k,omitempty"`

	// Entropy parameters: H0 arms the collapse check at H0/2^EntropyFrac
	// bits (0 disables); CheckEvery rate-limits it (power of two, 0 → 1).
	H0         uint64 `json:"h0,omitempty"`
	CheckEvery uint64 `json:"check_every,omitempty"`

	// SampleShift is the heavy-hitter recirculation exponent: packets
	// recirculate with probability 2^-SampleShift. For the flow kinds it is
	// the admission coin: a new key is admitted with probability
	// 2^-SampleShift.
	SampleShift uint `json:"sample_shift,omitempty"`

	// Flow-table parameters: entries expire on the 2^EpochShift ns epoch
	// clock after TTL silent epochs (TTL ≥ 1).
	EpochShift uint   `json:"epoch_shift,omitempty"`
	TTL        uint64 `json:"ttl,omitempty"`
}

// LoadAppConfig decodes and sanity-checks a JSON application description.
func LoadAppConfig(r io.Reader) (*AppConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg AppConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("stat4p4: parse app config: %w", err)
	}
	if len(cfg.Bindings) == 0 {
		return nil, fmt.Errorf("stat4p4: app config has no bindings")
	}
	return &cfg, nil
}

// Apply builds the library, instantiates a runtime, and installs every route
// and binding. It returns the runtime and the binding entry IDs in config
// order.
func (cfg *AppConfig) Apply() (*Runtime, []p4.EntryID, error) {
	lib := Build(cfg.Options)
	rt, err := NewRuntime(lib)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range cfg.Routes {
		pfx, err := packet.ParsePrefix(r.Prefix)
		if err != nil {
			return nil, nil, err
		}
		if r.Drop {
			_, err = rt.AddDropRoute(pfx)
		} else {
			_, err = rt.AddRoute(pfx, r.Port)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("stat4p4: route %q: %w", r.Prefix, err)
		}
	}
	ids := make([]p4.EntryID, 0, len(cfg.Bindings))
	for i, b := range cfg.Bindings {
		id, err := rt.Apply(b)
		if err != nil {
			return nil, nil, fmt.Errorf("stat4p4: binding %d (%s): %w", i, b.Kind, err)
		}
		ids = append(ids, id)
	}
	return rt, ids, nil
}

func (ms MatchSpec) toMatch() (Match, error) {
	var m Match
	if ms.Echo {
		t := packet.EtherTypeEcho
		m.EthType = &t
	}
	m.RequireIPv4 = ms.IPv4
	if ms.DstPrefix != "" {
		pfx, err := packet.ParsePrefix(ms.DstPrefix)
		if err != nil {
			return m, err
		}
		m.RequireIPv4 = true
		m.DstPrefix = &pfx
	}
	m.SynOnly = ms.SynOnly
	m.Priority = ms.Priority
	return m, nil
}

// Apply installs one declarative binding on every replica — the one path
// every command surface reaches the binding tables through. Size 0 takes
// the library's Size; percentile weights 0,0 mean the median (1,1).
func (c *control) Apply(b BindingConfig) (p4.EntryID, error) {
	m, err := b.Match.toMatch()
	if err != nil {
		return 0, err
	}
	size := b.Size
	if size == 0 {
		size = c.lib.Opts.Size
	}
	pa, pb := b.PA, b.PB
	if pa == 0 && pb == 0 {
		pa, pb = 1, 1
	}
	switch b.Kind {
	case "window":
		return c.BindWindow(b.Stage, b.Slot, m, b.IntervalShift, b.Capacity, b.K)
	case "window-bytes":
		return c.BindWindowBytes(b.Stage, b.Slot, m, b.IntervalShift, b.Capacity, b.K)
	case "freq-dst":
		return c.BindFreqDst(b.Stage, b.Slot, m, b.Shift, b.Base, size, pa, pb, b.K)
	case "freq-dport":
		return c.BindFreqDport(b.Stage, b.Slot, m, b.Shift, b.Base, size, pa, pb, b.K)
	case "freq-proto":
		return c.BindFreqProto(b.Stage, b.Slot, m, b.Base, size, pa, pb, b.K)
	case "freq-len":
		return c.BindFreqLen(b.Stage, b.Slot, m, b.Shift, b.Base, size, pa, pb, b.K)
	case "freq-echo":
		return c.BindFreqEcho(b.Stage, b.Slot, m, b.Base, size, pa, pb, b.K)
	case "sparse-dst":
		return c.bindSparse(b.Stage, b.Slot, m, "bind_sparse_dst", b.Shift, b.K)
	case "sparse-src":
		return c.bindSparse(b.Stage, b.Slot, m, "bind_sparse_src", b.Shift, b.K)
	case "entropy-dst":
		return c.BindEntropyDst(b.Stage, b.Slot, m, b.Shift, b.Base, size, b.H0, b.CheckEvery)
	case "entropy-src":
		return c.BindEntropySrc(b.Stage, b.Slot, m, b.Shift, b.Base, size, b.H0, b.CheckEvery)
	case "hh-dst":
		return c.BindHeavyHitterDst(b.Stage, b.Slot, m, b.Shift, b.SampleShift)
	case "hh-src":
		return c.BindHeavyHitterSrc(b.Stage, b.Slot, m, b.Shift, b.SampleShift)
	case "flow-dst":
		return c.BindFlowDst(b.Stage, b.Slot, m, b.Shift, b.EpochShift, b.TTL, b.SampleShift, b.K)
	case "flow-src":
		return c.BindFlowSrc(b.Stage, b.Slot, m, b.Shift, b.EpochShift, b.TTL, b.SampleShift, b.K)
	case "flow-pair":
		return c.BindFlowPair(b.Stage, b.Slot, m, b.EpochShift, b.TTL, b.SampleShift, b.K)
	default:
		return 0, fmt.Errorf("unknown binding kind %q", b.Kind)
	}
}

// TrackParams carries one command surface's parameters for TrackBinding;
// each surface fills it from its own flags or request body, with its own
// defaults. Fields a track does not use are ignored.
type TrackParams struct {
	Stage, Slot int
	// Window: interval exponent (2^IntervalShift ns) and length in
	// intervals.
	IntervalShift uint
	Window        int
	// Base is the dotted-quad /16 whose /24 subnets dst24 and entropy
	// index ("" → 10.0.0.0).
	Base string
	// Size is the frequency/entropy domain (0 → the library's Size);
	// PA:PB are the percentile weights (0,0 → median).
	Size   int
	PA, PB uint64
	K      uint64
	// Entropy: collapse threshold in bits (0 disables) and check cadence
	// (a power of two, 0 → every observation).
	H0Bits     float64
	CheckEvery uint64
	// SampleShift is hh's recirculation exponent; FlowSampleShift is flow's
	// new-key admission exponent.
	SampleShift     uint
	FlowSampleShift uint
	// Flow: expiry epoch exponent and TTL in epochs.
	EpochShift uint
	TTL        uint64
}

// TrackBinding maps a command-surface track name — window, dst24, proto,
// len, entropy, hh or flow, the -track family of stat4d and stat4-replay
// and the modes of stat4d's POST /bind — to its declarative binding over
// all IPv4 traffic. Install the result with Apply.
func (l *Library) TrackBinding(track string, p TrackParams) (BindingConfig, error) {
	b := BindingConfig{
		Stage: p.Stage, Slot: p.Slot, Match: MatchSpec{IPv4: true},
		Size: p.Size, PA: p.PA, PB: p.PB, K: p.K,
	}
	switch track {
	case "window":
		b.Kind, b.IntervalShift, b.Capacity = "window", p.IntervalShift, p.Window
	case "dst24", "entropy":
		base := p.Base
		if base == "" {
			base = "10.0.0.0"
		}
		pfx, err := packet.ParsePrefix(base)
		if err != nil {
			return b, err
		}
		b.Kind, b.Shift, b.Base = "freq-dst", 8, uint64(pfx.Addr)>>8
		if track == "entropy" {
			b.Kind, b.CheckEvery = "entropy-dst", p.CheckEvery
			if p.H0Bits > 0 { // bits → the check's fixed point
				b.H0 = uint64(p.H0Bits * float64(uint64(1)<<l.Opts.EntropyFrac))
			}
		}
	case "proto":
		b.Kind = "freq-proto"
	case "len":
		b.Kind, b.Shift = "freq-len", 6
	case "hh":
		b.Kind, b.SampleShift = "hh-src", p.SampleShift
	case "flow":
		b.Kind, b.EpochShift, b.TTL, b.SampleShift = "flow-src", p.EpochShift, p.TTL, p.FlowSampleShift
	default:
		return b, fmt.Errorf("unknown track %q", track)
	}
	return b, nil
}
