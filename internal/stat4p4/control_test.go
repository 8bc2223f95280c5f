package stat4p4

import (
	"reflect"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// controlOpts carries every measure, so one library accepts every binding
// kind the config language names.
var controlOpts = Options{
	Slots: 16, Size: 256, Stages: 2,
	Sparse: true, Entropy: true, HeavyHitter: true,
	FlowTable: true, FlowTableSize: 64,
}

// allKindBindings is one valid binding per kind, on distinct slots.
func allKindBindings() []BindingConfig {
	ip := MatchSpec{IPv4: true}
	return []BindingConfig{
		{Kind: "window", Stage: 0, Slot: 0, Match: MatchSpec{DstPrefix: "10.0.0.0/8"}, IntervalShift: 20, Capacity: 16, K: 2},
		{Kind: "window-bytes", Stage: 0, Slot: 1, Match: MatchSpec{IPv4: true, SynOnly: true, Priority: 5}, IntervalShift: 20, Capacity: 16, K: 2},
		{Kind: "freq-dst", Stage: 1, Slot: 2, Match: ip, Shift: 8, Base: 0x0a0000, K: 2},
		{Kind: "freq-dport", Stage: 1, Slot: 3, Match: MatchSpec{IPv4: true, Priority: 1}, Size: 128, PA: 1, PB: 3},
		{Kind: "freq-proto", Stage: 1, Slot: 4, Match: MatchSpec{IPv4: true, Priority: 2}, PA: 2, PB: 1, K: 1},
		{Kind: "freq-len", Stage: 1, Slot: 5, Match: MatchSpec{IPv4: true, Priority: 3}, Shift: 6},
		{Kind: "freq-echo", Stage: 0, Slot: 6, Match: MatchSpec{Echo: true, Priority: 9}, Base: 32768},
		{Kind: "sparse-dst", Stage: 1, Slot: 7, Match: MatchSpec{IPv4: true, Priority: 4}, K: 2},
		{Kind: "sparse-src", Stage: 1, Slot: 8, Match: MatchSpec{IPv4: true, Priority: 6}, Shift: 8},
		{Kind: "entropy-dst", Stage: 0, Slot: 9, Match: MatchSpec{IPv4: true, Priority: 7}, Shift: 8, Base: 0x0a0000, H0: 1 << 15, CheckEvery: 64},
		{Kind: "entropy-src", Stage: 0, Slot: 10, Match: MatchSpec{IPv4: true, Priority: 8}, Size: 64},
		{Kind: "hh-dst", Stage: 1, Slot: 11, Match: MatchSpec{IPv4: true, Priority: 10}, Shift: 8, SampleShift: 4},
		{Kind: "hh-src", Stage: 1, Slot: 12, Match: MatchSpec{IPv4: true, Priority: 11}, SampleShift: 6},
		{Kind: "flow-dst", Stage: 0, Slot: 13, Match: MatchSpec{IPv4: true, Priority: 12}, Shift: 8, EpochShift: 20, TTL: 4, K: 2},
		{Kind: "flow-src", Stage: 1, Slot: 14, Match: MatchSpec{IPv4: true, Priority: 13}, EpochShift: 23, TTL: 2, SampleShift: 3},
		{Kind: "flow-pair", Stage: 0, Slot: 15, Match: MatchSpec{IPv4: true, Priority: 14}, EpochShift: 18, TTL: 9, K: 3},
	}
}

// entryView is an entry's installed identity, without the switch-local
// compiled action pointer.
type entryView struct {
	ID       p4.EntryID
	Match    []p4.MatchValue
	Priority int
	Action   string
	Args     []uint64
}

// tableEntries lists every binding and forwarding entry of one switch.
func tableEntries(lib *Library, sw *p4.Switch) map[string][]entryView {
	snap := sw.Snapshot()
	out := make(map[string][]entryView)
	for _, tbl := range append([]string{FwdTable}, lib.BindTables...) {
		for _, e := range snap.Entries[tbl] {
			out[tbl] = append(out[tbl], entryView{e.ID, e.Match, e.Priority, e.Action, e.Args})
		}
	}
	return out
}

// assertReplicasMatch requires every shard of sr to hold exactly the serial
// runtime's table entries, IDs included, and the same recorded slots.
func assertReplicasMatch(t *testing.T, rt *Runtime, sr *ShardedRuntime) {
	t.Helper()
	want := tableEntries(rt.Library(), rt.Switch())
	for i := 0; i < sr.NumShards(); i++ {
		if got := tableEntries(sr.Library(), sr.ShardRuntime(i).Switch()); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d entries\n%+v\nserial entries\n%+v", i, got, want)
		}
	}
	if got, want := sr.FreqSlots(), rt.FreqSlots(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FreqSlots: sharded %+v, serial %+v", got, want)
	}
}

func newControlPair(t *testing.T) (*Runtime, *ShardedRuntime) {
	t.Helper()
	lib := Build(controlOpts)
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewShardedRuntime(lib, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sr.Close)
	return rt, sr
}

// TestApplyDifferential applies every binding kind, routes, unbinds and a
// slot reset through the one control path on a serial and a 3-shard
// runtime: each shard must end up holding the serial runtime's entries
// byte for byte, with the same entry IDs and the same recorded slots.
func TestApplyDifferential(t *testing.T) {
	rt, sr := newControlPair(t)
	for _, b := range allKindBindings() {
		wantID, err := rt.Apply(b)
		if err != nil {
			t.Fatalf("%s: serial Apply: %v", b.Kind, err)
		}
		gotID, err := sr.Apply(b)
		if err != nil {
			t.Fatalf("%s: sharded Apply: %v", b.Kind, err)
		}
		if gotID != wantID {
			t.Fatalf("%s: sharded entry %d, serial entry %d", b.Kind, gotID, wantID)
		}
		assertReplicasMatch(t, rt, sr)
	}
	// Frequency and entropy slots are recorded for canonicalisation, with
	// 0,0 percentile weights defaulted to the median.
	want := []SlotBinding{
		{Slot: 2, PA: 1, PB: 1}, {Slot: 3, PA: 1, PB: 3}, {Slot: 4, PA: 2, PB: 1},
		{Slot: 5, PA: 1, PB: 1}, {Slot: 6, PA: 1, PB: 1},
		{Slot: 9, PA: 1, PB: 1, Entropy: true}, {Slot: 10, PA: 1, PB: 1, Entropy: true},
	}
	if got := rt.FreqSlots(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FreqSlots = %+v, want %+v", got, want)
	}

	for _, w := range []struct {
		name string
		f    func(c *control) error
	}{
		{"route", func(c *control) error {
			_, err := c.AddRoute(mustPrefix(t, "10.0.0.0/8"), 2)
			return err
		}},
		{"drop route", func(c *control) error {
			_, err := c.AddDropRoute(mustPrefix(t, "192.0.2.66/32"))
			return err
		}},
		{"del route", func(c *control) error { return c.DelRoute(1) }},
		{"unbind", func(c *control) error { return c.Unbind(1, 2) }},
		{"reset", func(c *control) error { return c.ResetSlot(3) }},
		{"rebind", func(c *control) error {
			_, err := c.Apply(BindingConfig{Kind: "freq-dst", Stage: 1, Slot: 3, Match: MatchSpec{IPv4: true}, Shift: 16})
			return err
		}},
	} {
		if err := w.f(&rt.control); err != nil {
			t.Fatalf("%s: serial: %v", w.name, err)
		}
		if err := w.f(&sr.control); err != nil {
			t.Fatalf("%s: sharded: %v", w.name, err)
		}
		assertReplicasMatch(t, rt, sr)
	}
}

// TestApplyRejectsBeforeWriting pins validate-once: a binding the control
// path rejects leaves no entry on any replica.
func TestApplyRejectsBeforeWriting(t *testing.T) {
	bad := []BindingConfig{
		{Kind: "ghost"},
		{Kind: "window", Slot: 99, Capacity: 16},
		{Kind: "window", Capacity: 0},
		{Kind: "window-bytes", Capacity: 16, IntervalShift: 64},
		{Kind: "freq-dst", Shift: 33},
		{Kind: "freq-dport", PA: 0, PB: 3},
		{Kind: "freq-proto", Size: 512},
		{Kind: "freq-len", Stage: 2},
		{Kind: "freq-echo", Size: -1},
		{Kind: "sparse-dst", Shift: 40},
		{Kind: "sparse-src", Slot: -1},
		{Kind: "entropy-dst", CheckEvery: 3},
		{Kind: "entropy-src", Shift: 33},
		{Kind: "hh-dst", SampleShift: 33},
		{Kind: "hh-src", Shift: 33},
		{Kind: "flow-dst", TTL: 0},
		{Kind: "flow-src", TTL: 1, EpochShift: 64},
		{Kind: "flow-pair", TTL: 1, SampleShift: 33},
		{Kind: "window", Capacity: 16, Match: MatchSpec{DstPrefix: "not-a-prefix"}},
	}
	for _, b := range bad {
		rt, sr := newControlPair(t)
		if _, err := rt.Apply(b); err == nil {
			t.Fatalf("serial accepted %+v", b)
		}
		if _, err := sr.Apply(b); err == nil {
			t.Fatalf("sharded accepted %+v", b)
		}
		for i, sw := range append([]*p4.Switch{rt.Switch()}, sr.reps...) {
			for _, tbl := range rt.Library().BindTables {
				if n, _ := sw.EntryCount(tbl); n != 0 {
					t.Fatalf("%+v: replica %d holds %d entries in %s after rejection", b, i, n, tbl)
				}
			}
		}
		if len(rt.FreqSlots()) != 0 || len(sr.FreqSlots()) != 0 {
			t.Fatalf("%+v: rejected binding recorded a slot", b)
		}
	}
}

// TestApplyLibraryGates pins that a kind whose measure the library was
// built without is refused, not installed.
func TestApplyLibraryGates(t *testing.T) {
	rt, err := NewRuntime(Build(Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"sparse-dst", "entropy-dst", "hh-src", "flow-src"} {
		if _, err := rt.Apply(BindingConfig{Kind: kind, TTL: 1}); err == nil {
			t.Fatalf("%s accepted by a library without the measure", kind)
		}
	}
}

// TestTrackBinding pins the track-name mapping every command surface
// shares.
func TestTrackBinding(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 256, Stages: 1})
	p := TrackParams{
		Stage: 0, Slot: 0, IntervalShift: 20, Window: 50, Base: "10.7.0.0",
		Size: 128, PA: 1, PB: 3, K: 2, H0Bits: 2.5, CheckEvery: 64,
		SampleShift: 6, FlowSampleShift: 3, EpochShift: 18, TTL: 9,
	}
	ip := MatchSpec{IPv4: true}
	base := BindingConfig{Match: ip, Size: 128, PA: 1, PB: 3, K: 2}
	with := func(f func(b *BindingConfig)) BindingConfig {
		b := base
		f(&b)
		return b
	}
	h0 := uint64(2.5 * float64(uint64(1)<<lib.Opts.EntropyFrac))
	for track, want := range map[string]BindingConfig{
		"window": with(func(b *BindingConfig) { b.Kind, b.IntervalShift, b.Capacity = "window", 20, 50 }),
		"dst24":  with(func(b *BindingConfig) { b.Kind, b.Shift, b.Base = "freq-dst", 8, 0x0a07<<8 }),
		"proto":  with(func(b *BindingConfig) { b.Kind = "freq-proto" }),
		"len":    with(func(b *BindingConfig) { b.Kind, b.Shift = "freq-len", 6 }),
		"entropy": with(func(b *BindingConfig) {
			b.Kind, b.Shift, b.Base, b.H0, b.CheckEvery = "entropy-dst", 8, 0x0a07<<8, h0, 64
		}),
		"hh":   with(func(b *BindingConfig) { b.Kind, b.SampleShift = "hh-src", 6 }),
		"flow": with(func(b *BindingConfig) { b.Kind, b.EpochShift, b.TTL, b.SampleShift = "flow-src", 18, 9, 3 }),
	} {
		got, err := lib.TrackBinding(track, p)
		if err != nil {
			t.Fatalf("%s: %v", track, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v, want %+v", track, got, want)
		}
	}
	if b, err := lib.TrackBinding("dst24", TrackParams{}); err != nil || b.Base != 0x0a00<<8 {
		t.Fatalf("dst24 default base: %+v, %v", b, err)
	}
	if _, err := lib.TrackBinding("entropy", TrackParams{Base: "bogus"}); err == nil {
		t.Fatal("bad base accepted")
	}
	if _, err := lib.TrackBinding("none", p); err == nil {
		t.Fatal("unknown track accepted")
	}
}

func mustPrefix(t *testing.T, s string) packet.Prefix {
	t.Helper()
	pfx, err := packet.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return pfx
}
