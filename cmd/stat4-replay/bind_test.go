package main

import (
	"reflect"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

// installed is one binding entry as the surface test pins it.
type installed struct {
	Action string
	Args   []uint64
}

// bindingEntries lists a switch's binding-table entries, checking each
// matches all IPv4 traffic at the default priority.
func bindingEntries(t *testing.T, lib *stat4p4.Library, sw *p4.Switch) []installed {
	t.Helper()
	allIPv4 := []p4.MatchValue{{}, {Value: 1, Mask: 1}, {}, {}}
	var out []installed
	for _, e := range sw.Snapshot().Entries[lib.BindTables[0]] {
		if e.ID != 1 || e.Priority != 0 || !reflect.DeepEqual(e.Match, allIPv4) {
			t.Fatalf("entry %+v: not the first all-IPv4 entry", e)
		}
		out = append(out, installed{e.Action, e.Args})
	}
	return out
}

// TestTrackInstalls pins what -track installs for every track name, under
// the flag defaults and under explicit flags, on the serial replay path and
// on every shard of the sharded path.
func TestTrackInstalls(t *testing.T) {
	defaults := stat4p4.TrackParams{
		IntervalShift: 23, Window: 100, K: 2, Base: "10.0.0.0", CheckEvery: 1024, SampleShift: 6,
	}
	explicit := stat4p4.TrackParams{
		IntervalShift: 20, Window: 50, K: 3, Base: "10.7.0.0", H0Bits: 2.5, CheckEvery: 64, SampleShift: 2,
	}
	for _, tc := range []struct {
		track  string
		params stat4p4.TrackParams
		want   []installed // nil: the track is refused
	}{
		{"window", defaults, []installed{{"bind_window", []uint64{0, 0, 23, 100, 2}}}},
		{"window", explicit, []installed{{"bind_window", []uint64{0, 0, 20, 50, 3}}}},
		{"dst24", defaults, []installed{{"bind_freq_dst", []uint64{0, 0, 8, 655360, 256, 1, 1, 2}}}},
		{"dst24", explicit, []installed{{"bind_freq_dst", []uint64{0, 0, 8, 657152, 256, 1, 1, 3}}}},
		{"proto", defaults, []installed{{"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 2}}}},
		{"proto", explicit, []installed{{"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 3}}}},
		{"len", defaults, []installed{{"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 2}}}},
		{"len", explicit, []installed{{"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 3}}}},
		{"entropy", defaults, []installed{{"bind_ent_dst", []uint64{0, 0, 8, 655360, 256, 0, 1023}}}},
		{"entropy", explicit, []installed{{"bind_ent_dst", []uint64{0, 0, 8, 657152, 256, 163840, 63}}}},
		{"hh", defaults, []installed{{"bind_hh_src", []uint64{0, 0, 0, 63}}}},
		{"hh", explicit, []installed{{"bind_hh_src", []uint64{0, 0, 0, 3}}}},
		// The replay program carries no flow-table plane.
		{"flow", defaults, nil},
		{"bogus", defaults, nil},
	} {
		tcfg := trackConfig{Track: tc.track, TrackParams: tc.params}
		lib := stat4p4.Build(tcfg.options())

		rt, err := stat4p4.NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		if err := tcfg.bind(rt); (err == nil) != (tc.want != nil) {
			t.Fatalf("serial -track %s: err = %v", tc.track, err)
		}
		if got := bindingEntries(t, lib, rt.Switch()); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("serial -track %s installed %+v, want %+v", tc.track, got, tc.want)
		}

		sr, err := stat4p4.NewShardedRuntime(lib, 2)
		if err != nil {
			t.Fatal(err)
		}
		err = tcfg.bind(sr)
		for i := 0; i < sr.NumShards(); i++ {
			if got := bindingEntries(t, lib, sr.ShardRuntime(i).Switch()); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("shard %d -track %s installed %+v, want %+v", i, tc.track, got, tc.want)
			}
		}
		sr.Close()
		if (err == nil) != (tc.want != nil) {
			t.Fatalf("sharded -track %s: err = %v", tc.track, err)
		}
	}
}
