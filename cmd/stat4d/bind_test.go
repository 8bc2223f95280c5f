package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

// installed is one table entry as a surface test pins it.
type installed struct {
	Action string
	Args   []uint64
}

// allIPv4 is the lowered AllIPv4 match every track binds with:
// [eth.type, ipv4.valid, ipv4.dst, tcp.syn].
var allIPv4 = []p4.MatchValue{{}, {Value: 1, Mask: 1}, {}, {}}

// replicaEntries returns shard 0's entries of every table, after requiring
// every shard to hold exactly the same entries (IDs, matches, priorities,
// actions and arguments).
func replicaEntries(t testing.TB, sr *stat4p4.ShardedRuntime) map[string][]p4.Entry {
	t.Helper()
	lib := sr.Library()
	var first map[string][]p4.Entry
	for i := 0; i < sr.NumShards(); i++ {
		snap := sr.ShardRuntime(i).Switch().Snapshot()
		got := make(map[string][]p4.Entry)
		for _, tbl := range append([]string{stat4p4.FwdTable}, lib.BindTables...) {
			for _, e := range snap.Entries[tbl] {
				got[tbl] = append(got[tbl], p4.Entry{ID: e.ID, Match: e.Match, Priority: e.Priority, Action: e.Action, Args: e.Args})
			}
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("shard %d entries %+v differ from shard 0 %+v", i, got, first)
		}
	}
	return first
}

// boundEntries returns the binding-table entries of a single-stage runtime,
// checking each matches all IPv4 traffic at the default priority.
func boundEntries(t *testing.T, sr *stat4p4.ShardedRuntime) []installed {
	t.Helper()
	var out []installed
	for _, e := range replicaEntries(t, sr)[sr.Library().BindTables[0]] {
		if e.Priority != 0 || !reflect.DeepEqual(e.Match, allIPv4) {
			t.Fatalf("entry %+v: not the all-IPv4 match", e)
		}
		out = append(out, installed{e.Action, e.Args})
	}
	return out
}

// TestTrackInstalls pins what -track installs for every track name, under
// the flag defaults and under explicit flags: the exact action and argument
// vector on every shard.
func TestTrackInstalls(t *testing.T) {
	defaults := daemonConfig{
		Shards: 2, Shift: 23, Window: 100, BasePrefix: "10.0.0.0",
		CheckEvery: 1024, SampleShift: 6, FlowTable: 64, FlowEpochShift: 23, FlowTTL: 4,
		RingCap: 64, SlabBlocks: 4, BlockSize: 4096, Batch: 64,
	}
	explicit := defaults
	explicit.K, explicit.H0Bits, explicit.SampleShift = 3, 2.5, 2
	explicit.Shift, explicit.Window, explicit.BasePrefix = 20, 50, "10.7.0.0"
	explicit.CheckEvery, explicit.FlowEpochShift, explicit.FlowTTL = 64, 18, 9
	for _, tc := range []struct {
		track string
		cfg   daemonConfig
		want  installed
	}{
		{"window", defaults, installed{"bind_window", []uint64{0, 0, 23, 100, 0}}},
		{"window", explicit, installed{"bind_window", []uint64{0, 0, 20, 50, 3}}},
		{"dst24", defaults, installed{"bind_freq_dst", []uint64{0, 0, 8, 655360, 256, 1, 1, 0}}},
		{"dst24", explicit, installed{"bind_freq_dst", []uint64{0, 0, 8, 657152, 256, 1, 1, 3}}},
		{"proto", defaults, installed{"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 0}}},
		{"proto", explicit, installed{"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 3}}},
		{"len", defaults, installed{"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 0}}},
		{"len", explicit, installed{"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 3}}},
		{"entropy", defaults, installed{"bind_ent_dst", []uint64{0, 0, 8, 655360, 256, 0, 1023}}},
		{"entropy", explicit, installed{"bind_ent_dst", []uint64{0, 0, 8, 657152, 256, 163840, 63}}},
		{"hh", defaults, installed{"bind_hh_src", []uint64{0, 0, 0, 63}}},
		{"hh", explicit, installed{"bind_hh_src", []uint64{0, 0, 0, 3}}},
		// -track flow admits every new key: sample shift 0, not -sample-shift.
		{"flow", defaults, installed{"bind_flow_src", []uint64{0, 0, 0, 23, 4, 0, 0}}},
		{"flow", explicit, installed{"bind_flow_src", []uint64{0, 0, 0, 18, 9, 0, 3}}},
	} {
		cfg := tc.cfg
		cfg.Track = tc.track
		d, err := newDaemon(cfg)
		if err != nil {
			t.Fatalf("-track %s: %v", tc.track, err)
		}
		got := boundEntries(t, d.rt)
		d.shutdown()
		if !reflect.DeepEqual(got, []installed{tc.want}) {
			t.Fatalf("-track %s (%+v): installed %+v, want %+v", tc.track, cfg, got, tc.want)
		}
	}
}

// TestBindInstalls pins what POST /bind installs for every mode, under the
// body defaults and under explicit fields: the exact action and argument
// vector on every shard, and nothing for a rejected request.
func TestBindInstalls(t *testing.T) {
	for _, tc := range []struct {
		body string
		want []installed // nil: the request is rejected
	}{
		{`{"mode":"window"}`, []installed{{"bind_window", []uint64{0, 0, 23, 100, 0}}}},
		{`{"mode":"window","slot":1,"interval_shift":20,"window":50,"k":3}`, []installed{{"bind_window", []uint64{256, 1, 20, 50, 3}}}},
		{`{"mode":"window","window":-1}`, []installed{{"bind_window", []uint64{0, 0, 23, 100, 0}}}},
		{`{"mode":"dst24"}`, []installed{{"bind_freq_dst", []uint64{0, 0, 8, 655360, 256, 1, 1, 0}}}},
		{`{"mode":"dst24","slot":1,"base":"10.7.0.0","size":128,"pa":1,"pb":3,"k":2}`, []installed{{"bind_freq_dst", []uint64{256, 1, 8, 657152, 128, 1, 3, 2}}}},
		{`{"mode":"dst24","size":-4}`, []installed{{"bind_freq_dst", []uint64{0, 0, 8, 655360, 256, 1, 1, 0}}}},
		{`{"mode":"dst24","pa":0,"pb":3}`, nil},
		{`{"mode":"proto"}`, []installed{{"bind_freq_proto", []uint64{0, 0, 0, 256, 1, 1, 0}}}},
		{`{"mode":"proto","slot":1,"size":64,"pa":2,"pb":1,"k":1}`, []installed{{"bind_freq_proto", []uint64{256, 1, 0, 64, 2, 1, 1}}}},
		{`{"mode":"len"}`, []installed{{"bind_freq_len", []uint64{0, 0, 6, 0, 256, 1, 1, 0}}}},
		{`{"mode":"len","slot":1,"size":32,"k":4}`, []installed{{"bind_freq_len", []uint64{256, 1, 6, 0, 32, 1, 1, 4}}}},
		{`{"mode":"entropy"}`, []installed{{"bind_ent_dst", []uint64{0, 0, 8, 655360, 256, 0, 0}}}},
		{`{"mode":"entropy","slot":1,"base":"10.7.0.0","size":128,"h0_bits":2.5,"check_every":64}`, []installed{{"bind_ent_dst", []uint64{256, 1, 8, 657152, 128, 163840, 63}}}},
		{`{"mode":"hh"}`, []installed{{"bind_hh_src", []uint64{0, 0, 0, 0}}}},
		{`{"mode":"hh","slot":1,"sample_shift":3}`, []installed{{"bind_hh_src", []uint64{16, 1, 0, 7}}}},
		// /bind flow takes the request's sample shift as the admission coin.
		{`{"mode":"flow"}`, []installed{{"bind_flow_src", []uint64{0, 0, 0, 23, 4, 0, 0}}}},
		{`{"mode":"flow","slot":1,"epoch_shift":18,"ttl":9,"sample_shift":3,"k":2}`, []installed{{"bind_flow_src", []uint64{64, 1, 0, 18, 9, 7, 2}}}},
		{`{"mode":"nope"}`, nil},
	} {
		d, err := newDaemon(daemonConfig{
			Shards: 2, Track: "none", FlowTable: 64,
			RingCap: 64, SlabBlocks: 4, BlockSize: 4096, Batch: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(tc.body)))
		got := boundEntries(t, d.rt)
		d.shutdown()
		wantCode := http.StatusOK
		if tc.want == nil {
			wantCode = http.StatusBadRequest
		}
		if rec.Code != wantCode {
			t.Fatalf("POST /bind %s = %d, want %d: %s", tc.body, rec.Code, wantCode, rec.Body.String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("POST /bind %s installed %+v, want %+v", tc.body, got, tc.want)
		}
	}
}

// FuzzBindRequest throws arbitrary bodies at POST /bind on a 2-shard daemon
// started with a dst24 binding. No body may panic the handler, every answer
// is 200 or a JSON 400, and whatever the request did, the shards' tables
// stay identical.
func FuzzBindRequest(f *testing.F) {
	for _, seed := range []string{
		`{"mode":"window","slot":1,"interval_shift":20,"window":50,"k":3}`,
		`{"mode":"dst24","slot":1,"base":"10.7.0.0","size":128,"pa":1,"pb":3,"k":2}`,
		`{"mode":"proto","size":64,"pa":2,"pb":1}`,
		`{"mode":"len","stage":1}`,
		`{"mode":"entropy","h0_bits":2.5,"check_every":3}`,
		`{"mode":"hh","sample_shift":40}`,
		`{"mode":"flow","slot":1,"epoch_shift":64,"ttl":9}`,
		`{"mode":"unbind","entry":1}`,
		`{"mode":"unbind","entry":7,"stage":-1}`,
		`{"mode":"reset","slot":0}`,
		`{"mode":"reset","slot":9}`,
		`{"mode":"dst24","base":"300.1.2.3"}`,
		`{"mode":7}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := newDaemon(daemonConfig{
			Shards: 2, Track: "dst24", BasePrefix: "10.0.0.0", FlowTable: 64,
			RingCap: 2, SlabBlocks: 2, BlockSize: 4096, Batch: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.shutdown()
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			decodeError(t, rec)
		default:
			t.Fatalf("POST /bind %q = %d", body, rec.Code)
		}
		replicaEntries(t, d.rt)
	})
}
