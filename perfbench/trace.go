package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one traced interval around a call into a layer. Spans of one batch
// share Batch; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Spans nest: a span recorded while another is open is its child.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // the open span new spans attach to (-1: none)
	batch int32
}

func newTracer(capHint int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capHint), cur: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span under the current one and makes it current.
func (t *tracer) open(name string) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.cur, Batch: t.batch})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

// close ends span i and makes its parent current.
func (t *tracer) close(i int32) int64 {
	s := &t.spans[i]
	s.End = t.now()
	t.cur = s.Parent
	return s.End - s.Start
}

// beginBatch opens a root span for one batch; every span recorded until
// endBatch descends from it.
func (t *tracer) beginBatch() {
	t.batch++
	t.cur = -1
	t.open("batch")
}

func (t *tracer) endBatch() {
	for t.cur >= 0 {
		t.close(t.cur)
	}
}

// record appends a finished span under the current one.
func (t *tracer) record(name string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.cur, Batch: t.batch})
}

// time runs f inside a span and returns its duration in ns.
func (t *tracer) time(name string, f func()) int64 {
	i := t.open(name)
	f()
	return t.close(i)
}

// selfTimes sums each span name's self time: its duration minus the part
// covered by its children. Children of one parent never overlap (the traced
// pass records them one after another), so the covered part is the sum of
// their durations.
func selfTimes(spans []span) (self map[string]int64, total int64) {
	self = make(map[string]int64)
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		self[s.Name] += d - child[i]
		if s.Parent < 0 {
			total += d
		}
	}
	return self, total
}

// layerRow is one line of the "where a packet's nanoseconds go" table.
type layerRow struct {
	name  string
	what  string
	probe bool // harness probe: extra work done to isolate a cost, not a production step
}

// layerTable renders the self-time table. The unattributed row is the traced
// end-to-end time minus every listed layer's self time (the harness loop and
// clock reads between spans, plus any span the table does not list), so the
// rows sum to the traced time exactly and the unattributed share is the
// margin by which the layers miss it.
func layerTable(title string, rows []layerRow, spans []span, frames uint64, untracedNsPerFrame float64) (lines []string, unattributed float64, tracedNsPerFrame float64) {
	self, total := selfTimes(spans)
	if frames == 0 || total == 0 {
		return nil, 0, 0
	}
	tracedNsPerFrame = float64(total) / float64(frames)
	lines = append(lines, fmt.Sprintf("== where a packet's nanoseconds go: %s (%d frames, traced pass) ==", title, frames))
	lines = append(lines, fmt.Sprintf("%-28s %10s %7s  %s", "layer (self time)", "ns/frame", "share", "public call(s) inside the span"))
	var sum int64
	emitRow := func(name, what string, ns int64) {
		sum += ns
		lines = append(lines, fmt.Sprintf("%-28s %10.1f %6.1f%%  %s", name, float64(ns)/float64(frames), 100*float64(ns)/float64(total), what))
	}
	for _, r := range rows {
		if !r.probe {
			emitRow(r.name, r.what, self[r.name])
		}
	}
	for _, r := range rows {
		if r.probe {
			emitRow(r.name, "probe: "+r.what, self[r.name])
		}
	}
	rest := total - sum
	emitRow("unattributed", "harness loop between spans", rest)
	unattributed = float64(rest) / float64(total)
	lines = append(lines, fmt.Sprintf("%-28s %10.1f %6.1f%%  traced end-to-end time; layers cover %.1f%% of it (margin: unattributed <= 10%%)",
		"total", float64(total)/float64(frames), 100.0, 100*(1-unattributed)))
	lines = append(lines, fmt.Sprintf("untraced end-to-end: %.1f ns/frame; tracing overhead (traced / untraced): %.2fx",
		untracedNsPerFrame, tracedNsPerFrame/untracedNsPerFrame))
	return lines, unattributed, tracedNsPerFrame
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation; xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
