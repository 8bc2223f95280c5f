package netem

import (
	"container/heap"

	"stat4/internal/p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// This file is the scheduler oracle: a container/heap engine (refSim) and a
// closure-per-event node (refNode), the simplest correct form of what the
// timer wheel and nodeCore do. The differential tests in sched_test.go
// replay the same scripts and streams through both and require identical
// dispatch order, clocks, step counts and traces.

// heapEvent is the reference engine's record: the handler is a closure, so
// every schedule allocates (the closure plus the interface boxing in
// heap.Push). The wheel engine exists to delete exactly these costs.
type heapEvent struct {
	at  uint64
	seq uint64
	fn  func()
}

type eventQueue []heapEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(heapEvent)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// refSim is the reference event loop: a binary heap ordered by (time,
// schedule sequence), one closure per event.
type refSim struct {
	now   uint64
	seq   uint64 // FIFO tie-break for equal timestamps
	steps uint64
	queue eventQueue
}

func newRefSim() *refSim { return &refSim{} }

func (s *refSim) Now() uint64   { return s.now }
func (s *refSim) Steps() uint64 { return s.steps }

// At schedules fn at absolute virtual time t; the past clamps to now.
func (s *refSim) At(t uint64, fn func()) {
	if t < s.now {
		t = s.now
	}
	heap.Push(&s.queue, heapEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
}

func (s *refSim) After(d uint64, fn func()) { s.At(s.now+d, fn) }

func (s *refSim) Run() { s.RunUntil(^uint64(0)) }

// RunUntil has Sim.RunUntil's contract: events ≤ deadline run, the clock
// advances to the deadline and never rewinds.
func (s *refSim) RunUntil(deadline uint64) {
	if deadline < s.now {
		deadline = s.now
	}
	for len(s.queue) > 0 {
		if s.queue[0].at > deadline {
			break
		}
		e := heap.Pop(&s.queue).(heapEvent)
		s.now = e.at
		s.steps++
		e.fn()
	}
	if deadline != ^uint64(0) && s.now < deadline {
		s.now = deadline
	}
}

// refNode is the reference topology node: one closure-scheduled event per
// packet, a fresh frame copy and a closure per delivery, and digests drained
// from the switch's channel after every route.
type refNode struct {
	Sim       *refSim
	CtrlDelay uint64
	OnDigest  func(now uint64, d p4.Digest)
	Metrics   *telemetry.NodeMetrics

	proc    pipeline
	ports   map[uint16]*portLink
	digests <-chan p4.Digest
}

func newRefNode(sim *refSim, proc pipeline, digests <-chan p4.Digest, ctrlDelay uint64) *refNode {
	return &refNode{Sim: sim, CtrlDelay: ctrlDelay, proc: proc, ports: make(map[uint16]*portLink), digests: digests}
}

func (n *refNode) Connect(port uint16, delay uint64, deliver func(now uint64, data []byte)) {
	n.ports[port] = &portLink{delay: delay, deliver: deliver}
}

func (n *refNode) InjectStream(st traffic.Stream, port uint16) {
	var pump func()
	pump = func() {
		p, ok := st.Next()
		if !ok {
			return
		}
		n.Sim.At(p.TsNs, func() {
			n.route(n.proc.ProcessPacket(n.Sim.Now(), port, p.Frame))
			pump()
		})
	}
	pump()
}

func (n *refNode) route(outs []p4.FrameOut) {
	n.drainDigests()
	processedAt := n.Sim.Now()
	for _, out := range outs {
		link, ok := n.ports[out.Port]
		if !ok {
			if n.Metrics != nil {
				n.Metrics.UnroutedFrames.Inc()
			}
			continue
		}
		// A fresh copy and a closure per delivery. out.Data aliases the
		// switch's deparse buffer, which is reused on the next frame, while
		// delivery happens link.delay later.
		data := append([]byte(nil), out.Data...)
		n.Sim.After(link.delay, func() {
			now := n.Sim.Now()
			if n.Metrics != nil {
				n.Metrics.FrameLatency.Observe(now - processedAt)
			}
			link.deliver(now, data)
		})
	}
}

func (n *refNode) drainDigests() {
	for {
		if n.OnDigest == nil {
			select {
			case <-n.digests:
				if n.Metrics != nil {
					n.Metrics.DroppedDigests.Inc()
				}
				continue
			default:
				return
			}
		}
		// Occupancy before the receive: the digest being popped counts.
		q := uint64(len(n.digests))
		select {
		case d := <-n.digests:
			if n.Metrics != nil {
				n.Metrics.DigestQueue.Observe(q)
			}
			dg := d
			drainedAt := n.Sim.Now()
			n.Sim.After(n.CtrlDelay, func() {
				now := n.Sim.Now()
				if n.Metrics != nil {
					n.Metrics.CtrlLatency.Observe(now - drainedAt)
				}
				n.OnDigest(now, dg)
			})
		default:
			return
		}
	}
}
