package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"stat4/internal/ingest"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// daemonOpts is stat4d's program: two distribution slots of 256 cells, one
// binding stage, entropy and heavy hitters compiled in.
var daemonOpts = stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}

// shape is how a live workload's switch is populated.
type shape struct {
	shards int
	// tenants adds per-tenant DstIn bindings (priority 1) on slot 1 for the
	// /24s of 10.1.0.0/16, which the generated traffic never addresses: they
	// cost a table scan on every packet and match none.
	tenants int
	// hhVictim, when set, binds a heavy-hitter tracker (slot 1, one
	// recirculation in 2^6) to exactly this host.
	hhVictim packet.IP4
	// routes installs this many /22 routes covering 10.0.0.0/16, so every
	// generated frame is forwarded (and re-serialised).
	routes int
}

var (
	dstBase    = packet.ParseIP4(10, 0, 0, 0) // the dst24 catch-all indexes 10.0.x.0/24
	tenantBase = packet.ParseIP4(10, 1, 0, 0)
)

// setupTimes splits one set-up into its layers. Each is CPU time of the
// set-up thread: on a shared host, wall time over a few milliseconds mostly
// measures the hypervisor (steal), not the code.
type setupTimes struct {
	build    time.Duration // stat4p4.Build + NewShardedRuntime (program emit + plan compile)
	populate time.Duration // Bind* and AddRoute calls
	start    time.Duration // ingest.New (observers, sink, consumer start)
}

func (s setupTimes) total() time.Duration { return s.build + s.populate + s.start }

// binder is the control surface populate drives; both runtimes satisfy it.
type binder interface {
	BindFreqDst(stage, slot int, m stat4p4.Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error)
	BindHeavyHitterSrc(stage, slot int, m stat4p4.Match, shift, sampleShift uint) (p4.EntryID, error)
	AddRoute(prefix packet.Prefix, port uint16) (p4.EntryID, error)
}

// populate installs the shape's control plane: the dst24 k=2 catch-all on
// slot 0, the tenant bindings, the heavy-hitter victim binding and routes.
func populate(b binder, sh shape) error {
	if _, err := b.BindFreqDst(0, 0, stat4p4.AllIPv4(), 8, uint64(dstBase)>>8, 256, 1, 1, 2); err != nil {
		return fmt.Errorf("catch-all: %w", err)
	}
	for i := 0; i < sh.tenants; i++ {
		m := stat4p4.DstIn(packet.NewPrefix(tenantBase+packet.IP4(i<<8), 24))
		m.Priority = 1
		if _, err := b.BindFreqDst(0, 1, m, 8, uint64(tenantBase)>>8, 256, 1, 1, 0); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	if sh.hhVictim != 0 {
		m := stat4p4.DstIn(packet.NewPrefix(sh.hhVictim, 32))
		m.Priority = 1
		if _, err := b.BindHeavyHitterSrc(0, 1, m, 0, 6); err != nil {
			return fmt.Errorf("hh victim: %w", err)
		}
	}
	for j := 0; j < sh.routes; j++ {
		p := packet.NewPrefix(dstBase+packet.IP4(j<<10), 22)
		if _, err := b.AddRoute(p, uint16(1+j%4)); err != nil {
			return fmt.Errorf("route %d: %w", j, err)
		}
	}
	return nil
}

// newSharded emits the program, compiles the sharded runtime and populates
// it, timing each step.
func newSharded(sh shape) (*stat4p4.ShardedRuntime, setupTimes, error) {
	var st setupTimes
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	lib := stat4p4.Build(daemonOpts)
	sr, err := stat4p4.NewShardedRuntime(lib, sh.shards)
	if err != nil {
		return nil, st, err
	}
	t1 := threadCPU()
	if err := populate(sr, sh); err != nil {
		sr.Close()
		return nil, st, err
	}
	st.build, st.populate = t1-t0, threadCPU()-t1
	return sr, st, nil
}

// newEngine is newSharded plus the ingest engine in front of it: the
// benchmark's set-up, up to the point where a first frame could be offered.
func newEngine(sh shape) (*ingest.Engine, setupTimes, error) {
	sr, st, err := newSharded(sh)
	if err != nil {
		return nil, st, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPU()
	e := ingest.New(sr, ingest.Config{})
	st.start = threadCPU() - t
	return e, st, nil
}

// absorbTimeout bounds how long the harness waits for offered frames to be
// absorbed (consumed or shed). Frames the engine accepted but never
// delivers — a broken ledger — would otherwise stall the run forever.
const absorbTimeout = 2 * time.Second

// waitAbsorbed waits until the engine's frame counter plus its shed counter
// reaches target, polling with poll between checks (0 yields instead of
// sleeping). It reports false on timeout.
func waitAbsorbed(e *ingest.Engine, target uint64, poll time.Duration) bool {
	deadline := time.Now().Add(absorbTimeout)
	for {
		_, shed := e.Shed()
		if e.Frames()+shed >= target {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		if poll > 0 {
			time.Sleep(poll)
		} else {
			runtime.Gosched()
		}
	}
}

func stopEngine(e *ingest.Engine) {
	e.Stop()
	e.Runtime().Close()
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// frame is one generated input frame.
type frame struct {
	ts   uint64
	data []byte
}

// reference is the expected outcome of feeding a frame sequence to the shape:
// the canonicalised snapshot of one serial runtime (the sharded merge must
// equal it byte for byte) and the digest count of per-shard serial replicas
// (digest decisions are shard-local, so the count is defined per shard).
type reference struct {
	snap    *p4.Snapshot
	digests uint64
	parseEr uint64
}

// computeReference runs the frames through a serial stat4p4.Runtime and
// through a sharded runtime whose shards are driven one frame at a time on
// the caller's goroutine. Both are outside every timed region.
func computeReference(sh shape, extra func(binder) error, frames func(yield func(ts uint64, data []byte))) (*reference, error) {
	lib := stat4p4.Build(daemonOpts)
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return nil, err
	}
	sr, err := stat4p4.NewShardedRuntime(lib, sh.shards)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	for _, b := range []binder{rt, sr} {
		if err := populate(b, sh); err != nil {
			return nil, err
		}
		if extra != nil {
			if err := extra(b); err != nil {
				return nil, err
			}
		}
	}
	rt.Switch().SetDigestSink(func(p4.Digest) {})
	ss := sr.Sharded()
	ref := &reference{}
	for i := 0; i < ss.NumShards(); i++ {
		ss.Shard(i).SetDigestSink(func(p4.Digest) { ref.digests++ })
	}
	frames(func(ts uint64, data []byte) {
		rt.Switch().ProcessFrame(ts, 1, data)
		ss.Shard(ss.ShardOf(data)).ProcessFrame(ts, 1, data)
	})
	ref.snap = rt.Switch().Snapshot()
	lib.CanonicalizeSnapshot(ref.snap, sr.FreqSlots())
	ref.parseEr = rt.Switch().Stats().ParseErrors
	if !snapshotsEqual(sr.MergedSnapshot(), ref.snap, true) {
		return nil, fmt.Errorf("reference: serially driven shards do not merge to the serial snapshot")
	}
	return ref, nil
}

// snapshotsEqual compares register state and, when entries is set, the
// installed table entries.
func snapshotsEqual(a, b *p4.Snapshot, entries bool) bool {
	if !reflect.DeepEqual(a.Registers, b.Registers) {
		return false
	}
	return !entries || reflect.DeepEqual(a.Entries, b.Entries)
}

// ctrlOp is one kind of control call, routed through Engine.Do exactly as
// stat4d's HTTP handlers route it.
type ctrlOp int

const (
	opStats ctrlOp = iota
	opScrape
	opCounters
	opSnapshot
	opRebind
	numCtrlOps
)

var ctrlOpNames = [numCtrlOps]string{"stats", "scrape", "counters", "snapshot", "rebind"}

// ctrlSample is one timed control call. wait and busy are known for the
// calls whose Do closure the harness owns (counters, snapshot, rebind).
type ctrlSample struct {
	op         ctrlOp
	latency    time.Duration // from the scheduled time until the call returned
	lag        time.Duration // how late the call was issued
	wait, busy time.Duration
	owned      bool
	bytes      int
	err        error
}

// controller issues control calls on a fixed schedule against a running
// engine. Its samples are preallocated so the run's heap measurement does
// not see them grow.
type controller struct {
	e       *ingest.Engine
	period  time.Duration
	ops     []ctrlOp
	samples []ctrlSample
	buf     bytes.Buffer
	slot1   p4.EntryID // current slot-1 binding (rebind target)
	stop    chan struct{}
	done    sync.WaitGroup
}

func newController(period time.Duration, ops []ctrlOp, maxCalls int) *controller {
	c := &controller{period: period, ops: ops, samples: make([]ctrlSample, 0, maxCalls), stop: make(chan struct{})}
	c.buf.Grow(64 << 10)
	return c
}

// start launches the schedule against e at t0; stopAndWait ends it.
func (c *controller) start(e *ingest.Engine, t0 time.Time) {
	c.e = e
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		for i := 0; len(c.samples) < cap(c.samples); i++ {
			due := t0.Add(time.Duration(i+1) * c.period)
			if !sleepUntil(due, c.stop) {
				return
			}
			c.samples = append(c.samples, c.call(c.ops[i%len(c.ops)], due))
		}
	}()
}

func (c *controller) stopAndWait() {
	close(c.stop)
	c.done.Wait()
}

// call performs one control operation.
func (c *controller) call(op ctrlOp, due time.Time) ctrlSample {
	s := ctrlSample{op: op, lag: time.Since(due)}
	// owned runs f inside Do and splits the call into the wait for the
	// batch in flight and the closure's own run time.
	owned := func(f func()) {
		issued := time.Now()
		var began, ended time.Time
		c.e.Do(func() {
			began = time.Now()
			f()
			ended = time.Now()
		})
		s.owned, s.wait, s.busy = true, began.Sub(issued), ended.Sub(began)
	}
	sr := c.e.Runtime()
	switch op {
	case opStats:
		// Stats is one cut between batches: every consumed frame has
		// entered exactly one shard.
		if st := c.e.Stats(); st.Frames != st.Switch.PktsIn {
			s.err = fmt.Errorf("stats: frames %d != pkts_in %d", st.Frames, st.Switch.PktsIn)
		}
	case opScrape:
		c.buf.Reset()
		s.err = c.e.WriteProm(&c.buf)
		s.bytes = c.buf.Len()
		if s.err == nil {
			if _, err := telemetry.ValidateExposition(c.buf.String()); err != nil {
				s.err = fmt.Errorf("scrape body invalid: %w", err)
			}
		}
	case opCounters:
		owned(func() { _, s.err = sr.MergedCounters(0, 0) })
	case opSnapshot:
		owned(func() {
			if snap := sr.MergedSnapshot(); snap == nil {
				s.err = fmt.Errorf("nil merged snapshot")
			}
		})
	case opRebind:
		// POST /bind: drop the slot-1 binding and install it again, inside
		// one Do so no batch sees the table between the two.
		owned(func() {
			if c.slot1 != 0 {
				if s.err = sr.Unbind(0, c.slot1); s.err != nil {
					return
				}
			}
			c.slot1, s.err = bindSlot1(sr)
		})
	}
	s.latency = time.Since(due)
	return s
}

// rebindPrefix is the /24 the controller's slot-1 binding tracks: one of the
// uniformly addressed stream destinations, so the binding carries traffic.
var rebindPrefix = packet.ParseIP4(10, 0, 7, 0)

// bindSlot1 installs the initial slot-1 binding a rebinding controller
// replaces; twins install it once so their datapath behaves identically.
func bindSlot1(b binder) (p4.EntryID, error) {
	m := stat4p4.DstIn(packet.NewPrefix(rebindPrefix, 24))
	m.Priority = 1
	return b.BindFreqDst(0, 1, m, 0, uint64(rebindPrefix), 256, 1, 1, 0)
}

// ctrlSummary folds the controller samples into metrics.
type ctrlSummary struct {
	calls, errors          uint64
	p50, p99, lagP99       float64
	waitP50, busyP50       float64
	rebindP50, mergeP50    float64
	scrapeP50, scrapeBytes float64
	firstErr               error
}

func summarizeCtrl(samples []ctrlSample) ctrlSummary {
	var s ctrlSummary
	var lat, lag, wait, busy, rebind, merge, scrape, sbytes []float64
	for _, x := range samples {
		s.calls++
		if x.err != nil {
			s.errors++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("%s: %w", ctrlOpNames[x.op], x.err)
			}
		}
		lat = append(lat, us(x.latency))
		lag = append(lag, us(x.lag))
		if x.owned {
			wait = append(wait, us(x.wait))
			busy = append(busy, us(x.busy))
		}
		switch x.op {
		case opRebind:
			rebind = append(rebind, us(x.busy))
		case opCounters, opSnapshot:
			merge = append(merge, us(x.busy))
		case opScrape:
			scrape = append(scrape, us(x.latency))
			sbytes = append(sbytes, float64(x.bytes))
		}
	}
	s.p50, s.p99, s.lagP99 = median(lat), quantile(lat, 0.99), quantile(lag, 0.99)
	s.waitP50, s.busyP50 = median(wait), median(busy)
	s.rebindP50, s.mergeP50 = median(rebind), median(merge)
	s.scrapeP50, s.scrapeBytes = median(scrape), median(sbytes)
	return s
}

// sleepUntil waits for t: a timer sleep for the bulk, then yielding polls
// for the last stretch so the wake-up is not late by a timer tick. It
// returns false if stop closed first.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	if d := time.Until(t) - 200*time.Microsecond; d > 0 {
		tm := time.NewTimer(d)
		select {
		case <-stop:
			tm.Stop()
			return false
		case <-tm.C:
		}
	}
	for time.Now().Before(t) {
		select {
		case <-stop:
			return false
		default:
		}
		runtime.Gosched()
	}
	return true
}

// cpuTime returns the process's CPU time: every thread, the datapath's
// goroutines and the garbage collector included.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the calling thread's CPU time; callers pin their
// goroutine with runtime.LockOSThread around the measured span.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// Linux CPU-time clocks. Unlike getrusage, whose per-thread figures are
// apportioned by scheduler ticks, they count nanoseconds actually run.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
