// Package netem is a small discrete-event network simulator: a virtual
// nanosecond clock, an event scheduler, and node wrappers that connect
// traffic sources, the P4 switch simulator and a controller over links with
// configurable latency. It stands in for the paper's emulated network
// (Figure 6): the case study's claims are about which interval detects a
// spike and how control-plane round trips dominate drill-down latency, both
// of which are functions of virtual time.
//
// The simulator is deliberately minimal — no packet loss, no queuing model,
// no bandwidth shaping — because the reproduced claims depend only on event
// ordering and link latency. Handlers run single-threaded on the caller's
// goroutine inside Run and may schedule further events.
//
// # The engine
//
// Events live in a hierarchical timer wheel: four levels of 256 slots
// covering a 2^32 ns horizon, with an overflow list for timestamps beyond
// it, so scheduling and dispatch are O(1) near the horizon instead of the
// O(log n) sift of a binary heap. Event records are typed — packet arrival,
// frame delivery, digest delivery, stream pump, generic func — and stored in
// a flat slab with a free list, so scheduling a packet through a warm
// simulator allocates nothing (pinned by the zero-alloc tests). The wheel is
// the only engine. The previous container/heap engine and its
// closure-per-event node live on verbatim as a test oracle (refSim and
// refNode in refsim_test.go): unit, property and fuzz tests require the
// wheel to produce the oracle's dispatch order (equal-time events run in
// schedule order), clocks and traces, and the experiment-level tests pin
// the wheel's case-study and detection results to output recorded from the
// heap engine.
//
// # Frame-buffer lifetime
//
// Delivered frame bytes are pooled. The []byte passed to a Connect deliver
// callback is only valid until the callback returns; the node reclaims the
// buffer immediately afterwards and will reuse it for a later frame. A
// callback that wants to keep the bytes must copy them.
package netem
