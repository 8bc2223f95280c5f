// Package detect scores the detector, not just the datapath: it replays
// (scenario × config × shards) cells from the internal/traffic
// scenario registry through the netem simulator and grades the resulting
// digest stream against the scenario's machine-readable ground truth.
//
// Each cell runs twice — once on the attack trace and once on the benign
// control twin — and yields, per detector track:
//
//   - time-to-detect: mean delay from attack onset to the first alert (for
//     heavy hitters, the first promotion of a culprit key) inside the attack
//     window,
//   - precision / recall / F1: over fixed evaluation windows of the virtual
//     clock for the temporal tracks (entropy collapse, σ-band window), and
//     over the ≥2%-share heavy-key sets for the heavy-hitter track,
//   - drill-down accuracy: the fraction of ground-truth culprit sources
//     present in the candidate table,
//   - false-alarm rate: alerts per second and flagged-window fraction on the
//     benign twin (misidentified heavy keys for the heavy-hitter track).
//
// These fold into a single composite quality Q in [0, 1] (see Result.Quality)
// used for two machine checks: the dominance assertion — every pathological
// configuration must score strictly worse than its healthy twin on every
// scenario its track is expected to catch, otherwise the scorer itself is
// broken — and the DETECT_<n>.json regression gate driven by cmd/stat4-detect.
//
// Everything is deterministic: generators are seed-pinned, the simulator runs
// on a virtual clock, and candidate orderings are canonically sorted, so the
// same grid at the same seed reproduces byte-identical scores.
package detect
