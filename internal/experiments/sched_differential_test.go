package experiments

import (
	"fmt"
	"testing"
)

// heapCaseStudy pins the case-study results the container/heap scheduler
// (the simulator's original engine, now a test oracle in internal/netem)
// produced for each configuration of TestCaseStudySchedDifferential,
// rendered with %+v.
var heapCaseStudy = []string{
	"{Params:{IntervalShift:20 WindowSize:20 PacketsPerInterval:100 SpikeFactor:4 CtrlDelay:50000000 Seed:5 Telemetry:<nil>} SpikeOnset:35476431 SpikeTarget:10.0.5.1 Detected:true DetectedSwitchTs:35653548 DetectionIntervalLag:1 SubnetIdentified:true SubnetCorrect:true HostIdentified:true HostCorrect:true PinpointNs:292123560 Log:[[  85653548ns] traffic-spike alert: interval value 161 > threshold 2110; installing per-/24 counting [ 206627209ns] traffic-imbalance alert: hot subnet 10.0.5.0/24; refining to per-destination counting [ 327599991ns] destination pinpointed: 10.0.5.1]}",
	"{Params:{IntervalShift:20 WindowSize:20 PacketsPerInterval:60 SpikeFactor:4 CtrlDelay:600000000 Seed:11 Telemetry:<nil>} SpikeOnset:35749296 SpikeTarget:10.0.2.1 Detected:true DetectedSwitchTs:28319396 DetectionIntervalLag:-7 SubnetIdentified:true SubnetCorrect:true HostIdentified:true HostCorrect:true PinpointNs:3034514077 Log:[[ 628319396ns] traffic-spike alert: interval value 65 > threshold 1289; installing per-/24 counting [1849291814ns] traffic-imbalance alert: hot subnet 10.0.2.0/24; refining to per-destination counting [3070263373ns] destination pinpointed: 10.0.2.1]}",
}

// TestCaseStudySchedDifferential runs the case study on the timer wheel and
// requires results byte-identical to the heap engine's pinned output —
// detection outcome, every timestamp, and the full drill-down log. The
// second configuration's virtual duration crosses the wheel's 2^32 ns
// horizon, so the overflow path is exercised end to end, not just in unit
// tests.
func TestCaseStudySchedDifferential(t *testing.T) {
	configs := []CaseStudyParams{
		{IntervalShift: 20, WindowSize: 20, PacketsPerInterval: 100, CtrlDelay: 50e6, Seed: 5},
		{IntervalShift: 20, WindowSize: 20, PacketsPerInterval: 60, CtrlDelay: 600e6, Seed: 11},
	}
	if testing.Short() {
		configs = configs[:1]
	}
	for i, params := range configs {
		res, err := CaseStudy(params)
		if err != nil {
			t.Fatal(err)
		}
		if wheel := fmt.Sprintf("%+v", res); wheel != heapCaseStudy[i] {
			t.Fatalf("config %d: wheel result differs from the heap engine's\nwheel: %s\nheap:  %s", i, wheel, heapCaseStudy[i])
		}
	}
}
