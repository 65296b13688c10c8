package experiments

import (
	"reflect"
	"testing"
)

// TestChaosSoak is the acceptance test of the fault-injection plane: the
// Table 3 workload shape, rebuilt on the retrying RSR layer, must complete
// under >= 5% injected message loss (plus duplication and delay jitter) —
// and two runs with the same fault seed must be indistinguishable: the
// same injected fault stream, the same span stream, the same
// counters, the same virtual end time.
func TestChaosSoak(t *testing.T) {
	cfg := ChaosConfig{}
	if testing.Short() {
		cfg.Workers = 4
		cfg.Iters = 10
	}
	first, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("chaos run 1 did not complete: %v", err)
	}
	second, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("chaos run 2 did not complete: %v", err)
	}

	t.Logf("chaos: %.3fms virtual, faults %+v, sends=%d retries=%d dups-served=%d",
		first.TimeMS, first.Faults, first.Total.Sends, first.Total.RSRRetries,
		first.Total.RSRDupsServed)

	// The workload actually suffered: messages were dropped and retried.
	if first.Faults.Drops == 0 {
		t.Error("no drops injected at a 5% drop rate")
	}
	if first.Faults.Dups == 0 && first.Faults.Delays == 0 {
		t.Error("no duplicates or delays injected")
	}
	if first.Total.RSRRetries == 0 {
		t.Error("workload completed without a single retry under injected loss")
	}
	if first.Total.RSRTimeouts != 0 {
		t.Errorf("%d calls exhausted their retry budget", first.Total.RSRTimeouts)
	}
	if first.Total.FaultDrops != first.Faults.Drops {
		t.Errorf("transport counted %d fault drops, plan %d",
			first.Total.FaultDrops, first.Faults.Drops)
	}

	// Bitwise determinism for a fixed fault seed.
	if first.TimeMS != second.TimeMS {
		t.Errorf("virtual end diverged: %.3fms vs %.3fms", first.TimeMS, second.TimeMS)
	}
	if !reflect.DeepEqual(first.Faults, second.Faults) {
		t.Errorf("fault stats diverged:\nrun1: %+v\nrun2: %+v", first.Faults, second.Faults)
	}
	if len(first.FaultEvents) != len(second.FaultEvents) {
		t.Fatalf("fault event stream length diverged: %d vs %d",
			len(first.FaultEvents), len(second.FaultEvents))
	}
	for i := range first.FaultEvents {
		if first.FaultEvents[i] != second.FaultEvents[i] {
			t.Errorf("fault event %d diverged: %v vs %v",
				i, first.FaultEvents[i], second.FaultEvents[i])
			break
		}
	}
	if !reflect.DeepEqual(first.Total, second.Total) {
		t.Errorf("counters diverged:\nrun1: %+v\nrun2: %+v", first.Total, second.Total)
	}
	if len(first.Spans) != len(second.Spans) {
		t.Fatalf("span stream length diverged: %d vs %d", len(first.Spans), len(second.Spans))
	}
	for i := range first.Spans {
		if first.Spans[i] != second.Spans[i] {
			t.Errorf("span %d diverged: %+v vs %+v", i, first.Spans[i], second.Spans[i])
			break
		}
	}
}

// TestChaosSeedMatters: different fault seeds must produce different fault
// streams — the plan is seeded, not hard-wired.
func TestChaosSeedMatters(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Workers: 2, Iters: 5, FaultSeed: 101})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosConfig{Workers: 2, Iters: 5, FaultSeed: 202})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FaultEvents, b.FaultEvents) {
		t.Fatal("different fault seeds produced identical fault streams")
	}
}
