package trace_test

import (
	"strings"
	"testing"

	"chant/internal/machine"
	"chant/internal/sim"
	"chant/internal/trace"
	"chant/internal/ult"
)

// TestTimelineFromRealSchedulerLog renders the span log of an actual
// scheduler: main plus three threads yielding round-robin on a simulated
// PE, one row each, every one of them shown running.
func TestTimelineFromRealSchedulerLog(t *testing.T) {
	tr := trace.NewTracer(0)
	k := sim.NewKernel()
	k.Spawn("pe", func(p *sim.Proc) {
		host := machine.NewSimHost(p, machine.Paragon1994())
		s := ult.NewSched(host, &trace.Counters{}, ult.Options{Tracer: tr, PE: 2})
		if err := s.Run(func() {
			for i := 0; i < 3; i++ {
				s.Spawn("w", func() {
					for round := 0; round < 5; round++ {
						s.Yield()
					}
				})
			}
		}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := trace.Timeline(tr.Snapshot(), 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + main + 3 workers
		t.Fatalf("unexpected shape:\n%s", out)
	}
	for _, row := range lines[1:] {
		if !strings.HasPrefix(row, "pe2.t") || !strings.Contains(row, "#") {
			t.Errorf("thread row mislabeled or never running:\n%s", out)
		}
	}
}
