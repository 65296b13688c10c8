package experiments

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/machine"
	"chant/internal/trace"
	"chant/internal/ult"
)

// determinismRun is everything one simulated run observes: the aggregate
// result, every process's span stream, and the order thread-local
// destructors fired. Two runs of the same workload must produce identical
// values — that is the determinism guarantee the paper's experiment tables
// rest on, and the one detlint polices statically.
type determinismRun struct {
	VirtualEnd  float64
	Total       trace.Snapshot
	PerProc     map[comm.Addr]trace.Snapshot
	Spans       []trace.Span
	Destructors []string
}

// runDeterminismWorkload exercises the machinery where nondeterminism once
// hid: a 4-PE ring exchanging messages, a shared variable whose writes
// invalidate multiple cached copies (directory walk order), and workers with
// several thread-locals carrying destructors (destructor run order).
func runDeterminismWorkload(t *testing.T) determinismRun {
	t.Helper()
	topo := core.Topology{PEs: 4, ProcsPerPE: 1}
	tr := trace.NewTracer(0)
	rt := core.NewSimRuntime(topo,
		core.Config{Policy: core.SchedulerPollsPS, Delivery: core.DeliverCtx, Tracer: tr},
		machine.Paragon1994())
	addrs := topo.Addrs()
	n := len(addrs)
	var destructors []string

	const tagTok = 41
	mk := func(idx int) core.MainFunc {
		return func(th *core.Thread) {
			v, err := th.Process().NewShared("x", addrs[0], make([]byte, 8))
			if err != nil {
				panic(err)
			}
			next := addrs[(idx+1)%n]
			prev := addrs[(idx-1+n)%n]
			nextG := core.GlobalID{PE: next.PE, Proc: next.Proc, Thread: 0}
			prevG := core.GlobalID{PE: prev.PE, Proc: prev.Proc, Thread: 0}
			tok := make([]byte, 8)
			// Ring barrier: nobody touches the shared variable until the
			// token proves its home has created it.
			if idx == 0 {
				if err := th.Send(nextG, tagTok, tok); err != nil {
					panic(err)
				}
				if _, _, err := th.Recv(prevG, tagTok, tok); err != nil {
					panic(err)
				}
			} else {
				if _, _, err := th.Recv(prevG, tagTok, tok); err != nil {
					panic(err)
				}
				if err := th.Send(nextG, tagTok, tok); err != nil {
					panic(err)
				}
			}
			buf := make([]byte, 8)
			for r := 0; r < 3; r++ {
				binary.LittleEndian.PutUint64(buf, uint64(idx*10+r))
				if err := v.Write(th, buf); err != nil {
					panic(err)
				}
				if _, err := v.Read(th, buf); err != nil {
					panic(err)
				}
			}
			// Workers with several destructor-bearing thread-locals: their
			// cleanup order must not depend on map iteration.
			var ws []*core.Thread
			for w := 0; w < 2; w++ {
				idx, w := idx, w
				ws = append(ws, th.Process().CreateLocal(fmt.Sprintf("w%d", w), func(me *core.Thread) {
					tcb := me.Process().Sched().Current()
					for _, name := range []string{"alpha", "beta", "gamma"} {
						name := name
						key := ult.NewKey(name, func(any) {
							destructors = append(destructors, fmt.Sprintf("pe%d/w%d:%s", idx, w, name))
						})
						tcb.SetLocal(key, name)
					}
				}, ult.SpawnOpts{}))
			}
			for _, w := range ws {
				if _, err := th.JoinLocal(w); err != nil {
					panic(err)
				}
			}
		}
	}

	mains := make(map[comm.Addr]core.MainFunc, n)
	for i, a := range addrs {
		mains[a] = mk(i)
	}
	res, err := rt.Run(mains)
	if err != nil {
		t.Fatal(err)
	}
	return determinismRun{
		VirtualEnd:  res.VirtualEnd.Micros(),
		Total:       res.Total,
		PerProc:     res.PerProc,
		Spans:       tr.Snapshot(),
		Destructors: destructors,
	}
}

// TestSimRunsAreDeterministic runs the workload twice and asserts the runs
// are indistinguishable: same virtual end time, same counters, and the same
// span stream, span for span.
func TestSimRunsAreDeterministic(t *testing.T) {
	first := runDeterminismWorkload(t)
	second := runDeterminismWorkload(t)
	if first.VirtualEnd != second.VirtualEnd {
		t.Errorf("virtual end diverged: %.3fus vs %.3fus", first.VirtualEnd, second.VirtualEnd)
	}
	if !reflect.DeepEqual(first.Total, second.Total) {
		t.Errorf("total counters diverged:\nrun1: %+v\nrun2: %+v", first.Total, second.Total)
	}
	if !reflect.DeepEqual(first.PerProc, second.PerProc) {
		t.Errorf("per-process counters diverged")
	}
	if !reflect.DeepEqual(first.Destructors, second.Destructors) {
		t.Errorf("thread-local destructor order diverged:\nrun1: %v\nrun2: %v", first.Destructors, second.Destructors)
	}
	if len(first.Spans) == 0 {
		t.Fatal("no spans recorded")
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

// TestTable2Deterministic runs a trimmed Table 2 twice: the paper
// reproduction itself must be bit-identical across runs.
func TestTable2Deterministic(t *testing.T) {
	cfg := Table2Config{Rounds: 40, Warmup: 2, Sizes: []int{0, 1024}}
	first := RunTable2(cfg)
	second := RunTable2(cfg)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Table 2 rows diverged across identical runs:\nrun1: %+v\nrun2: %+v", first, second)
	}
}
