package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"chant/internal/core"
)

// Event-count invariance witnesses. The constant-time hot paths (indexed
// ready queue, bucketed mailbox, ready-list polling, allocation pooling) are
// pure mechanism: they must not change WHAT the simulation computes, only
// how fast the real clock gets there. These goldens were captured from the
// seed's linear implementations; every row and hash below must stay
// bit-identical forever. A divergence means a hot-path "optimization" (or
// any later change) silently altered scheduling or matching order.

type pollingGolden struct {
	policy  core.PolicyKind
	alpha   int64
	ctxSw   uint64
	partial uint64
	msgTest uint64
	fails   uint64
	testAny uint64
	timeMS  float64
}

var pollingGoldens = []pollingGolden{
	{core.ThreadPolls, 1000, 560, 0, 1031, 549, 0, 99.565000},
	{core.ThreadPolls, 100000, 84, 0, 557, 75, 0, 964.031800},
	{core.SchedulerPollsPS, 1000, 502, 551, 551, 69, 0, 73.162000},
	{core.SchedulerPollsPS, 100000, 84, 77, 77, 15, 0, 957.857800},
	{core.SchedulerPollsWQ, 1000, 502, 0, 1453, 971, 0, 125.205000},
	{core.SchedulerPollsWQ, 100000, 92, 0, 997, 515, 0, 991.105800},
	{core.SchedulerPollsWQAny, 1000, 504, 0, 482, 482, 496, 109.605000},
	{core.SchedulerPollsWQAny, 100000, 92, 0, 482, 62, 100, 967.765800},
}

// hashChaos folds one chaos run's complete observable behaviour — final
// virtual clock, counters, fault record, and the canonical span stream of
// every process — into one FNV-1a word. The counters enter as Snapshot's
// %+v text, so adding a counter field (even one that stays zero here)
// re-pins the goldens; the individual figures in the error message
// distinguish a real behaviour change from such a re-pin.
func hashChaos(r ChaosResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "time=%.6f total=%+v faults=%+v\n", r.TimeMS, r.Total, r.Faults)
	for _, ev := range r.FaultEvents {
		fmt.Fprintf(h, "fault %+v\n", ev)
	}
	for _, sp := range r.Spans {
		fmt.Fprintf(h, "%+v\n", sp)
	}
	return h.Sum64()
}

// TestPollingEventInvariance pins every polling policy's context-switch,
// partial-switch, msgtest, and virtual-time figures (the inputs to the
// paper's Tables 2–5 and Figures 8–13) to the pre-optimization goldens.
func TestPollingEventInvariance(t *testing.T) {
	base := PollingConfig{Workers: 8, Iters: 30, MsgSize: 1024, Shift: 1}
	for _, g := range pollingGoldens {
		cfg := base
		cfg.Policy = g.policy
		cfg.Alpha = g.alpha
		cfg.Beta = 100
		row := RunPolling(cfg)
		if row.CtxSw != g.ctxSw || row.PartialSw != g.partial ||
			row.MsgTest != g.msgTest || row.MsgTestFails != g.fails ||
			row.TestAnyCalls != g.testAny || row.TimeMS != g.timeMS {
			t.Errorf("%s alpha=%d diverged from golden:\n got ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f\nwant ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f",
				g.policy, g.alpha,
				row.CtxSw, row.PartialSw, row.MsgTest, row.MsgTestFails, row.TestAnyCalls, row.TimeMS,
				g.ctxSw, g.partial, g.msgTest, g.fails, g.testAny, g.timeMS)
		}
	}
}

// TestChaosEventInvariance pins the complete fault-injection event streams
// (default and SchedulerPollsWQ policies) to the pre-optimization hashes:
// every send, retry, fault, and observation must replay byte-identically.
func TestChaosEventInvariance(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Workers: 4, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Re-pinned (from 0x64aefb9bc7bc6787 / 0x3285942fa943b5a4) when the
	// hash switched from the removed scheduler event log to the span
	// stream. The old pins still held with the tracer attached alongside
	// the log, and these are the span-based hashes of that same run, so
	// the schedule itself did not move.
	if got := hashChaos(r); got != 0xcbfe39a54d36c0e8 {
		t.Errorf("chaos stream hash = %#x, want 0xcbfe39a54d36c0e8 (time=%.6f sends=%d retries=%d faultevents=%d)",
			got, r.TimeMS, r.Total.Sends, r.Total.RSRRetries, len(r.FaultEvents))
	}
	rwq, err := RunChaos(ChaosConfig{Workers: 4, Iters: 10, Policy: core.SchedulerPollsWQ})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashChaos(rwq); got != 0x2d49b9fdf16eecc1 {
		t.Errorf("chaos-wq stream hash = %#x, want 0x2d49b9fdf16eecc1 (time=%.6f sends=%d retries=%d faultevents=%d)",
			got, rwq.TimeMS, rwq.Total.Sends, rwq.Total.RSRRetries, len(rwq.FaultEvents))
	}
}

// --- Parallel-kernel differential invariance ---
//
// The parallel conservative kernel must be pure mechanism, exactly like the
// hot paths above: same event streams, same counters, same virtual clock,
// only the host wall-clock changes. The tests below run the pinned Table
// 2–5 golden rows and the chaos soak hashes on the parallel kernel across
// shard counts and GOMAXPROCS values (including GOMAXPROCS=1, where the
// shard workers interleave on one core and any synchronization-order
// dependence would surface differently than at 8).

// parallelGOMAXPROCS are the host-parallelism levels every differential
// check runs at.
var parallelGOMAXPROCS = []int{1, 4, 8}

// withGOMAXPROCS runs fn at each parallelism level, restoring the previous
// setting afterwards.
func withGOMAXPROCS(t *testing.T, fn func(gmp int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range parallelGOMAXPROCS {
		runtime.GOMAXPROCS(gmp)
		fn(gmp)
	}
}

// TestParallelPollingInvariance runs the pinned polling golden rows on the
// parallel kernel: every counter and the virtual end time must match the
// sequential goldens bit for bit at every shard count and GOMAXPROCS.
func TestParallelPollingInvariance(t *testing.T) {
	base := PollingConfig{Workers: 8, Iters: 30, MsgSize: 1024, Shift: 1}
	withGOMAXPROCS(t, func(gmp int) {
		for _, shards := range []int{2, 4} {
			if testing.Short() && shards != 2 {
				continue
			}
			for _, g := range pollingGoldens {
				if testing.Short() && g.alpha != 1000 {
					continue
				}
				cfg := base
				cfg.Policy = g.policy
				cfg.Alpha = g.alpha
				cfg.Beta = 100
				cfg.Shards = shards
				row := RunPolling(cfg)
				if row.CtxSw != g.ctxSw || row.PartialSw != g.partial ||
					row.MsgTest != g.msgTest || row.MsgTestFails != g.fails ||
					row.TestAnyCalls != g.testAny || row.TimeMS != g.timeMS {
					t.Errorf("gomaxprocs=%d shards=%d %s alpha=%d diverged from sequential golden:\n got ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f\nwant ctxsw=%d partial=%d msgtest=%d fails=%d testany=%d time=%.6f",
						gmp, shards, g.policy, g.alpha,
						row.CtxSw, row.PartialSw, row.MsgTest, row.MsgTestFails, row.TestAnyCalls, row.TimeMS,
						g.ctxSw, g.partial, g.msgTest, g.fails, g.testAny, g.timeMS)
				}
			}
		}
	})
}

// TestParallelChaosInvariance runs the pinned chaos soaks — full fault
// plane, RSR retries, termination handshake — on the parallel kernel and
// requires the complete behaviour hash (counters, fault event stream,
// span streams) to equal the sequential goldens.
func TestParallelChaosInvariance(t *testing.T) {
	goldens := []struct {
		cfg  ChaosConfig
		want uint64
	}{
		// Same hashes as TestChaosEventInvariance, re-pinned with it when the
		// hash moved to the span stream (see the comment there).
		{ChaosConfig{Workers: 4, Iters: 10}, 0xcbfe39a54d36c0e8},
		{ChaosConfig{Workers: 4, Iters: 10, Policy: core.SchedulerPollsWQ}, 0x2d49b9fdf16eecc1},
	}
	withGOMAXPROCS(t, func(gmp int) {
		for gi, g := range goldens {
			if testing.Short() && gi > 0 {
				continue
			}
			cfg := g.cfg
			cfg.Shards = 2
			r, err := RunChaos(cfg)
			if err != nil {
				t.Fatalf("gomaxprocs=%d golden %d: parallel chaos run failed: %v", gmp, gi, err)
			}
			if got := hashChaos(r); got != g.want {
				t.Errorf("gomaxprocs=%d golden %d: parallel chaos stream hash = %#x, want %#x (time=%.6f sends=%d retries=%d faultevents=%d)",
					gmp, gi, got, g.want, r.TimeMS, r.Total.Sends, r.Total.RSRRetries, len(r.FaultEvents))
			}
		}
	})
}

// TestParallelLargeTopologyInvariance compares sequential and parallel runs
// of a 32-PE polling workload (16 replicated Table 3 pairs) — the benchmark
// shape — across shard counts that do and do not divide the PE count.
func TestParallelLargeTopologyInvariance(t *testing.T) {
	base := PollingConfig{Workers: 4, Iters: 15, MsgSize: 1024, Shift: 1,
		Alpha: 1000, Beta: 100, Pairs: 16, Policy: core.SchedulerPollsWQ}
	want := RunPolling(base)
	withGOMAXPROCS(t, func(gmp int) {
		for _, shards := range []int{2, 5, 8} {
			if testing.Short() && shards != 8 {
				continue
			}
			cfg := base
			cfg.Shards = shards
			got := RunPolling(cfg)
			if got != want {
				t.Errorf("gomaxprocs=%d shards=%d: 32-PE run diverged from sequential:\n got %+v\nwant %+v", gmp, shards, got, want)
			}
		}
	})
}
