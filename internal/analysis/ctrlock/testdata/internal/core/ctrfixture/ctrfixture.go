// Package ctrfixture seeds instrumentation and locking violations for the
// ctrlock analyzer inside a runtime package path (internal/core/...).
package ctrfixture

import (
	"sync"

	"chant/internal/trace"
	"chant/internal/ult"
)

// copies exercises the by-value instrument checks.
func copies(c *trace.Counters) {
	bad := *c // want `trace\.Counters copied by value`
	_ = bad
	snap := c.Snap() // ok: Snapshot is the sanctioned plain-value copy
	_ = snap
	good := c // ok: pointer copy
	_ = good
}

func byValueParam(c trace.Counters) { // want `trace\.Counters passed by value as a parameter`
	_ = c.Sends.Load()
}

func byValueResult() trace.Counters { // want `trace\.Counters passed by value as a result`
	return trace.Counters{}
}

// stores exercises the add-only counter check.
func stores(c *trace.Counters) {
	c.Sends.Store(0)       // want `Store on a trace\.Counters field`
	c.FullSwitches.Swap(7) // want `Swap on a trace\.Counters field`
	c.Sends.Add(1)         // ok: counters are add-only accumulators
	_ = c.Sends.Load()
}

// leakSync exercises the sync.Mutex balance check.
func leakSync(mu *sync.Mutex, cond bool) {
	mu.Lock() // want `mu\.Lock has no matching unlock in leakSync`
	if cond {
		return
	}
}

// leakUlt exercises the thread-mutex balance check.
func leakUlt(m *ult.Mutex) {
	m.Lock() // want `m\.Lock has no matching unlock in leakUlt`
}

// compactDeletes exercises the stale-tail check: append-based removal on a
// reference-element slice strands the removed pointer in the old last slot.
func compactDeletes(ptrs []*trace.Counters, ints []int, i int) ([]*trace.Counters, []int) {
	ptrs = append(ptrs[:i], ptrs[i+1:]...) // want `append-based compact delete on ptrs strands a live reference`
	ints = append(ints[:i], ints[i+1:]...) // ok: value elements hold nothing
	return ptrs, ints
}

type withRef struct{ name string }

func compactDeleteStruct(xs []withRef, i int) []withRef {
	xs = append(xs[:i], xs[i+1:]...) // want `append-based compact delete on xs strands a live reference`
	return xs
}

// compactDeleteFixed is the sanctioned removal shape: shift, zero the
// vacated slot, truncate.
func compactDeleteFixed(ptrs []*trace.Counters, i int) []*trace.Counters {
	copy(ptrs[i:], ptrs[i+1:])
	ptrs[len(ptrs)-1] = nil
	return ptrs[:len(ptrs)-1]
}

// balanced locking shapes must stay silent.
type guarded struct {
	mu    sync.Mutex
	count int
}

func (g *guarded) deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
}

func (g *guarded) branched(early bool) int {
	g.mu.Lock()
	if early {
		g.mu.Unlock()
		return 0
	}
	n := g.count
	g.mu.Unlock()
	return n
}
