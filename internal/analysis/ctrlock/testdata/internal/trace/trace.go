// Package trace stubs chant/internal/trace for ctrlock fixtures: the real
// Counters also embeds atomics and a mutex, which is exactly why copying it
// by value is a bug.
package trace

import (
	"sync"
	"sync/atomic"
)

// Counters stubs the per-process event counters.
type Counters struct {
	FullSwitches atomic.Uint64
	Sends        atomic.Uint64
	mu           sync.Mutex
}

// Snapshot stubs the plain-value counter copy (safe to copy).
type Snapshot struct {
	FullSwitches, Sends uint64
}

// Snap stubs snapshotting.
func (c *Counters) Snap() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{FullSwitches: c.FullSwitches.Load(), Sends: c.Sends.Load()}
}
