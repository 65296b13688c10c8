// The flight recorder: the real-mode backing store for the Tracer. The
// mutexed span store is fine under the simulation kernel, where emission
// order *is* the determinism contract, but a mutex per record on the
// real-mode data plane would serialize exactly the PEs being measured. The
// recorder instead keeps one fixed-size ring per PE, written lock-free and
// read by a snapshot merge that never stops the writers.
//
// Memory model. Each slot is five atomic words: a sequence word and four
// payload words (packed kind/PE/TID, begin, end, arg). A writer claims a
// position with a CAS on the ring cursor — each ring is nominally
// single-writer (its PE's worker goroutine), the CAS covers the rare
// transport-side emitter landing on a peer's ring — then publishes with a
// seqlock protocol: seq←0 (slot invalid), payload stores, seq←position+1.
// A reader accepts a slot only if seq reads position+1 both before and
// after the payload loads; a torn or overwritten slot is simply skipped.
// Every access is a sync/atomic operation, so the race detector sees a
// clean execution, and the only loop — the CAS claim — is lock-free
// forward progress, which detlint's bounded-spin check exempts.
//
// The recorder is lossy by design: once a ring laps, the oldest spans are
// overwritten and counted in Dropped. A flight recorder answers "what just
// happened", not "everything that ever happened".
package trace

import (
	"sync/atomic"

	"chant/internal/sim"
)

// DefaultRingSlots is the per-PE ring capacity when the caller passes 0.
const DefaultRingSlots = 1 << 14

// Recorder is a set of per-PE lock-free span rings.
type Recorder struct {
	rings []ring
}

// ring is one PE's span buffer. pos counts claims ever made; slot i holds
// the record claimed at position p where p&mask == i.
type ring struct {
	pos  atomic.Uint64
	mask uint64
	slot []slot
	// pad keeps neighbouring rings' cursors off one cache line, so PEs
	// recording concurrently do not false-share.
	_ [40]byte
}

// slot is one published span: a seqlock word plus the packed payload.
type slot struct {
	seq atomic.Uint64
	w0  atomic.Uint64 // kind<<56 | pe<<32 | uint32(tid)
	w1  atomic.Uint64 // begin (ns)
	w2  atomic.Uint64 // end (ns)
	w3  atomic.Uint64 // arg
}

// NewRecorder builds a recorder with one ring per PE, each holding
// slotsPerRing spans rounded up to a power of two (0 selects
// DefaultRingSlots).
func NewRecorder(pes, slotsPerRing int) *Recorder {
	if pes < 1 {
		pes = 1
	}
	if slotsPerRing <= 0 {
		slotsPerRing = DefaultRingSlots
	}
	n := 1
	for n < slotsPerRing {
		n <<= 1
	}
	r := &Recorder{rings: make([]ring, pes)}
	for i := range r.rings {
		r.rings[i].slot = make([]slot, n)
		r.rings[i].mask = uint64(n - 1)
	}
	return r
}

// Record publishes one span on the ring for pe (clamped into range, so a
// span from an unexpected PE lands somewhere rather than panicking).
func (r *Recorder) Record(pe int, s Span) {
	if pe < 0 || pe >= len(r.rings) {
		pe = len(r.rings) - 1
	}
	rg := &r.rings[pe]
	var p uint64
	for {
		p = rg.pos.Load()
		if rg.pos.CompareAndSwap(p, p+1) {
			break
		}
	}
	sl := &rg.slot[p&rg.mask]
	sl.seq.Store(0)
	sl.w0.Store(uint64(s.Kind)<<56 | uint64(uint32(s.PE)&0xffffff)<<32 | uint64(uint32(s.TID)))
	sl.w1.Store(uint64(s.Begin))
	sl.w2.Store(uint64(s.End))
	sl.w3.Store(s.Arg)
	sl.seq.Store(p + 1)
}

// Snapshot merges every ring's currently published spans. It runs
// concurrently with writers: slots being rewritten or already lapped
// during the read are skipped, never blocked on.
func (r *Recorder) Snapshot() []Span {
	var out []Span
	for i := range r.rings {
		rg := &r.rings[i]
		head := rg.pos.Load()
		n := uint64(len(rg.slot))
		if head < n {
			n = head
		}
		for p := head - n; p < head; p++ {
			sl := &rg.slot[p&rg.mask]
			if sl.seq.Load() != p+1 {
				continue // mid-write or overwritten
			}
			w0, w1, w2, w3 := sl.w0.Load(), sl.w1.Load(), sl.w2.Load(), sl.w3.Load()
			if sl.seq.Load() != p+1 {
				continue // torn: a writer lapped us between the loads
			}
			out = append(out, Span{
				Kind:  SpanKind(w0 >> 56),
				PE:    int32((w0 >> 32) & 0xffffff),
				TID:   int32(uint32(w0)),
				Begin: sim.Time(int64(w1)),
				End:   sim.Time(int64(w2)),
				Arg:   w3,
			})
		}
	}
	return out
}

// Dropped reports how many spans have been overwritten by ring wrap across
// all rings (a lower bound while writers are active).
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.rings {
		rg := &r.rings[i]
		if head := rg.pos.Load(); head > uint64(len(rg.slot)) {
			d += head - uint64(len(rg.slot))
		}
	}
	return d
}
