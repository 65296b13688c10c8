package trace

import (
	"fmt"
	"sort"
	"strings"

	"chant/internal/sim"
)

// Timeline renders per-thread occupancy from a span stream as an ASCII
// Gantt chart: one row per (PE, thread), one column per time bucket.
//
//	'#' a SpanRun of the thread covered (part of) the bucket
//	'.' the thread existed but was not running
//	' ' before the thread's first span or after its last
//
// A thread's lifetime runs from the Begin of its first span to the End of
// its last, whatever their kinds; endpoint pseudo-thread spans (EndpointTID)
// get no row. Spans carry no process index, so with several processes per
// PE, threads of equal TID share a row. It is an approximation: a bucket spanning several switches
// shows every thread that ran in it. Intended for debugging scheduler
// behaviour (attach a Tracer, then print Timeline(tracer.Snapshot(), 0)).
func Timeline(spans []Span, width int) string {
	type key struct{ pe, tid int32 }
	type life struct {
		born, died sim.Time
		runs       []Span
	}
	threads := map[key]*life{}
	var start, end sim.Time
	for _, sp := range spans {
		if sp.TID == EndpointTID {
			continue
		}
		k := key{sp.PE, sp.TID}
		l := threads[k]
		if l == nil {
			if len(threads) == 0 {
				start, end = sp.Begin, sp.End
			}
			l = &life{born: sp.Begin, died: sp.End}
			threads[k] = l
		}
		l.born, l.died = min(l.born, sp.Begin), max(l.died, sp.End)
		start, end = min(start, sp.Begin), max(end, sp.End)
		if sp.Kind == SpanRun {
			l.runs = append(l.runs, sp)
		}
	}
	if len(threads) == 0 {
		return "(no spans)\n"
	}
	if width <= 0 {
		width = 72
	}
	if end == start {
		end = start + 1
	}
	window := float64(end - start)
	bucket := func(at sim.Time) int {
		b := int(float64(at-start) / window * float64(width))
		// A span ending exactly at end maps to width (the half-open bucket
		// grid has no column for it): clamp to the last column.
		return min(max(b, 0), width-1)
	}

	keys := make([]key, 0, len(threads))
	for k := range threads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pe != keys[j].pe {
			return keys[i].pe < keys[j].pe
		}
		return keys[i].tid < keys[j].tid
	})

	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (%d buckets of %v)\n",
		start, end, width, sim.Duration(window/float64(width)))
	running := make([]bool, width)
	for _, k := range keys {
		l := threads[k]
		clear(running)
		for _, r := range l.runs {
			for c := bucket(r.Begin); c <= bucket(r.End); c++ {
				running[c] = true
			}
		}
		fmt.Fprintf(&b, "pe%d.t%-4d |", k.pe, k.tid)
		for col := 0; col < width; col++ {
			at := start.Add(sim.Duration(window * float64(col) / float64(width)))
			switch {
			case running[col]:
				b.WriteByte('#')
			case at < l.born, at > l.died:
				b.WriteByte(' ')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}
