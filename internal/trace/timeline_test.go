package trace

import (
	"strings"
	"testing"
)

// run and blocked build single-PE scheduler spans for the timeline tests.
func run(tid int32, begin, end int64) Span {
	return Span{Kind: SpanRun, TID: tid, Begin: us(begin), End: us(end)}
}

func blocked(tid int32, begin, end int64) Span {
	return Span{Kind: SpanBlocked, TID: tid, Begin: us(begin), End: us(end)}
}

// rows splits a rendered timeline into its per-thread bucket strings (the
// text between the bars), skipping the header.
func rows(t *testing.T, out string) []string {
	t.Helper()
	var inner []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n")[1:] {
		inner = append(inner, line[strings.Index(line, "|")+1:strings.LastIndex(line, "|")])
	}
	return inner
}

func TestTimelineEmpty(t *testing.T) {
	if out := Timeline(nil, 40); !strings.Contains(out, "no spans") {
		t.Fatalf("empty timeline: %q", out)
	}
	// Endpoint-side spans belong to no thread: still nothing to draw.
	ep := []Span{{Kind: SpanIngressDrain, TID: EndpointTID, Begin: us(1), End: us(2)}}
	if out := Timeline(ep, 40); !strings.Contains(out, "no spans") {
		t.Fatalf("endpoint-only timeline: %q", out)
	}
}

func TestTimelineBasicAlternation(t *testing.T) {
	spans := []Span{
		run(0, 0, 50),
		run(1, 50, 100),
		run(0, 100, 150),
		run(1, 150, 200),
	}
	out := Timeline(spans, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 threads
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "pe0.t0 ") || !strings.HasPrefix(lines[2], "pe0.t1 ") {
		t.Fatalf("rows mislabeled:\n%s", out)
	}
	// Thread 0 ran in the first quarter; thread 1 in the second.
	r := rows(t, out)
	if r[0][0] != '#' {
		t.Errorf("t0 not running at start:\n%s", out)
	}
	if r[1][12] != '#' { // ~30% through: thread 1's first slot
		t.Errorf("t1 not running in its slot:\n%s", out)
	}
	if r[0][1] == '#' && r[1][1] == '#' {
		t.Errorf("both threads running in one early bucket:\n%s", out)
	}
}

func TestTimelineShowsLifecycle(t *testing.T) {
	// t0 lives the whole window; t7 first appears at 400us (blocked until
	// 500us), runs, and is last seen at 600us.
	spans := []Span{
		run(0, 0, 400),
		blocked(7, 400, 500),
		run(7, 500, 600),
		run(0, 600, 1000),
	}
	out := Timeline(spans, 50)
	r := rows(t, out)
	if r[1][0] != ' ' {
		t.Errorf("t7 shown before its first span:\n%s", out)
	}
	if r[1][len(r[1])-2] != ' ' {
		t.Errorf("t7 shown after its last span:\n%s", out)
	}
	if r[1][22] != '.' { // 440us: alive but blocked
		t.Errorf("t7 not shown alive-but-idle while blocked:\n%s", out)
	}
	if !strings.Contains(r[1], "#") {
		t.Errorf("t7 never shown running:\n%s", out)
	}
}

func TestTimelineRowsKeyedByPE(t *testing.T) {
	// Thread ids are per scheduler: the same TID on two PEs is two rows,
	// ordered by PE, and endpoint spans never add a row.
	spans := []Span{
		{Kind: SpanRun, PE: 1, TID: 0, Begin: us(0), End: us(10)},
		{Kind: SpanRun, PE: 0, TID: 0, Begin: us(5), End: us(20)},
		{Kind: SpanSend, PE: 0, TID: EndpointTID, Begin: us(6), End: us(8)},
	}
	lines := strings.Split(strings.TrimRight(Timeline(spans, 10), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "pe0.t0") || !strings.HasPrefix(lines[2], "pe1.t0") {
		t.Fatalf("rows not keyed by (PE, TID):\n%s", strings.Join(lines, "\n"))
	}
}

func TestTimelineDefaultWidth(t *testing.T) {
	r := rows(t, Timeline([]Span{run(0, 0, 10)}, 0))
	if len(r[0]) != 72 {
		t.Fatalf("default width = %d, want 72", len(r[0]))
	}
}

func TestTimelineEventExactlyAtEnd(t *testing.T) {
	// The last span ends exactly at the window end: its bucket index is
	// width on the half-open grid and must clamp to the last column, not
	// index out of range.
	out := Timeline([]Span{run(0, 0, 50), blocked(0, 50, 90), run(0, 90, 100)}, 10)
	r := rows(t, out)
	if len(r[0]) != 10 {
		t.Fatalf("row width = %d, want 10:\n%s", len(r[0]), out)
	}
	if r[0][9] != '#' {
		t.Errorf("final bucket not marked running:\n%s", out)
	}
}

func TestTimelineSingleEvent(t *testing.T) {
	// One instantaneous span has a zero-length window (end is bumped to
	// start+1); it must render one in-range row.
	out := Timeline([]Span{run(3, 7, 7)}, 8)
	if !strings.Contains(out, "t3") {
		t.Fatalf("missing thread row:\n%s", out)
	}
	r := rows(t, out)
	if len(r[0]) != 8 || !strings.Contains(r[0], "#") {
		t.Fatalf("single-span render wrong: %q", r[0])
	}
}

func TestTimelineAllEventsSameInstant(t *testing.T) {
	spans := []Span{blocked(0, 5, 5), run(0, 5, 5), run(1, 5, 5)}
	out := Timeline(spans, 4) // must not panic; whole life in bucket 0
	for i, r := range rows(t, out) {
		if r[0] != '#' {
			t.Fatalf("row %d: no running mark in bucket 0:\n%s", i, out)
		}
	}
}

func TestTimelineWidthOne(t *testing.T) {
	out := Timeline([]Span{run(0, 0, 10), run(1, 10, 20)}, 1)
	for _, r := range rows(t, out) {
		if r != "#" {
			t.Fatalf("width-1 row = %q:\n%s", r, out)
		}
	}
}

func TestTimelineUnsortedRetroactiveEvents(t *testing.T) {
	// Spans arrive in emission (End) order, not Begin order, and a
	// retroactive Begin can precede everything seen so far. The window and
	// lifetimes must still cover every span.
	spans := []Span{
		run(1, 60, 100),
		run(0, 50, 60),
		blocked(0, 10, 50), // began before any span above
	}
	out := Timeline(spans, 18)
	if !strings.Contains(out, "pe0.t0") || !strings.Contains(out, "pe0.t1") {
		t.Fatalf("missing rows:\n%s", out)
	}
	r := rows(t, out)
	if r[0][0] != '.' { // t0 alive (blocked) from the window start
		t.Errorf("t0 lifetime does not reach the earliest Begin:\n%s", out)
	}
	if r[1][0] != ' ' || r[1][17] != '#' {
		t.Errorf("t1 misplaced in a window sorted from unsorted input:\n%s", out)
	}
}
