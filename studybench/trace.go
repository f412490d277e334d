package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed interval of a study, recorded by the benchmark around
// a call into the program or between two StepHook stamps. Spans of one
// study share Run; Parent is the ID of the enclosing span (-1 for the
// root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Day    int     `json:"day,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) seconds() float64 { return (s.End - s.Start) / 1e3 }

// tracer keeps a study's spans in memory. A disabled tracer records
// nothing, so the untimed path costs one branch per call.
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	next  int
	spans []span

	// step state: the collection leg's span ID and the previous StepHook
	// stamp, so each step's span runs from one stamp to the next.
	leg  int
	prev time.Time
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// reserve hands out a span ID before the span's end is known, so child
// spans can name their parent while it is still open.
func (t *tracer) reserve() int {
	id := t.next
	t.next++
	return id
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e6
}

func (t *tracer) record(id, parent int, name string, day int, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name, Day: day,
		Start: t.ms(start), End: t.ms(end),
	})
}

// add records a span that has already ended and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := t.reserve()
	t.record(id, parent, name, 0, start, end)
	return id
}

// beginLeg starts a Study.Run leg: StepHook stamps from now on become
// child spans of leg.
func (t *tracer) beginLeg(leg int) {
	t.leg, t.prev = leg, time.Now()
}

// step is the StepHook body: the span since the previous stamp is
// credited to the step just completed. A search-NN span therefore also
// covers that hour's clock advance, Twitter publish and stream fan-out,
// and the hourly spill check; drain covers quiescing and draining the
// streams plus the day's checkpoint.
func (t *tracer) step(day int, name string) {
	now := time.Now()
	t.record(t.reserve(), t.leg, name, day, t.prev, now)
	t.prev = now
}

// durations lists the duration of every span whose name starts with
// prefix, in recording order. Step names ("search-NN", "drain",
// "monitor", "join", "done") share no prefix with the phase and analysis
// span names, so a prefix selects exactly one kind of span.
func (t *tracer) durations(prefix string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.seconds())
		}
	}
	return out
}

// total is the summed duration of the spans durations selects.
func (t *tracer) total(prefix string) float64 {
	var sum float64
	for _, d := range t.durations(prefix) {
		sum += d
	}
	return sum
}

// collectParts and analyzeParts are the spans that split Study.Run and
// the analysis into layers, by name prefix.
var (
	collectParts = []string{"search-", "drain", "monitor", "join", "done", "init"}
	analyzeParts = []string{"snapshot", "aggregate", "render", "table3", "export"}
)

// writeShares prints where a traced study's time went: each layer's
// share of collect_s (the "run" spans) and of analyze_s.
func writeShares(w io.Writer, t *tracer) {
	for _, part := range []struct {
		whole string
		parts []string
	}{{"run", collectParts}, {"analyze", analyzeParts}} {
		whole := t.total(part.whole)
		fmt.Fprintf(w, "  where the time goes: %s %.3f s =", part.whole, whole)
		rest := whole
		for _, p := range part.parts {
			d := t.total(p)
			rest -= d
			fmt.Fprintf(w, " %s %.3f s (%.1f%%),", strings.TrimSuffix(p, "-"), d, 100*d/whole)
		}
		fmt.Fprintf(w, " other %.3f s\n", rest)
	}
}
