package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (a
// handler, or a test) share an ID; Parent indexes the span that was open
// when this one began, -1 for the root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CPU is the process's user+sys CPU over the span, in seconds.
	CPU float64 `json:"cpu_s"`

	cpu0 float64
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory for one single-goroutine replica; they are
// written out once the replica ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, id string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: int64(time.Since(t.t0)), cpu0: processCPU(),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	s.CPU = processCPU() - s.cpu0
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", s.Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// durs lists the durations of every span with this name, in seconds.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// total is the summed duration of the spans with this name.
func (t *tracer) total(name string) float64 { return sum(t.durs(name)) }

// cpu is the summed CPU time of the spans with these names.
func (t *tracer) cpu(names ...string) float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	total := 0.0
	for i := range t.spans {
		if want[t.spans[i].Name] {
			total += t.spans[i].CPU
		}
	}
	return total
}

// selfTime is span i's duration minus the part covered by its children.
// Children of one span never overlap (the replica is single-goroutine), so
// the covered part is the sum of their durations.
func (t *tracer) selfTime(i int) float64 {
	self := t.spans[i].dur()
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].Parent == i {
			self -= t.spans[j].dur()
		}
	}
	return self
}

// byID sums, per shared ID, the durations of the spans with these names:
// the per-test cost across emulator legs, say.
func (t *tracer) byID(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	idx := map[string]int{}
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if !want[s.Name] {
			continue
		}
		k, ok := idx[s.ID]
		if !ok {
			k = len(out)
			idx[s.ID] = k
			out = append(out, 0)
		}
		out[k] += s.dur()
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harnessLegs are the span names of the emulator legs of one test.
var harnessLegs = []string{"harness.fidelis", "harness.celer", "harness.hwsim", "harness.lento"}
