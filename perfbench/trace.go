package main

import "time"

// tracer times nested calls into the layers' public functions from the
// benchmark's own code. Spans nest strictly (the searches are
// single-goroutine); each finished span is kept in memory and reduced only
// when the run ends, so tracing adds two clock reads per span and no I/O.
type tracer struct {
	now   func() time.Time
	stack []openSpan
	spans []spanRec
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration // total duration of the direct children
}

// spanRec is one finished span. Self is Dur minus the direct children's
// durations: the time the layer spent in its own code.
type spanRec struct {
	Name      string
	Dur, Self time.Duration
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Count     int
	Dur, Self time.Duration
}

func newTracer() *tracer { return &tracer{now: time.Now} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	t.stack = append(t.stack, openSpan{name: name, start: t.now()})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() time.Duration {
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	d := t.now().Sub(s.start)
	if top > 0 {
		t.stack[top-1].child += d
	}
	t.spans = append(t.spans, spanRec{Name: s.name, Dur: d, Self: d - s.child})
	return d
}

// totals reduces the recorded spans by name.
func (t *tracer) totals() map[string]layerTotal {
	out := make(map[string]layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Dur += s.Dur
		lt.Self += s.Self
		out[s.Name] = lt
	}
	return out
}
