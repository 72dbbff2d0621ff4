package main

import (
	"testing"
	"time"
)

// fakeClock advances by a scripted step on every read.
type fakeClock struct {
	t     time.Time
	steps []time.Duration
}

func (c *fakeClock) now() time.Time {
	if len(c.steps) > 0 {
		c.t = c.t.Add(c.steps[0])
		c.steps = c.steps[1:]
	}
	return c.t
}

func TestSpanSelfTimeSubtractsDirectChildren(t *testing.T) {
	ms := time.Millisecond
	// Clock reads, in order: begin search, begin ga.run, begin deploy,
	// end deploy, begin evaluate, end evaluate, end ga.run, begin record,
	// end record, end search.
	c := &fakeClock{steps: []time.Duration{0, 1 * ms, 2 * ms, 10 * ms, 1 * ms,
		5 * ms, 3 * ms, 1 * ms, 4 * ms, 2 * ms}}
	tr := newTracer()
	tr.now = c.now
	tr.begin("search")
	tr.begin("ga.run")
	tr.begin("core.deploy")
	tr.end()
	tr.begin("server.evaluate")
	tr.end()
	tr.end()
	tr.begin("core.record")
	tr.end()
	if d := tr.end(); d != 29*ms {
		t.Fatalf("search span = %v, want 29ms", d)
	}
	lt := tr.totals()
	for name, want := range map[string][2]time.Duration{
		// {duration, self}
		"search":          {29 * ms, 29*ms - 21*ms - 4*ms},
		"ga.run":          {21 * ms, 21*ms - 10*ms - 5*ms},
		"core.deploy":     {10 * ms, 10 * ms},
		"server.evaluate": {5 * ms, 5 * ms},
		"core.record":     {4 * ms, 4 * ms},
	} {
		got := lt[name]
		if got.Count != 1 || got.Dur != want[0] || got.Self != want[1] {
			t.Errorf("%s: %+v, want dur %v self %v", name, got, want[0], want[1])
		}
	}
}

func TestSpanTotalsAggregateByName(t *testing.T) {
	tr := newTracer()
	c := &fakeClock{steps: []time.Duration{0, time.Millisecond, 0, 2 * time.Millisecond}}
	tr.now = c.now
	tr.begin("core.deploy")
	tr.end()
	tr.begin("core.deploy")
	tr.end()
	got := tr.totals()["core.deploy"]
	if got.Count != 2 || got.Dur != 3*time.Millisecond || got.Self != got.Dur {
		t.Errorf("totals = %+v, want 2 spans, 3ms, self = dur", got)
	}
}
