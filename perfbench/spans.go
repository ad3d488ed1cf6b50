package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// simulator. Spans of one operation (an artefact, an optimizer run or
// a service job) share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: no parent
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run exits. A nil recorder
// records nothing, which is how untraced runs keep their timed phase
// free of tracing work.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name, op string, parent int) int {
	if r == nil {
		return 0
	}
	at := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at, End: at})
	return id
}

// end closes the span opened as id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	at := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = at
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as
// the queue and execution stamps a service job reports.
func (r *recorder) add(name, op string, parent int, from, to time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: from.Sub(r.t0).Seconds(), End: to.Sub(r.t0).Seconds(),
	})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(r.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover. Children may overlap one
// another (concurrent jobs under one run span); the covered part is
// their union, clipped to the parent.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, 0.0
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
