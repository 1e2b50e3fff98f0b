package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer's public functions. Times are nanoseconds since the recorder's
// epoch; Parent is the index of the causing span (-1 for a root); spans of
// one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same workload code runs traced and untraced.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes computes, per span, its duration minus the part of that
// interval covered by its direct children (children are clipped to the
// parent and overlapping children are not counted twice).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		covered, edge := int64(0), s.Start
		// Children are appended in start order by construction.
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// opDur is one span's self time, tagged with its operation.
type opDur struct {
	op int
	ns float64
}

// selfByName groups self times by span name, in recording order.
func (r *recorder) selfByName() map[string][]opDur {
	out := make(map[string][]opDur)
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], opDur{s.Op, float64(self[i])})
	}
	return out
}

// fromOps keeps the self times (ns) of operations numbered from and above.
func fromOps(ds []opDur, from int) []float64 {
	var out []float64
	for _, d := range ds {
		if d.op >= from {
			out = append(out, d.ns)
		}
	}
	return out
}

// opIndex maps operation number to self time, for names recorded once per
// operation.
func opIndex(ds []opDur) map[int]float64 {
	out := make(map[int]float64, len(ds))
	for _, d := range ds {
		out[d.op] = d.ns
	}
	return out
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
