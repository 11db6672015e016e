package main

import (
	"encoding/json"
	"time"

	"mdm/internal/store"
)

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); spans of one replay share Step.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Step     int    `json:"step"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer records spans in memory from the harness goroutine only. A nil
// tracer is tracing off: begin and end are nil checks, which is what the
// timed run pays.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, layer string, step int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: t.workload, Step: step,
		StartNs: int64(time.Since(t.t0)), Parent: parent, //mdm:wallclockok -- span timestamp of the benchmark's replay instances (reached through md.ForceField / store.FS); the live simulation never runs under a tracer
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0)) //mdm:wallclockok -- span timestamp of the benchmark's replay instances; never feeds simulation state
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns, per span name, the duration in ms of every span and its
// self time (duration minus the part its direct children cover), each scaled
// by scale(step) — the calibration factor of the replay the span belongs to.
func (t *tracer) durations(scale func(step int) float64) (total, self map[string][]float64) {
	total, self = map[string][]float64{}, map[string][]float64{}
	if t == nil {
		return total, self
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		f := scale(s.Step) / 1e6
		d := s.EndNs - s.StartNs
		total[s.Name] = append(total[s.Name], float64(d)*f)
		self[s.Name] = append(self[s.Name], float64(d-child[i])*f)
	}
	return total, self
}

// write stores the spans as JSON through the storage layer.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(store.OS(), path, data)
}
