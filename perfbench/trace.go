package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one traced call into a layer. Name is "<layer>.<op>"; the
// root span of a job is named "job" and belongs to no layer.
type span struct {
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Alloc  uint64        `json:"alloc_bytes"` // heap bytes allocated process-wide while open
	CPU    time.Duration `json:"cpu_ns"`      // process CPU time while open
}

// tracer keeps spans and counters in memory for one traced run. A nil
// *tracer is the untraced path: every method is a no-op, so traced and
// untraced jobs share one code path.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	job    int
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: now(), counts: map[string]float64{}}
}

// setJob starts a new job id; spans begun afterwards belong to it.
func (t *tracer) setJob(job int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = job
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	alloc, cpu := heapAllocBytes(), processCPU()
	at := now().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Job: t.job, ID: id, Parent: parent, Start: at, Alloc: alloc, CPU: cpu})
	return id
}

// end closes span id, turning its start counters into deltas.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	alloc, cpu := heapAllocBytes(), processCPU()
	at := now().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = at
	s.Alloc = alloc - s.Alloc
	s.CPU = cpu - s.CPU
}

// add accumulates a layer counter such as "smartssd.retries".
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// writeTraces stores the spans and counters of every traced job of a
// run as one JSON document, once the run is over.
func writeTraces(path string, traces []*tracer) error {
	type job struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}
	jobs := make([]job, len(traces))
	for i, t := range traces {
		jobs[i] = job{t.spans, t.counts}
	}
	buf, err := json.MarshalIndent(jobs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// now is the benchmark's only wall-clock read. Timing jobs is what the
// benchmark is for, so the rule that keeps library code on simulated
// time does not apply to it.
func now() time.Time {
	return time.Now() //nessa:wallclock the benchmark times jobs
}

func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// jobSpans returns the spans of one job, and its root span.
func (t *tracer) jobSpans(job int) (spans []span, root span, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Job != job {
			continue
		}
		spans = append(spans, s)
		if s.Parent == 0 {
			root, ok = s, true
		}
	}
	return spans, root, ok
}

// selfTimes attributes every instant of the job's timeline to exactly
// one open span: the deepest one, and among equally deep spans (which
// happens when a prefetch goroutine's span overlaps the consumer's) the
// one opened last. A span's self time is what it was attributed, so
// self times nest and never sum to more than the root span's wall time.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	depth := make(map[int]int, len(spans))
	var depthOf func(id int) int
	depthOf = func(id int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		d := 0
		if p, ok := byID[byID[id].Parent]; ok {
			d = depthOf(p.ID) + 1
		}
		depth[id] = d
		return d
	}
	cuts := make([]time.Duration, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self := make(map[int]time.Duration, len(spans))
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if b == a {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			o := spans[best]
			ds, do := depthOf(s.ID), depthOf(o.ID)
			if ds > do || ds == do && (s.Start > o.Start || s.Start == o.Start && s.ID > o.ID) {
				best = j
			}
		}
		if best >= 0 {
			self[spans[best].ID] += b - a
		}
	}
	return self
}

// layerOf maps a span name to its layer ("nn.forward" → "nn").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// jobProfile is the per-layer summary of one traced job.
type jobProfile struct {
	wall      time.Duration
	cpu       time.Duration
	selfSum   time.Duration            // sum of layer self times
	self      map[string]time.Duration // by span name
	inclusive map[string]time.Duration // by span name
	cpuByName map[string]time.Duration // by span name, inclusive
	allocs    map[string]uint64        // by layer, self (span minus its children)
}

// profile summarizes one job of the trace.
func (t *tracer) profile(job int) (jobProfile, bool) {
	spans, root, ok := t.jobSpans(job)
	if !ok {
		return jobProfile{}, false
	}
	p := jobProfile{
		wall:      root.End - root.Start,
		cpu:       root.CPU,
		self:      map[string]time.Duration{},
		inclusive: map[string]time.Duration{},
		cpuByName: map[string]time.Duration{},
		allocs:    map[string]uint64{},
	}
	childAlloc := map[int]uint64{}
	for _, s := range spans {
		childAlloc[s.Parent] += s.Alloc
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.ID == root.ID {
			continue
		}
		p.selfSum += self[s.ID]
		p.self[s.Name] += self[s.ID]
		p.inclusive[s.Name] += s.End - s.Start
		p.cpuByName[s.Name] += s.CPU
		if own := s.Alloc; own > childAlloc[s.ID] {
			p.allocs[layerOf(s.Name)] += own - childAlloc[s.ID]
		}
	}
	return p, true
}

// gcState is a point-in-time reading of the Go runtime's collector.
type gcState struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}
