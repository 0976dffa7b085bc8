package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTiny runs one tiny-sized invocation and decodes its result line.
func runTiny(t *testing.T, workload string, trace string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace, "--tiny", "--spans", ""}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r, out.String()
}

// benchmarkDecls reads the metric declarations of BENCHMARK.json.
func benchmarkDecls(t *testing.T) (e2e, layer []metricDecl) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDecl{m.Name, m.Unit})
	}
	return e2e, layer
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkDecls(t)
	if !equalDecls(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark declares %v", e2e, endToEnd)
	}
	if !equalDecls(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark declares %v", layer, perLayer)
	}
}

func equalDecls(a, b []metricDecl) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTinyRunsEmitEveryDeclaredMetric(t *testing.T) {
	for _, w := range workloads {
		for _, c := range []struct {
			trace string
			decls []metricDecl
		}{{"0", endToEnd}, {"1", perLayer}} {
			r, out := runTiny(t, w.name, c.trace)
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.name, c.trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(c.decls) {
				t.Errorf("%s --trace %s: %d metrics, want %d", w.name, c.trace, len(r.Metrics), len(c.decls))
			}
			for _, d := range c.decls {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", w.name, c.trace, d.name, m, d.unit)
				}
				if !nameRE.MatchString(d.name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
				}
				if !strings.Contains(out, d.name) {
					t.Errorf("%s --trace %s does not print %s", w.name, c.trace, d.name)
				}
			}
			if !strings.Contains(out, "# host {") {
				t.Errorf("%s --trace %s: no host stamp", w.name, c.trace)
			}
			if c.trace == "0" {
				for _, d := range endToEnd {
					if r.Metrics[d.name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
					}
				}
			}
		}
	}
}

// deterministic reports whether a metric must repeat exactly for one
// seed: everything but wall times, CPU times, allocations, the
// collector and the trace's own timing ratios.
func deterministic(d metricDecl) bool {
	switch {
	case d.unit == "s" && !strings.HasSuffix(d.name, "sim_s"):
		return false
	case strings.HasSuffix(d.name, "alloc_mb"), d.name == "peak_rss_mb",
		strings.HasPrefix(d.name, "runtime."), d.unit == "MB/s",
		d.name == "parallel.cpu_per_wall", d.name == "trace.coverage", d.name == "trace.overhead":
		return false
	}
	return true
}

func TestSameSeedRepeatsDeterministicMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, c := range []struct {
			trace string
			decls []metricDecl
		}{{"0", endToEnd}, {"1", perLayer}} {
			a, _ := runTiny(t, w.name, c.trace)
			b, _ := runTiny(t, w.name, c.trace)
			for _, d := range c.decls {
				if deterministic(d) && a.Metrics[d.name] != b.Metrics[d.name] {
					t.Errorf("%s --trace %s: %s differs between runs: %v vs %v",
						w.name, c.trace, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
				}
			}
		}
	}
}

func TestTracedSpansNest(t *testing.T) {
	for _, w := range workloads {
		tr := newTracer()
		r := runJob(w, options{seed: 5, tiny: true}, tr)
		if r.err != nil {
			t.Fatalf("%s: %v", w.name, r.err)
		}
		for job := 0; job <= 1; job++ {
			spans, root, ok := tr.jobSpans(job)
			if !ok {
				t.Fatalf("%s job %d: no root span", w.name, job)
			}
			byID := map[int]span{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			for _, s := range spans {
				if s.End < s.Start {
					t.Errorf("%s: span %s ends before it starts", w.name, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok || s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: span %s [%v, %v] is not inside its parent %s [%v, %v]",
						w.name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
			var sum time.Duration
			for _, d := range selfTimes(spans) {
				sum += d
			}
			if wall := root.End - root.Start; sum > wall {
				t.Errorf("%s job %d: self times sum to %v, more than the wall time %v", w.name, job, sum, wall)
			}
		}
	}
}

func TestSelfTimesAttributeOverlapOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "job", ID: 1, Start: 0, End: 100 * ms},
		{Name: "smartssd.scan", ID: 2, Parent: 1, Start: 10 * ms, End: 90 * ms},
		// A consumer span and a prefetcher span overlapping in time.
		{Name: "data.decode", ID: 3, Parent: 2, Start: 20 * ms, End: 60 * ms},
		{Name: "data.verify", ID: 4, Parent: 2, Start: 40 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20 * ms, 2: 30 * ms, 3: 20 * ms, 4: 30 * ms}
	for id, d := range want {
		if self[id] != d {
			t.Errorf("span %d self time %v, want %v", id, self[id], d)
		}
	}
}

func TestCheckSubset(t *testing.T) {
	for _, c := range []struct {
		selected, cands []int
		ok              bool
	}{
		{[]int{1, 3}, []int{1, 2, 3}, true},
		{[]int{1, 1}, []int{1, 2, 3}, false},
		{[]int{4}, []int{1, 2, 3, 4}, false}, // outside [0, n)
		{[]int{0}, []int{1, 2}, false},       // not a candidate
		{nil, []int{1}, false},
	} {
		if err := checkSubset(c.selected, c.cands, 4); (err == nil) != c.ok {
			t.Errorf("checkSubset(%v, %v) = %v, want ok=%v", c.selected, c.cands, err, c.ok)
		}
	}
}

// abortingInstance errors part-way through every job.
type abortingInstance struct{}

func (abortingInstance) job(*tracer) (jobResult, error) {
	return jobResult{epochs: 3, acc: 0.5}, fmt.Errorf("device lost")
}
func (abortingInstance) check(*jobResult) error { return nil }

func TestAbortedJobsGiveNoMetrics(t *testing.T) {
	w := workload{
		name:      "aborts",
		setup:     func(uint64, bool, *tracer) (instance, error) { return abortingInstance{}, nil },
		maximizer: sessionMaximizer,
	}
	o := options{seed: 1, seconds: time.Millisecond}
	for _, measure := range []func(workload, options, io.Writer) (map[string]float64, int, int, error){measureUntraced, measureTraced} {
		vals, attempted, failed, err := measure(w, o, io.Discard)
		if err == nil || vals != nil {
			t.Errorf("aborted jobs gave metrics %v, err %v", vals, err)
		}
		if attempted < 1 || failed != attempted {
			t.Errorf("attempted %d, failed %d: every aborted job must count as failed", attempted, failed)
		}
	}
}
