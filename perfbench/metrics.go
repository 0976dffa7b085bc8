package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDecl is one declared metric: its name and unit, exactly as
// BENCHMARK.json lists them.
type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDecl{
	{"epoch_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_s", "s"},
	{"final_acc", "ratio"},
	{"objective_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []metricDecl{
	{"selection.maximize_s", "s"},
	{"selection.maximize_cpu_s", "s"},
	{"selection.alloc_mb", "MB"},
	{"selection.candidates", "count"},
	{"selection.selected", "count"},
	{"nn.forward_s", "s"},
	{"nn.embed_s", "s"},
	{"nn.forward_rows", "count"},
	{"nn.alloc_mb", "MB"},
	{"quant.quantize_s", "s"},
	{"quant.feedback_kb", "KB"},
	{"streaming.push_s", "s"},
	{"streaming.finish_s", "s"},
	{"streaming.state_kb", "KB"},
	{"streaming.records", "count"},
	{"streaming.alloc_mb", "MB"},
	{"smartssd.scan_s", "s"},
	{"smartssd.scan_mb", "MB"},
	{"smartssd.scan_mb_per_s", "MB/s"},
	{"smartssd.scan_sim_s", "s"},
	{"smartssd.ship_mb", "MB"},
	{"smartssd.ship_sim_s", "s"},
	{"smartssd.feedback_mb", "MB"},
	{"smartssd.rebuild_s", "s"},
	{"smartssd.rebuild_sim_s", "s"},
	{"smartssd.degraded_reads", "count"},
	{"smartssd.reconstructed_mb", "MB"},
	{"smartssd.retries", "count"},
	{"smartssd.corrupt_caught", "count"},
	{"smartssd.host_fallbacks", "count"},
	{"smartssd.fallback_epochs", "count"},
	{"smartssd.alloc_mb", "MB"},
	{"data.verify_s", "s"},
	{"data.verify_mb", "MB"},
	{"data.decode_s", "s"},
	{"data.decode_records", "count"},
	{"data.gather_s", "s"},
	{"storage.fill_s", "s"},
	{"storage.write_mb", "MB"},
	{"erasure.stripe_s", "s"},
	{"trainer.train_s", "s"},
	{"trainer.train_cpu_s", "s"},
	{"trainer.samples", "count"},
	{"trainer.eval_s", "s"},
	{"trainer.snapshot_s", "s"},
	{"trainer.alloc_mb", "MB"},
	{"core.checkpoint_mb", "MB"},
	{"core.reselections", "count"},
	{"parallel.cpu_per_wall", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.subset_match", "ratio"},
}

const mib = 1 << 20

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult builds the result from measured values, one per declared
// metric; a declared metric missing from values is a bug.
func newResult(decls []metricDecl, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// print writes one human-readable line per metric, then the result as
// a single JSON line.
func (r result) print(w io.Writer, decls []metricDecl) error {
	for _, d := range decls {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
