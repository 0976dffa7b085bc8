// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed time in a single process and prints every
// metric by name and unit, then one JSON result line:
//
//	perfbench --workload nessa_c100 --seed 1 --seconds 20 --trace 0
//
// --trace 0 times untraced jobs and reports the end-to-end metrics;
// --trace 1 runs traced jobs beside untraced ones and reports the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nessa/internal/core"
	"nessa/internal/selection"
	"nessa/internal/selection/streaming"
	"nessa/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jobResult is what one job produced. Everything except wall time is
// deterministic for a seed, and sig captures it so jobs of one run can
// be compared.
type jobResult struct {
	epochs    int           // epochs the job ran
	sim       time.Duration // modelled SmartSSD time of the job
	acc       float64       // final test accuracy
	sizes     []int         // subset size per epoch
	ckptBytes int64         // checkpoint bytes handed to the sink
	fallbacks int           // reselections that fell back to weighted-random
	sig       string
}

// instance is one set-up job.
type instance interface {
	// job runs the timed work; tr == nil is the untraced path.
	job(tr *tracer) (jobResult, error)
	// check validates the job's outputs, completing res where scoring
	// happens outside the timed work.
	check(res *jobResult) error
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup generates the inputs for seed and lays them out on storage.
	setup func(seed uint64, tiny bool, tr *tracer) (instance, error)
	// maximizer is the selection the workload runs, scored by
	// objective_ratio against exact greedy.
	maximizer func(seed uint64) selection.Maximizer
}

// sessionMaximizer is the selection core.DefaultOptions configures:
// stochastic greedy, partitioned.
func sessionMaximizer(seed uint64) selection.Maximizer {
	opt := core.DefaultOptions()
	rng := tensor.NewRNG(seed)
	return selection.PartitionedMaximizer(opt.PartitionM, rng, selection.StochasticMaximizer(opt.Eps, rng))
}

var workloads = []workload{
	{
		name: "nessa_c100",
		setup: func(seed uint64, tiny bool, tr *tracer) (instance, error) {
			return setupTrain(c100Case(tiny), seed, tr)
		},
		maximizer: sessionMaximizer,
	},
	{
		name: "stream_pass",
		setup: func(seed uint64, tiny bool, tr *tracer) (instance, error) {
			return setupStream(streamSizes(tiny), seed, tr)
		},
		maximizer: func(seed uint64) selection.Maximizer {
			return streaming.Maximizer(streaming.Config{Seed: seed})
		},
	},
	// cluster_rebuild is not in BENCHMARK.json: every run of it fails
	// its checks on the two program defects README.md describes. It
	// stays runnable as their reproducer.
	{
		name: "cluster_rebuild",
		setup: func(seed uint64, tiny bool, tr *tracer) (instance, error) {
			return setupTrain(clusterCase(tiny), seed, tr)
		},
		maximizer: sessionMaximizer,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tiny     bool   // test-sized inputs
	spans    string // directory traced runs write their spans to ("" = none)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: nessa_c100, stream_pass or cluster_rebuild")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated data and the fault schedule")
	fs.Float64Var(&secs, "seconds", 20, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs traced jobs and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to (empty: keep them in memory only)")
	fs.BoolVar(&o.tiny, "tiny", false, "run test-sized inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(o.workload)
	if !ok || secs <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload nessa_c100|stream_pass|cluster_rebuild, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1

	decls := endToEnd
	measure := measureUntraced
	if o.trace {
		decls, measure = perLayer, measureTraced
	}
	values, attempted, failed, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := newResult(decls, values, attempted, failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	host, _ := json.Marshal(stamp())
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n# host %s\n", w.name, o.seed, secs, trace, host)
	if err := res.print(stdout, decls); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// jobRun is one set-up-and-run of a job.
type jobRun struct {
	res   jobResult
	done  bool // the job ran to its end, though its check may have failed
	wall  time.Duration
	alloc uint64
	gc    [2]gcState // collector state before and after the job
	err   error      // set-up or job error, or a failed output check
}

// runJob sets up and runs one job, each phase from a collected heap,
// then checks its outputs.
func runJob(w workload, o options, tr *tracer) jobRun {
	var r jobRun
	runtime.GC()
	tr.setJob(0)
	inst, err := w.setup(o.seed, o.tiny, tr)
	if err != nil {
		r.err = fmt.Errorf("setup: %w", err)
		return r
	}
	runtime.GC()
	tr.setJob(1)
	r.gc[0] = readGC()
	a0 := heapAllocBytes()
	t1 := now()
	r.res, err = inst.job(tr)
	r.wall = now().Sub(t1)
	r.alloc = heapAllocBytes() - a0
	r.gc[1] = readGC()
	if err != nil {
		r.err = err
		return r
	}
	r.done = true
	r.err = inst.check(&r.res)
	return r
}

// tally counts jobs attempted and failed, logging each failure.
type tally struct {
	attempted, failed int
	log               io.Writer
	first             *jobResult // first job that ran to its end
}

// done records one job's outcome and reports whether the job ran to
// its end. A job fails when it errors, fails its check, or differs in
// any deterministic output from the run's first job. A job that ran to
// its end but failed its check still counts in the metrics: every job
// of a run has the same inputs, so they fail alike, and the run
// reports correct=false. A job that errored part-way counts only as
// failed; its partial figures describe another workload.
func (t *tally) done(r jobRun) bool {
	t.attempted++
	err := r.err
	if r.done && t.first == nil {
		t.first = &r.res
	} else if r.done && (r.res.sig != t.first.sig || r.res.acc != t.first.acc) {
		err = errors.Join(err, fmt.Errorf("deterministic outputs differ from the run's first job"))
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: job %d failed: %v\n", t.attempted, err)
	}
	return r.done
}

// timedLoop runs body until the run's time is spent: it starts another
// job only while the mean job so far still fits, and always runs at
// least min.
func timedLoop(o options, min int, body func()) {
	start := now()
	for n := 1; ; n++ {
		body()
		spent := now().Sub(start)
		if n >= min && spent+spent/time.Duration(n) > o.seconds {
			return
		}
	}
}

// measureUntraced times set-up, runs a warm-up job, then times jobs and
// reports the end-to-end metrics, each timing the median over its
// samples.
func measureUntraced(w workload, o options, log io.Writer) (map[string]float64, int, int, error) {
	t := &tally{log: log}
	// Set-up is timed first, each time from a collected heap, for a
	// fifteenth of the run (at least 3 and at most 400 set-ups). After
	// a job, the freed heap and the runtime's background work leave
	// set-up times that vary from process to process.
	var setupS []float64
	for start := now(); len(setupS) < 3 || len(setupS) < 400 && now().Sub(start) < o.seconds/15; {
		runtime.GC()
		t0 := now()
		if _, err := w.setup(o.seed, o.tiny, nil); err != nil {
			return nil, t.attempted, t.failed, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, now().Sub(t0).Seconds())
	}
	t.done(runJob(w, o, nil))
	var epochS, allocMB []float64
	timedLoop(o, 3, func() {
		r := runJob(w, o, nil)
		if t.done(r) {
			epochS = append(epochS, r.wall.Seconds()/float64(r.res.epochs))
			allocMB = append(allocMB, float64(r.alloc)/mib)
		}
	})
	if len(epochS) == 0 {
		return nil, t.attempted, t.failed, fmt.Errorf("no timed job ran to its end (%d of %d jobs failed)", t.failed, t.attempted)
	}
	ratio, err := objectiveRatio(w, o.seed)
	if err != nil {
		return nil, t.attempted, t.failed, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: epoch_s per job %.4f, setup_s median of %d\n", w.name, o.seed, epochS, len(setupS))
	return map[string]float64{
		"epoch_s":         median(epochS),
		"setup_s":         median(setupS),
		"alloc_mb":        median(allocMB),
		"peak_rss_mb":     peakRSSMB(),
		"sim_s":           t.first.sim.Seconds(),
		"final_acc":       t.first.acc,
		"objective_ratio": ratio,
	}, t.attempted, t.failed, nil
}

// measureTraced runs a warm-up job, then alternates untraced and
// traced jobs and reports the per-layer metrics, each the median over
// the traced jobs.
func measureTraced(w workload, o options, log io.Writer) (map[string]float64, int, int, error) {
	t := &tally{log: log}
	t.done(runJob(w, o, nil))
	var untracedS, tracedS []float64
	var traces []*tracer
	perMetric := map[string][]float64{}
	var runErr error
	timedLoop(o, 1, func() {
		ref := runJob(w, o, nil)
		if !t.done(ref) {
			return
		}
		tr := newTracer()
		r := runJob(w, o, tr)
		t.attempted++
		if r.err != nil {
			t.failed++
			fmt.Fprintf(log, "perfbench: traced job failed: %v\n", r.err)
		}
		if !r.done {
			return
		}
		untracedS = append(untracedS, ref.wall.Seconds())
		tracedS = append(tracedS, r.wall.Seconds())
		vals, err := layerValues(tr, ref.res, r)
		if err != nil {
			runErr = err
			return
		}
		for _, d := range perLayer {
			perMetric[d.name] = append(perMetric[d.name], vals[d.name])
		}
		traces = append(traces, tr)
	})
	if runErr != nil {
		return nil, t.attempted, t.failed, runErr
	}
	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := writeTraces(path, traces); err != nil {
			fmt.Fprintf(log, "perfbench: writing spans: %v\n", err)
		}
	}
	if len(tracedS) == 0 {
		return nil, t.attempted, t.failed, fmt.Errorf("no traced job ran to its end (%d of %d jobs failed)", t.failed, t.attempted)
	}
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = median(perMetric[d.name])
	}
	values["trace.overhead"] = median(tracedS)/median(untracedS) - 1
	return values, t.attempted, t.failed, nil
}

// layerValues computes the per-layer metrics of one traced job, given
// the untraced reference job of the same seed.
func layerValues(tr *tracer, ref jobResult, r jobRun) (map[string]float64, error) {
	p, ok := tr.profile(1)
	if !ok {
		return nil, fmt.Errorf("traced job left no root span")
	}
	setup, _ := tr.profile(0)
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = tr.counts[d.name] // counters; 0 where the layer is absent
	}
	secs := func(m map[string]time.Duration, name string) float64 { return m[name].Seconds() }
	v["selection.maximize_s"] = secs(p.self, "selection.maximize")
	v["selection.maximize_cpu_s"] = secs(p.cpuByName, "selection.maximize")
	v["nn.forward_s"] = secs(p.self, "nn.forward")
	v["nn.embed_s"] = secs(p.self, "nn.embed")
	v["quant.quantize_s"] = secs(p.self, "quant.quantize")
	v["streaming.push_s"] = secs(p.self, "streaming.push")
	v["streaming.finish_s"] = secs(p.self, "streaming.finish")
	v["smartssd.scan_s"] = secs(p.self, "smartssd.scan")
	if scan := secs(p.inclusive, "smartssd.scan"); scan > 0 {
		v["smartssd.scan_mb_per_s"] = v["smartssd.scan_mb"] / scan
	}
	v["smartssd.rebuild_s"] = secs(p.self, "smartssd.rebuild")
	v["smartssd.fallback_epochs"] = float64(ref.fallbacks)
	v["data.verify_s"] = secs(p.self, "data.verify")
	v["data.decode_s"] = secs(p.self, "data.decode")
	v["data.gather_s"] = secs(p.self, "data.gather")
	v["storage.fill_s"] = secs(p.self, "storage.fill")
	v["erasure.stripe_s"] = secs(setup.inclusive, "erasure.stripe")
	v["trainer.train_s"] = secs(p.self, "trainer.train")
	v["trainer.train_cpu_s"] = secs(p.cpuByName, "trainer.train")
	v["trainer.eval_s"] = secs(p.self, "trainer.eval")
	v["trainer.snapshot_s"] = secs(p.self, "trainer.snapshot")
	for _, layer := range []string{"selection", "nn", "streaming", "smartssd", "trainer"} {
		v[layer+".alloc_mb"] = float64(p.allocs[layer]) / mib
	}
	v["core.checkpoint_mb"] = float64(ref.ckptBytes) / mib
	if p.wall > 0 {
		v["parallel.cpu_per_wall"] = p.cpu.Seconds() / p.wall.Seconds()
		v["trace.coverage"] = p.selfSum.Seconds() / p.wall.Seconds()
	}
	v["runtime.gc_cycles"] = float64(r.gc[1].cycles - r.gc[0].cycles)
	v["runtime.gc_pause_s"] = (r.gc[1].pause - r.gc[0].pause).Seconds()
	v["trace.subset_match"] = subsetMatch(ref.sizes, r.res.sizes)
	return v, nil
}

// subsetMatch is the share of the reference's epochs whose subset size
// the traced job reproduced.
func subsetMatch(ref, got []int) float64 {
	if len(ref) == 0 {
		return 0
	}
	same := 0
	for e := range ref {
		if e < len(got) && got[e] == ref[e] {
			same++
		}
	}
	return float64(same) / float64(len(ref))
}

// objectiveRatio scores the workload's maximizer against exact lazy
// greedy on a reference instance small enough to solve exactly: 2000
// embeddings in 8 dimensions around 12 seeded cluster centres, k = 40.
func objectiveRatio(w workload, seed uint64) (float64, error) {
	const n, d, clusters, k = 2000, 8, 12, 40
	rng := tensor.NewRNG(deriveSeed(31, seed))
	centers := tensor.NewMatrix(clusters, d)
	centers.FillNormal(rng, 2)
	emb := tensor.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(clusters))
		row := emb.Row(i)
		for j := range row {
			row[j] = c[j] + rng.NormFloat32()*0.3
		}
	}
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	got, err := w.maximizer(deriveSeed(7, seed))(emb, cand, k)
	if err != nil {
		return 0, fmt.Errorf("reference selection: %w", err)
	}
	exact, err := selection.LazyGreedy(emb, cand, k)
	if err != nil {
		return 0, fmt.Errorf("exact reference selection: %w", err)
	}
	ex := selection.Objective(emb, cand, exact.Selected)
	if ex <= 0 {
		return 0, fmt.Errorf("exact reference objective is %v", ex)
	}
	return selection.Objective(emb, cand, got.Selected) / ex, nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}
