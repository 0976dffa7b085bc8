package main

import (
	"fmt"
	"runtime"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/selection"
	"nessa/internal/selection/streaming"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// streamCase fixes the size of stream_pass: bench-streaming's spec
// (512 B records, 10 classes, 32 features, K = 500, 8192-record
// chunks, the gradient sketch on) over a shorter stream.
type streamCase struct {
	records, k, chunk int
	sketchRows, every int
	testRecords       int     // held-out records the final model is scored on
	accFloor          float64 // lowest acceptable accuracy of a model trained on the subset
}

func streamSizes(tiny bool) streamCase {
	c := streamCase{records: 250_000, k: 500, chunk: 8192, sketchRows: 16, every: 128, testRecords: 2000, accFloor: 0.4}
	if tiny {
		c.records, c.k, c.chunk, c.testRecords, c.accFloor = 20_000, 100, 4096, 500, 0.3
	}
	return c
}

const streamObject = "stream"

// streamSpec is bench-streaming's record distribution.
func streamSpec(seed uint64) data.Spec {
	return data.Spec{
		Name: "stream-bench", Classes: 10, BytesPerImage: 512, FeatureDim: 32,
		Spread: 0.35, HardFrac: 0.1, Modes: 3, ModeSpread: 1.0, ModeDecay: 0.6,
		Seed: deriveSeed(99, seed),
	}
}

// streamJob is one set-up pass: a virtual stream object on a SmartSSD
// under a seeded fault schedule, the planned selector, and a frozen
// selection layer.
type streamJob struct {
	c   streamCase
	rs  *data.RecordStream
	dev *smartssd.Device
	sel *streaming.Selector
	w   *tensor.Matrix
	rec int64

	feats, logits, emb *tensor.Matrix
	labels             []int

	res   selection.Result
	stats streaming.Stats

	tr   *tracer
	scan int // span the prefetcher's spans nest under
}

func setupStream(c streamCase, seed uint64, tr *tracer) (*streamJob, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	spec := streamSpec(seed)
	j := &streamJob{c: c}
	var err error
	if j.rs, err = data.NewRecordStream(spec, c.records); err != nil {
		return nil, err
	}
	if j.dev, err = smartssd.New(); err != nil {
		return nil, err
	}
	prof := faults.DefaultChaosProfile()
	prof.Seed = deriveSeed(prof.Seed, seed)
	//nessa:seed-ok derived from the benchmark's --seed
	j.dev.SetInjector(faults.NewInjector(prof))
	if err := j.dev.StoreVirtualDataset(streamObject, j.rs.Size(), j.fill); err != nil {
		return nil, err
	}
	counts := make([]int, spec.Classes)
	for i := range counts {
		counts[i] = c.records / spec.Classes
		if i < c.records%spec.Classes {
			counts[i]++
		}
	}
	j.sel, err = streaming.NewSelector(streaming.Config{
		Classes:     spec.Classes,
		Dim:         spec.Classes,
		K:           c.k,
		ClassCounts: counts,
		SketchRows:  c.sketchRows,
		SketchDim:   spec.Classes * spec.FeatureDim,
		SketchEvery: c.every,
		Seed:        spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	j.w = tensor.NewMatrix(spec.Classes, spec.FeatureDim)
	j.w.FillNormal(tensor.NewRNG(spec.Seed+1), 0.5)
	j.rec = j.rs.RecordBytes()
	j.feats = tensor.NewMatrix(c.chunk, spec.FeatureDim)
	j.logits = tensor.NewMatrix(c.chunk, spec.Classes)
	j.emb = tensor.NewMatrix(c.chunk, spec.Classes)
	j.labels = make([]int, c.chunk)
	return j, nil
}

// fill synthesizes the virtual object's bytes as the drive reads them.
func (j *streamJob) fill(off int64, buf []byte) {
	sp := j.tr.begin("storage.fill", j.scan)
	j.rs.Fill(off, buf)
	j.tr.end(sp)
}

// verify is the CRC verifier handed to ScanRecords.
func (j *streamJob) verify(buf []byte) error {
	sp := j.tr.begin("data.verify", j.scan)
	err := data.VerifyImage(buf, j.rec)
	j.tr.end(sp)
	j.tr.add("data.verify_mb", float64(len(buf))/mib)
	return err
}

// job is one sequential pass: scan with CRC verify, decode, the frozen
// layer's forward pass, gradient embeddings, Push, then Finish.
func (j *streamJob) job(tr *tracer) (jobResult, error) {
	j.tr = tr
	parallel.SetDefaultWorkers(runtime.NumCPU())
	tensor.SetFastMath(false)
	root := tr.begin("job", 0)
	defer tr.end(root)
	spec := j.rs.Spec
	j.scan = tr.begin("smartssd.scan", root)
	st, err := streaming.ScanRecords(j.dev, streaming.ScanConfig{
		Object:       streamObject,
		RecordBytes:  j.rec,
		Records:      j.c.records,
		ChunkRecords: j.c.chunk,
		Verify:       j.verify,
	}, func(_, lo, hi int, base int64, buf []byte) error {
		m := hi - lo
		fv := tensor.Matrix{Rows: m, Cols: spec.FeatureDim, Data: j.feats.Data[:m*spec.FeatureDim]}
		sp := tr.begin("data.decode", j.scan)
		for i := 0; i < m; i++ {
			off := (int64(lo+i) - base) * j.rec
			label, err := data.DecodeRecordInto(buf[off:off+j.rec], fv.Row(i))
			if err != nil {
				tr.end(sp)
				return err
			}
			j.labels[i] = label
		}
		tr.end(sp)
		lv := tensor.Matrix{Rows: m, Cols: spec.Classes, Data: j.logits.Data[:m*spec.Classes]}
		ev := tensor.Matrix{Rows: m, Cols: spec.Classes, Data: j.emb.Data[:m*spec.Classes]}
		sp = tr.begin("nn.forward", j.scan)
		tensor.MatMulTransB(&lv, &fv, j.w)
		tr.end(sp)
		sp = tr.begin("nn.embed", j.scan)
		nn.GradEmbeddingsInto(&ev, &lv, j.labels[:m])
		tr.end(sp)
		sp = tr.begin("streaming.push", j.scan)
		err := j.sel.Push(&ev, &fv, j.labels[:m])
		tr.end(sp)
		tr.add("data.decode_records", float64(m))
		tr.add("nn.forward_rows", float64(m))
		return err
	})
	tr.end(j.scan)
	out := jobResult{epochs: 1, sim: st.IOTime}
	if err != nil {
		return out, err
	}
	sp := tr.begin("streaming.finish", root)
	res, stats, err := j.sel.Finish()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	j.res, j.stats = res, stats

	tr.add("streaming.records", float64(stats.Records))
	tr.add("streaming.state_kb", float64(stats.StateBytes)/1024)
	tr.add("smartssd.scan_mb", float64(st.Bytes)/mib)
	tr.add("smartssd.scan_sim_s", st.IOTime.Seconds())
	tr.add("smartssd.retries", float64(st.Read.Retries))
	tr.add("smartssd.corrupt_caught", float64(st.Read.Corrupt))
	if st.Read.HostFallback {
		tr.add("smartssd.host_fallbacks", 1)
	}
	out.sizes = []int{len(res.Selected)}
	out.sig = fmt.Sprintf("selected=%v weights=%v objective=%v io=%d read=%+v state=%d",
		res.Selected, res.Weights, res.Objective, st.IOTime, st.Read, stats.StateBytes)
	return out, nil
}

// check validates the pass's subset and scores it: a model trained on
// the weighted subset with the default recipe, tested on held-out
// records of the same stream.
func (j *streamJob) check(res *jobResult) error {
	if got := len(j.res.Selected); got != j.c.k {
		return fmt.Errorf("stream subset has %d members, want K = %d", got, j.c.k)
	}
	if err := checkSubset(j.res.Selected, nil, j.c.records); err != nil {
		return fmt.Errorf("stream subset: %w", err)
	}
	if budget := streaming.DefaultMemoryBudget(); j.stats.StateBytes > budget {
		return fmt.Errorf("selection state %d bytes exceeds the on-chip budget %d", j.stats.StateBytes, budget)
	}
	spec := j.rs.Spec
	sample := func(idx []int) *data.Dataset {
		d := &data.Dataset{Spec: spec, X: tensor.NewMatrix(len(idx), spec.FeatureDim), Labels: make([]int, len(idx))}
		for i, r := range idx {
			d.Labels[i] = j.rs.Sample(r, d.X.Row(i))
		}
		return d
	}
	test := make([]int, j.c.testRecords)
	for i := range test {
		test[i] = j.c.records + i
	}
	train, held := sample(j.res.Selected), sample(test)
	tcfg := trainer.Default()
	trn := trainer.New(spec, tcfg)
	for e := 0; e < tcfg.Epochs; e++ {
		trn.SetEpoch(e)
		trn.TrainEpoch(train.X, train.Labels, j.res.Weights)
	}
	res.acc = trn.Evaluate(held)
	if res.acc < j.c.accFloor {
		return fmt.Errorf("model trained on the stream subset scores %.4f, below the floor %.2f", res.acc, j.c.accFloor)
	}
	return nil
}
