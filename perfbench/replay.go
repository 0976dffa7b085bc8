package main

import (
	"fmt"
	"time"

	"nessa/internal/data"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/quant"
	"nessa/internal/selection"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// core.Run is opaque from outside, so the traced run replays the
// session's per-epoch call sequence for the job's options (the
// facility selector with quantized feedback, subset biasing, dynamic
// sizing and checkpoints, on a device or a striped cluster) with a
// span around each call into a layer. The replay reports how many
// epochs' subset sizes match the untraced core.Run instead of
// asserting it, so a later change to the core loop shows up as a
// weaker trace.

// verify is the record verifier handed to ReadResilient and
// Cluster.Verify in the traced replay.
func (j *trainJob) verify(buf []byte) error {
	sp := j.tr.begin("data.verify", j.open)
	err := data.VerifyImage(buf, j.recBytes)
	j.tr.end(sp)
	j.tr.add("data.verify_mb", float64(len(buf))/mib)
	return err
}

// replay runs the traced job.
func (j *trainJob) replay(tr *tracer) (jobResult, error) {
	j.tr = tr
	opt, tcfg, train := j.opt, j.tcfg, j.train
	parallel.SetDefaultWorkers(opt.Workers)
	tensor.SetFastMath(!opt.BitExact)
	if j.cl != nil {
		j.cl.SetInjector(opt.Injector)
		j.cl.Verify = j.verify
	}
	root := tr.begin("job", 0)
	defer tr.end(root)

	n := train.Len()
	rng := tensor.NewRNG(opt.Seed)
	hist := newHistory(n, opt.BiasWindow)
	frac, prevLoss, slow := opt.SubsetFrac, -1.0, 0
	trn := trainer.New(train.Spec, tcfg)
	cands := make([]int, n)
	for i := range cands {
		cands[i] = i
	}
	var cur selection.Result
	res := jobResult{epochs: 1}
	var acc float64
	for e := 0; e < tcfg.Epochs; e++ {
		trn.SetEpoch(e)
		if e%opt.SelectEvery == 0 || cur.Selected == nil {
			tr.add("core.reselections", 1)
			sp := tr.begin("quant.quantize", root)
			qm := quant.QuantizeModel(trn.Model)
			selModel := qm.Dequantized()
			tr.end(sp)
			tr.add("quant.feedback_kb", float64(qm.SizeBytes())/1024)
			j.feedback(root, qm.SizeBytes())
			if err := j.scan(root, len(cands)); err != nil {
				return res, err
			}
			var losses []float32
			var err error
			cur, losses, err = j.selectSubset(root, selModel, cands, frac, rng)
			if err != nil {
				return res, err
			}
			if err := checkSubset(cur.Selected, cands, n); err != nil {
				return res, fmt.Errorf("epoch %d subset: %w", e, err)
			}
			hist.record(cands, losses)
			j.ship(root, int64(len(cur.Selected))*j.recBytes, len(cur.Selected))
		}

		sp := tr.begin("data.gather", root)
		subset := train.Subset(cur.Selected)
		tr.end(sp)
		sp = tr.begin("trainer.train", root)
		loss := trn.TrainEpoch(subset.X, subset.Labels, cur.Weights)
		tr.end(sp)
		tr.add("trainer.samples", float64(subset.Len()))
		sp = tr.begin("trainer.eval", root)
		acc = trn.Evaluate(j.test)
		tr.end(sp)
		res.sizes = append(res.sizes, subset.Len())
		res.epochs = len(res.sizes)

		// Subset biasing and dynamic sizing, as the session does them.
		if opt.SubsetBias && (e+1)%opt.BiasEvery == 0 {
			var kept []int
			for _, c := range cands {
				if !hist.learned(c, opt.BiasThreshold) {
					kept = append(kept, c)
				}
			}
			if len(kept) >= int(frac*float64(n))+1 {
				cands = kept
				cur.Selected = nil
			}
		}
		if opt.DynamicSizing {
			if prevLoss > 0 {
				if (prevLoss-loss)/prevLoss < opt.LossDecayRate {
					slow++
				} else {
					slow = 0
				}
				if slow >= opt.ShrinkPatience {
					next := frac * opt.ShrinkFactor
					if next < opt.MinSubsetFrac {
						next = opt.MinSubsetFrac
					}
					if next < frac {
						frac = next
						cur.Selected = nil
					}
					slow = 0
				}
			}
			prevLoss = loss
		}

		every := opt.CheckpointEvery
		if every <= 0 {
			every = 1
		}
		if opt.CheckpointSink != nil && (e+1)%every == 0 {
			sp = tr.begin("trainer.snapshot", root)
			trn.Snapshot()
			tr.end(sp)
		}
	}
	res.acc = acc
	res.sim = j.simNow() - j.simStart
	tr.add("storage.write_mb", float64(writtenBytes(j.devs...)-j.writeStart)/mib)
	return res, nil
}

// feedback charges the quantized selection model's transfer: to the
// device, or broadcast to every drive of the cluster.
func (j *trainJob) feedback(parent int, bytes int64) {
	sp := j.tr.begin("smartssd.feedback", parent)
	defer j.tr.end(sp)
	if j.dev != nil {
		j.dev.ReceiveFeedback(bytes)
		j.tr.add("smartssd.feedback_mb", float64(bytes)/mib)
		return
	}
	for _, d := range j.cl.Devices {
		d.ReceiveFeedback(bytes)
		j.tr.add("smartssd.feedback_mb", float64(bytes)/mib)
	}
}

// scan reads the candidate records near storage: one resilient read
// on the device, or a striped parallel scan (and rebuild onto the
// spare after a degraded one) on the cluster.
func (j *trainJob) scan(parent, candidates int) error {
	tr := j.tr
	sp := tr.begin("smartssd.scan", parent)
	j.open = sp
	var st smartssd.ReadStats
	var err error
	if j.dev != nil {
		length := int64(candidates) * j.recBytes
		before := j.dev.Clock.Now()
		_, st, err = j.dev.ReadResilient(j.opt.DatasetName, 0, length, candidates, j.verify, j.opt.Retry)
		tr.end(sp)
		tr.add("smartssd.scan_mb", float64(length)/mib)
		tr.add("smartssd.scan_sim_s", (j.dev.Clock.Now() - before).Seconds())
	} else {
		var payloads [][]byte
		var cst smartssd.ScanStats
		var wall time.Duration
		payloads, cst, wall, err = j.cl.ParallelScan(j.opt.DatasetName, j.recBytes)
		tr.end(sp)
		st = cst.Read
		for _, p := range payloads {
			tr.add("smartssd.scan_mb", float64(len(p))/mib)
		}
		tr.add("smartssd.scan_sim_s", wall.Seconds())
		tr.add("smartssd.retries", float64(cst.Reissues))
		tr.add("smartssd.degraded_reads", float64(cst.DegradedReads))
		tr.add("smartssd.reconstructed_mb", float64(cst.ReconstructedBytes)/mib)
		if err == nil && cst.DegradedReads > 0 && j.opt.AutoRebuild && j.cl.Spares() > 0 {
			sp = tr.begin("smartssd.rebuild", parent)
			j.open = sp
			dur, rerr := j.cl.Rebuild(j.opt.DatasetName)
			tr.end(sp)
			tr.add("smartssd.rebuild_sim_s", dur.Seconds())
			if rerr != nil {
				return fmt.Errorf("rebuild after degraded scan: %w", rerr)
			}
		}
	}
	tr.add("smartssd.retries", float64(st.Retries))
	tr.add("smartssd.corrupt_caught", float64(st.Corrupt))
	if st.HostFallback {
		tr.add("smartssd.host_fallbacks", 1)
	}
	if err != nil {
		return fmt.Errorf("candidate scan: %w", err)
	}
	return nil
}

// ship charges the subset's transfer to the GPU.
func (j *trainJob) ship(parent int, bytes int64, records int) {
	d := j.dev
	if d == nil {
		d = j.cl.Devices[0]
	}
	sp := j.tr.begin("smartssd.ship", parent)
	dur := d.SendToGPU(bytes, records)
	j.tr.end(sp)
	j.tr.add("smartssd.ship_mb", float64(bytes)/mib)
	j.tr.add("smartssd.ship_sim_s", dur.Seconds())
}

// selectSubset is the session's facility-location selection pass: the
// selection model's forward pass over the candidates, their losses and
// gradient embeddings, and per-class partitioned stochastic greedy.
func (j *trainJob) selectSubset(parent int, selModel *nn.MLP, cands []int, frac float64, rng *tensor.RNG) (selection.Result, []float32, error) {
	tr, opt, train := j.tr, j.opt, j.train
	sp := tr.begin("data.gather", parent)
	candSet := train.Subset(cands)
	tr.end(sp)
	sp = tr.begin("nn.forward", parent)
	logits := selModel.Forward(candSet.X)
	tr.end(sp)
	tr.add("nn.forward_rows", float64(len(cands)))
	sp = tr.begin("nn.embed", parent)
	losses := nn.SoftmaxCE(logits, candSet.Labels, nil, nil)
	emb := nn.GradEmbeddings(logits, candSet.Labels)
	tr.end(sp)

	k := int(frac * float64(train.Len()))
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	sp = tr.begin("selection.maximize", parent)
	classes := make([][]int, train.Spec.Classes)
	for i, y := range candSet.Labels {
		classes[y] = append(classes[y], i)
	}
	base := rng.Uint64()
	res, err := selection.PerClassWith(emb, classes, k, func(ci int) selection.Maximizer {
		crng := selection.ClassStream(base, ci)
		inner := selection.StochasticMaximizer(opt.Eps, crng)
		if opt.Partition {
			inner = selection.PartitionedMaximizer(opt.PartitionM, crng, inner)
		}
		return inner
	})
	tr.end(sp)
	if err != nil {
		return selection.Result{}, nil, err
	}
	tr.add("selection.candidates", float64(len(cands)))
	tr.add("selection.selected", float64(len(res.Selected)))
	for i, s := range res.Selected {
		res.Selected[i] = cands[s]
	}
	return res, losses, nil
}

// history keeps each sample's most recent losses, the record subset
// biasing drops learned samples by.
type history struct {
	window int
	buf    [][]float32
	pos    []int
	count  []int
}

func newHistory(n, window int) *history {
	if window <= 0 {
		window = 1
	}
	return &history{window: window, buf: make([][]float32, n), pos: make([]int, n), count: make([]int, n)}
}

func (h *history) record(indices []int, losses []float32) {
	for i, idx := range indices {
		if h.buf[idx] == nil {
			h.buf[idx] = make([]float32, h.window)
		}
		h.buf[idx][h.pos[idx]] = losses[i]
		h.pos[idx] = (h.pos[idx] + 1) % h.window
		if h.count[idx] < h.window {
			h.count[idx]++
		}
	}
}

// learned reports whether sample idx's full window averages below the
// threshold.
func (h *history) learned(idx int, threshold float32) bool {
	c := h.count[idx]
	if c < h.window {
		return false
	}
	var sum float32
	for i := 0; i < c; i++ {
		sum += h.buf[idx][i]
	}
	return sum/float32(c) < threshold
}
