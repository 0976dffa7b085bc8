package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// trainCase fixes the size of a training workload. The seed never
// changes it.
type trainCase struct {
	spec     data.Spec
	epochs   int
	cluster  bool    // stripe 3+1 over a cluster with a spare, under chaos
	accFloor float64 // lowest acceptable final test accuracy
}

// c100Case is nessa_c100: CIFAR-100 from the registry on one SmartSSD.
func c100Case(tiny bool) trainCase {
	spec, _ := data.Lookup("CIFAR-100")
	c := trainCase{spec: spec, epochs: 60, accFloor: 0.5}
	if tiny {
		c.spec.SimTrain, c.spec.SimTest, c.epochs, c.accFloor = 600, 300, 6, 0 // chance level at this size
	}
	return c
}

// clusterCase is cluster_rebuild: CIFAR-10 geometry with 32 KB records.
func clusterCase(tiny bool) trainCase {
	spec, _ := data.Lookup("CIFAR-10")
	spec.BytesPerImage = 32 * 1024
	c := trainCase{spec: spec, epochs: 60, cluster: true, accFloor: 0.75}
	if tiny {
		c.spec.SimTrain, c.spec.SimTest, c.epochs, c.accFloor = 600, 300, 6, 0.2
	}
	return c
}

// Cluster layout of cluster_rebuild.
const (
	dataShards   = 3
	parityShards = 1
	killDevice   = 1
	killAfter    = 3 // device killDevice dies after this many scans
)

// deriveSeed mixes the command-line seed into a base seed.
func deriveSeed(base, seed uint64) uint64 { return base + seed*0x9E3779B97F4A7C15 }

// trainJob is one set-up training job: the generated data, the stored
// or striped image, and the session options.
type trainJob struct {
	c           trainCase
	train, test *data.Dataset
	tcfg        trainer.Config
	opt         core.Options
	recBytes    int64
	dev         *smartssd.Device
	cl          *smartssd.Cluster
	devs        []*smartssd.Device // every drive the job can write to
	simStart    time.Duration
	writeStart  int64

	blobs     [][]byte // every checkpoint handed to the sink
	ckptBytes int64    // all checkpoint bytes handed to the sink

	// Traced replay state.
	tr   *tracer
	open int // span the verifier's spans nest under
}

// setupTrain generates the data and lays it out on storage. Spans of
// the set-up go to tr, which may be nil.
func setupTrain(c trainCase, seed uint64, tr *tracer) (*trainJob, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	spec := c.spec
	spec.Seed = deriveSeed(spec.Seed, seed)
	train, test := data.Generate(spec)
	img, err := data.Encode(train)
	if err != nil {
		return nil, err
	}
	recBytes, err := data.RecordSize(spec)
	if err != nil {
		return nil, err
	}
	j := &trainJob{c: c, train: train, test: test, tcfg: trainer.Default(), opt: core.DefaultOptions(), recBytes: recBytes}
	j.tcfg.Epochs = c.epochs
	j.opt.Workers = runtime.NumCPU()
	j.opt.BitExact = true
	j.opt.DatasetName = spec.Name
	j.opt.CheckpointSink = j.sink // every epoch
	if !c.cluster {
		if j.dev, err = smartssd.New(); err != nil {
			return nil, err
		}
		if err := j.dev.StoreDataset(spec.Name, img); err != nil {
			return nil, err
		}
		j.opt.Device = j.dev
		j.simStart = j.dev.Clock.Now()
		j.devs = []*smartssd.Device{j.dev}
		j.writeStart = writtenBytes(j.devs...)
		return j, nil
	}
	if j.cl, err = smartssd.NewCluster(dataShards + parityShards); err != nil {
		return nil, err
	}
	sp := tr.begin("erasure.stripe", root)
	_, err = j.cl.StripeDataset(spec.Name, img, recBytes, smartssd.Placement{DataShards: dataShards, ParityShards: parityShards})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	spare, err := smartssd.New()
	if err != nil {
		return nil, err
	}
	j.cl.AttachSpare(spare)
	prof := faults.DefaultChaosProfile()
	prof.Seed = deriveSeed(prof.Seed, seed)
	prof.Kills = []faults.DeviceKill{{Device: killDevice, AfterScans: killAfter}}
	//nessa:seed-ok derived from the benchmark's --seed
	j.opt.Injector = faults.NewInjector(prof)
	j.opt.Cluster = j.cl
	j.opt.AutoRebuild = true
	j.simStart = j.cl.MaxClock()
	j.devs = append(append([]*smartssd.Device(nil), j.cl.Devices...), spare)
	j.writeStart = writtenBytes(j.devs...)
	return j, nil
}

// sink is the in-memory checkpoint sink.
func (j *trainJob) sink(_ int, blob []byte) error {
	j.blobs = append(j.blobs, blob)
	j.ckptBytes += int64(len(blob))
	return nil
}

func writtenBytes(devs ...*smartssd.Device) int64 {
	var n int64
	for _, d := range devs {
		n += d.Acct.Bytes("ssd.write")
	}
	return n
}

// simNow reads the modelled SmartSSD clock: the device's, or the
// cluster's furthest-advanced one.
func (j *trainJob) simNow() time.Duration {
	if j.cl != nil {
		return j.cl.MaxClock()
	}
	return j.dev.Clock.Now()
}

// job runs the session: untraced through core.Run, traced through the
// benchmark's replay of the same per-epoch calls.
func (j *trainJob) job(tr *tracer) (jobResult, error) {
	if tr != nil {
		return j.replay(tr)
	}
	rep, err := core.Run(j.train, j.test, j.tcfg, j.opt)
	if err != nil {
		return jobResult{}, err
	}
	res := jobResult{epochs: j.c.epochs, sim: j.simNow() - j.simStart, ckptBytes: j.ckptBytes}
	f, r := rep.Faults, rep.Recovery
	res.acc, res.sizes, res.fallbacks = rep.Metrics.FinalAcc, rep.Metrics.SubsetSizes, f.FallbackEpochs
	res.sig = fmt.Sprintf("loss=%v acc=%v sizes=%v faults=%d/%d/%d/%d/%d/%d injected=%v recovery=%d/%d/%d/%d sim=%d ckpt=%d",
		rep.Metrics.EpochLoss, rep.Metrics.EpochAcc, rep.Metrics.SubsetSizes,
		f.ScanAttempts, f.Retries, f.TransientErrors, f.CorruptDetected, f.HostFallbacks, f.FallbackEpochs, f.Injected,
		r.DevicesLost, r.DegradedReads, r.ReconstructedBytes, r.RebuildTime, res.sim, j.ckptBytes)
	return res, nil
}

// check validates the job's outputs.
func (j *trainJob) check(res *jobResult) error {
	n := j.train.Len()
	if len(res.sizes) != j.c.epochs {
		return fmt.Errorf("%d epochs trained, want %d", len(res.sizes), j.c.epochs)
	}
	for e, s := range res.sizes {
		if s < 1 || s > n {
			return fmt.Errorf("epoch %d trained on %d samples of %d", e, s, n)
		}
	}
	if res.acc < j.c.accFloor {
		return fmt.Errorf("final accuracy %.4f below the recipe's floor %.2f", res.acc, j.c.accFloor)
	}
	if res.fallbacks > 0 {
		return fmt.Errorf("%d reselections fell back to weighted-random selection", res.fallbacks)
	}
	if j.tr != nil {
		// The replay validated every epoch's subset itself and
		// hands no session checkpoint to the sink.
		return j.checkCluster()
	}
	if len(j.blobs) != j.c.epochs {
		return fmt.Errorf("%d checkpoints reached the sink, want %d", len(j.blobs), j.c.epochs)
	}
	// The session drops its subset when it shrinks or biases the pool,
	// so the newest checkpoint that holds one is the one checked.
	checked := false
	for i := len(j.blobs) - 1; i >= 0 && !checked; i-- {
		cands, selected, err := parseCheckpoint(j.blobs[i], n)
		if err != nil {
			return fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
		if selected == nil {
			continue
		}
		if err := checkSubset(selected, cands, n); err != nil {
			return fmt.Errorf("checkpoint %d's subset: %w", i+1, err)
		}
		checked = true
	}
	if !checked {
		return fmt.Errorf("no checkpoint holds a subset")
	}
	last := j.blobs[len(j.blobs)-1]
	ropt := j.opt
	ropt.Device, ropt.Cluster, ropt.Injector, ropt.AutoRebuild = nil, nil, nil, false
	ropt.CheckpointSink = nil
	ropt.Resume = last
	rrep, err := core.Run(j.train, j.test, j.tcfg, ropt)
	if err != nil {
		return fmt.Errorf("restoring the last checkpoint: %w", err)
	}
	if rrep.Recovery.ResumedFromEpoch != j.c.epochs || rrep.Metrics.FinalAcc != res.acc {
		return fmt.Errorf("last checkpoint restored at epoch %d with accuracy %v, want %d and %v",
			rrep.Recovery.ResumedFromEpoch, rrep.Metrics.FinalAcc, j.c.epochs, res.acc)
	}
	return j.checkCluster()
}

// checkCluster validates cluster_rebuild's end state: one device lost,
// the spare swapped in, and every group device healthy.
func (j *trainJob) checkCluster() error {
	if j.cl == nil {
		return nil
	}
	if j.cl.LostCount() != 1 {
		return fmt.Errorf("cluster lost %d devices, want 1", j.cl.LostCount())
	}
	if j.cl.Spares() != 0 {
		return fmt.Errorf("spare was not swapped in (%d spares left)", j.cl.Spares())
	}
	for i := 0; i < dataShards+parityShards; i++ {
		if h := j.cl.DeviceHealth(i); h != smartssd.HealthHealthy {
			return fmt.Errorf("group device %d is %v after the rebuild", i, h)
		}
	}
	return nil
}

// checkSubset reports whether selected holds unique indices drawn from
// cands, every one inside [0, n).
func checkSubset(selected, cands []int, n int) error {
	if len(selected) == 0 {
		return fmt.Errorf("empty subset")
	}
	pool := make(map[int]bool, len(cands))
	for _, c := range cands {
		pool[c] = true
	}
	seen := make(map[int]bool, len(selected))
	for _, s := range selected {
		switch {
		case s < 0 || s >= n:
			return fmt.Errorf("index %d outside [0, %d)", s, n)
		case seen[s]:
			return fmt.Errorf("index %d selected twice", s)
		case cands != nil && !pool[s]:
			return fmt.Errorf("index %d is not in the candidate pool", s)
		}
		seen[s] = true
	}
	return nil
}

// parseCheckpoint reads the candidate pool and current subset from the
// fixed prefix of a session checkpoint (the NSCP v1 layout documented
// in internal/core/checkpoint.go).
func parseCheckpoint(blob []byte, n int) (cands, selected []int, err error) {
	const magic, version, nilCount = 0x4e534350, 1, 0xffffffff
	off := 0
	u32 := func() uint32 {
		if err != nil || off+4 > len(blob) {
			err = fmt.Errorf("checkpoint truncated at byte %d", off)
			return 0
		}
		v := binary.LittleEndian.Uint32(blob[off:])
		off += 4
		return v
	}
	ints := func(count uint32) []int {
		if err == nil && int(count) > n {
			err = fmt.Errorf("checkpoint lists %d indices for %d samples", count, n)
		}
		var xs []int
		for i := uint32(0); i < count && err == nil; i++ {
			xs = append(xs, int(u32()))
		}
		return xs
	}
	if m, v := u32(), u32(); err == nil && (m != magic || v != version) {
		return nil, nil, fmt.Errorf("checkpoint magic/version %#x/%d, want %#x/%d", m, v, magic, version)
	}
	u32() // epoch
	if got := u32(); err == nil && int(got) != n {
		return nil, nil, fmt.Errorf("checkpoint is for %d samples, want %d", got, n)
	}
	off += 8 + 8 + 4 + 4 + 8 + 8 // frac, prevLoss, slow, dropped, both RNG cursors
	cands = ints(u32())
	if count := u32(); err == nil && count != nilCount {
		selected = ints(count)
	}
	return cands, selected, err
}
