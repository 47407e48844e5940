package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/loadgen"
	"repro/internal/lsh"
	"repro/internal/sampling"
)

// sink keeps replayed results observable so no call is optimized away.
var sink int

const (
	replaySampled = 2000 // sampled predictions timed
	replayExact   = 500  // exact predictions timed
	replayKernel  = 1000 // test inputs through the single-layer replays
	replayGather  = 200  // test inputs through the full output gather
	replayRecall  = 500  // test examples behind the label recall
	replayApply   = 20   // ApplyDelta replays
	replayBuild   = 3    // whole-layer hash and table build replays
)

// traceMetrics fills the per-layer metrics of a traced run: counters
// from the training result and the loopback exchanger, /stats snapshots
// around the load phases, and timed replays of each module's public entry
// points on the trained network and the loaded model.
func (b *bench) traceMetrics(m metrics, su *setupOut, tr trainOut, tap *deltaTap, baseStepMS float64,
	trained, loaded *core.Network, pred *core.Predictor, ds *dataset.Dataset, loadMS float64,
	phases [2]phaseResult, snaps [4]loadgen.ServerStats) error {
	r := tr.res

	// internal/core: training loop.
	m.set("core.utilization", "fraction", r.Utilization)
	m.set("core.step.p50_ms", "ms", percentile(tap.stepMS, 0.50))
	m.set("core.step.p99_ms", "ms", percentile(tap.stepMS, 0.99))
	m.set("core.delta.cells_per_step", "count", r.TouchedPerIter)
	m.set("core.delta.rows_per_step.l0", "count", tap.rowSum[0]/float64(tap.deltas))
	m.set("core.delta.rows_per_step.l1", "count", tap.rowSum[1]/float64(tap.deltas))
	m.set("core.rebuild.count", "count", float64(r.Rebuilds))
	m.set("core.rebuild.stall_ms", "ms", float64(r.RebuildStallNS)/1e6)
	m.set("core.rebuild.build_ms", "ms", float64(r.RebuildBuildNS)/1e6)
	m.set("core.rebuild.rehashed_frac", "fraction", fraction(r.RowsRehashed, r.RowsRehashed+r.RowsReused))
	m.set("core.active.out_mean", "count", r.MeanActive[len(r.MeanActive)-1])
	m.set("kernels.scatter_share", "fraction", fraction(r.KernelForwards["scatter"], r.KernelForwards["scatter"]+r.KernelForwards["gather"]))
	m.set("kernels.crossover", "fraction", trained.KernelPolicy().ScatterMaxDensity)
	// Tracing overhead: the traced steps' mean time over the same first
	// baseIters steps the untraced baseline ran.
	m.set("trace.overhead_frac", "fraction", 1-baseStepMS/tap.meanStepMS(baseIters))

	// Set-up.
	m.set("dataset.generate_ms", "ms", su.generateS*1e3)
	m.set("core.new_network_ms", "ms", su.newNetS*1e3)
	m.set("core.load_model_ms", "ms", loadMS)

	// internal/core Predictor on the loaded model.
	if err := replayPredictor(m, pred, ds, b.wl.beta); err != nil {
		return err
	}
	// internal/kernels, internal/lsh, internal/hashtable and
	// internal/sampling on the loaded model's weights and tables.
	if err := b.replayLayers(m, loaded, ds); err != nil {
		return err
	}
	// Delta apply and a whole-network rebuild on the trained network.
	if err := b.replayUpdate(m, trained, tap); err != nil {
		return err
	}

	// internal/serve, from the /stats snapshots around each phase:
	// [before low, after low, before high, after high].
	m.set("serve.server.p50_ms", "ms", snaps[1].P50Millis)
	m.set("serve.server.p99_ms", "ms", snaps[3].P99Millis)
	m.set("serve.batch_mean", "count", snaps[3].MeanBatchSize)
	m.set("serve.gc_pause_p99_ms", "ms", snaps[3].GCPauseP99Millis)
	m.set("serve.allocs_per_req", "count", loadgen.GCDeltaBetween(snaps[2], snaps[3]).AllocsPerRequest)
	m.set("serve.shed", "count", float64(snaps[3].Shed))
	m.set("serve.deadline_exceeded", "count", float64(snaps[3].DeadlineExceeded))
	m.set("serve.errors", "count", float64(phases[0].failed+phases[1].failed))
	m.set("serve.low.p50_ms", "ms", percentile(phases[0].latMS, 0.50))
	m.set("serve.low.p99_ms", "ms", percentile(phases[0].latMS, 0.99))
	m.set("serve.high.p99_ms", "ms", median(phases[1].windowP99))
	late := append(append([]float64(nil), phases[0].lateMS...), phases[1].lateMS...)
	m.set("driver.late_p99_ms", "ms", percentile(late, 0.99))
	return nil
}

func fraction(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// replayPredictor times single-goroutine TopKWithScoresInto calls, both
// paths, and measures the label recall of a sampled prediction with k=β.
func replayPredictor(m metrics, pred *core.Predictor, ds *dataset.Dataset, beta int) error {
	ctx := context.Background()
	test := ds.Test
	var ids []int32
	var scores []float32
	timeCalls := func(n int, sampled bool) ([]float64, error) {
		us := make([]float64, n)
		for i := 0; i < n; i++ {
			x := test[i%len(test)].Features
			t0 := time.Now()
			var err error
			ids, scores, err = pred.TopKWithScoresInto(ctx, x, topK, sampled, ids[:0], scores[:0])
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			if err != nil {
				return nil, err
			}
		}
		return us, nil
	}
	sampled, err := timeCalls(replaySampled, true)
	if err != nil {
		return err
	}
	exact, err := timeCalls(replayExact, false)
	if err != nil {
		return err
	}
	m.set("core.predict.sampled_us.p50", "us", percentile(sampled, 0.50))
	m.set("core.predict.sampled_us.p99", "us", percentile(sampled, 0.99))
	m.set("core.predict.exact_us.p50", "us", percentile(exact, 0.50))
	m.set("core.predict.exact_us.p99", "us", percentile(exact, 0.99))

	var recall float64
	n := min(replayRecall, len(test))
	for i := 0; i < n; i++ {
		ex := &test[i]
		ids, scores, err = pred.TopKWithScoresInto(ctx, ex.Features, beta, true, ids[:0], scores[:0])
		if err != nil {
			return err
		}
		hits := 0
		for _, l := range ex.Labels {
			for _, id := range ids {
				if id == l {
					hits++
					break
				}
			}
		}
		recall += float64(hits) / float64(len(ex.Labels))
	}
	m.set("core.predict.label_recall", "fraction", recall/float64(n))
	return nil
}

// outputFamily rebuilds the output layer's LSH family from the network
// configuration, with the seed derivation core uses for layer 1, so the
// replayed codes address the live tables' buckets.
func outputFamily(net *core.Network) (lsh.Family, error) {
	cfg := net.Config()
	lc := cfg.Layers[1]
	return lsh.New(lc.Hash, lsh.Params{
		Dim:            net.Layer(1).In(),
		K:              lc.K,
		L:              lc.L,
		Seed:           cfg.Seed ^ 1*0x9e3779b97f4a7c15,
		SimhashDensity: lc.SimhashDensity,
		BinSize:        lc.BinSize,
		TopK:           lc.TopK,
	})
}

// replayLayers times the single-layer entry points on real weights,
// tables and test inputs: the hidden layer's scatter kernel, the full
// output gather, the query hash, the bucket probe, the vanilla sampler,
// and the whole-layer hash and table build.
func (b *bench) replayLayers(m metrics, net *core.Network, ds *dataset.Dataset) error {
	hid, out := net.Layer(0), net.Layer(1)
	hidRows := make([][]float32, hid.Out())
	hidBias := make([]float32, hid.Out())
	for j := range hidRows {
		hidRows[j], hidBias[j] = hid.Weights(j), hid.Bias(j)
	}
	mirror := kernels.NewMirror(hid.In(), hid.Out())
	mirror.Rebuild(hidRows)
	outRows := make([][]float32, out.Out())
	outBias := make([]float32, out.Out())
	for j := range outRows {
		outRows[j], outBias[j] = out.Weights(j), out.Bias(j)
	}

	fam, err := outputFamily(net)
	if err != nil {
		return err
	}
	tbl := out.Tables()
	strat, err := sampling.New(sampling.Params{Kind: sampling.KindVanilla, Beta: b.wl.beta, Seed: b.seed}, out.Out())
	if err != nil {
		return err
	}
	nf := fam.NumFuncs()
	codes := make([]uint32, nf)
	var dst []uint32
	n := min(replayKernel, len(ds.Test))
	hidden := make([][]float32, n)
	scatterUS := make([]float64, n)
	hashUS := make([]float64, n)
	probeUS := make([]float64, n)
	sampleUS := make([]float64, n)
	for i := 0; i < n; i++ {
		x := ds.Test[i].Features
		h := make([]float32, hid.Out())
		t0 := time.Now()
		kernels.ScatterForward(h, mirror, hidBias, x.Idx, x.Val, true)
		t1 := time.Now()
		fam.HashDense(h, codes)
		t2 := time.Now()
		for ti := 0; ti < tbl.L(); ti++ {
			sink += len(tbl.Bucket(ti, codes))
		}
		t3 := time.Now()
		dst = strat.Sample(dst[:0], tbl, codes)
		t4 := time.Now()
		hidden[i] = h
		scatterUS[i] = us(t1.Sub(t0))
		hashUS[i] = us(t2.Sub(t1))
		probeUS[i] = us(t3.Sub(t2))
		sampleUS[i] = us(t4.Sub(t3))
		sink += len(dst)
	}
	m.set("kernels.scatter_us", "us", median(scatterUS))
	m.set("lsh.hash_query_us", "us", median(hashUS))
	m.set("hashtable.probe_us", "us", median(probeUS))
	m.set("sampling.sample_us", "us", median(sampleUS))
	m.set("hashtable.avg_bucket_len", "count", tbl.Stats().AvgBucketLen)

	full := make([]float32, out.Out())
	gatherUS := make([]float64, min(replayGather, n))
	for i := range gatherUS {
		t0 := time.Now()
		kernels.GatherForward(full, nil, outRows, outBias, nil, hidden[i], true, false)
		gatherUS[i] = us(time.Since(t0))
	}
	m.set("kernels.gather_full_us", "us", median(gatherUS))

	// Whole-layer hash and table build from precomputed codes: the two
	// halves of a rebuild.
	block := make([]float32, out.Out()*out.In())
	for j, row := range outRows {
		copy(block[j*out.In():], row)
	}
	all := make([]uint32, out.Out()*nf)
	hashS := make([]float64, replayBuild)
	buildMS := make([]float64, replayBuild)
	for rep := 0; rep < replayBuild; rep++ {
		t0 := time.Now()
		fam.HashDenseRows(block, out.Out(), all)
		hashS[rep] = time.Since(t0).Seconds()
		shadow := tbl.Shadow(uint64(1<<40 + rep))
		t1 := time.Now()
		shadow.BuildParallel(out.Out(), all, nf, threads)
		buildMS[rep] = ms(time.Since(t1))
	}
	m.set("lsh.hash_rows_per_s", "1/s", float64(out.Out())/median(hashS))
	m.set("hashtable.build_ms", "ms", median(buildMS))

	// The loaded model's tables were built from exactly these weights,
	// so with the right family every row sits in its own bucket unless
	// the reservoir evicted it.
	found := 0
	for j := 0; j < out.Out(); j++ {
		for _, id := range tbl.Bucket(0, all[j*nf:(j+1)*nf]) {
			if int(id) == j {
				found++
				break
			}
		}
	}
	if frac := float64(found) / float64(out.Out()); frac < 0.5 {
		return fmt.Errorf("replayed hash family does not match the output layer's tables: %.2f of rows found in their own bucket", frac)
	}
	return nil
}

// replayUpdate replays ApplyDelta on the captured delta and times one
// whole-network RebuildTables on the trained network.
func (b *bench) replayUpdate(m metrics, net *core.Network, tap *deltaTap) error {
	if tap.captured == nil {
		return fmt.Errorf("no delta captured at step %d", tap.captureAt)
	}
	d, err := core.MergeDeltas(nil, []*core.SparseDelta{tap.captured})
	if err != nil {
		return err
	}
	alpha := net.Config().Adam.Alpha(net.Step() + 1)
	invB := 1 / float32(b.wl.batch)
	applyMS := make([]float64, replayApply)
	for i := range applyMS {
		t0 := time.Now()
		if _, err := net.ApplyDelta(d, alpha, invB, threads); err != nil {
			return err
		}
		applyMS[i] = ms(time.Since(t0))
	}
	m.set("core.delta.apply_ms", "ms", median(applyMS))
	t0 := time.Now()
	net.RebuildTables(threads)
	m.set("core.rebuild.full_ms", "ms", ms(time.Since(t0)))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
