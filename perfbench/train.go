package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernels"
)

// setupOut is the trained-to-be network and its data, with the set-up
// timings (medians over setupReps repetitions).
type setupOut struct {
	ds        *dataset.Dataset
	net       *core.Network
	calibS    float64 // once-per-process gather/scatter crossover calibration
	generateS float64
	newNetS   float64
	setupS    float64 // calibS + median(generate + NewNetwork)
	crossover float64
}

// setup generates the dataset and builds the network setupReps times
// from the same seed, keeping the last pair, so the reported set-up time
// is a median rather than one noisy sample.
func (b *bench) setup() (*setupOut, error) {
	out := &setupOut{}
	c0 := time.Now()
	out.crossover = kernels.CalibratedCrossover()
	out.calibS = time.Since(c0).Seconds()
	gens := make([]float64, setupReps)
	nets := make([]float64, setupReps)
	totals := make([]float64, setupReps)
	for r := 0; r < setupReps; r++ {
		out.ds, out.net = nil, nil
		runtime.GC()
		g0 := time.Now()
		ds, err := dataset.Generate(b.wl.profile(b.seed))
		if err != nil {
			return nil, fmt.Errorf("generating dataset: %w", err)
		}
		gens[r] = time.Since(g0).Seconds()
		n0 := time.Now()
		net, err := core.NewNetwork(b.wl.networkConfig(ds, b.seed))
		if err != nil {
			return nil, fmt.Errorf("building network: %w", err)
		}
		nets[r] = time.Since(n0).Seconds()
		out.ds, out.net = ds, net
		totals[r] = gens[r] + nets[r]
	}
	out.generateS = median(gens)
	out.newNetS = median(nets)
	out.setupS = out.calibS + median(totals)
	return out, nil
}

// curvePoint is one evaluation against training-clock seconds.
type curvePoint struct {
	iter    int64
	seconds float64
	p1, p5  float64
}

// trainOut is one training run's outcome.
type trainOut struct {
	res   *core.TrainResult
	curve []curvePoint // nil when the run skipped the P@k curve
	clock []float64    // training-clock seconds at each evaluation point
	err   error
}

// train runs iters steps of the workload's training on net. With curve
// set, every evaluation point from curveFrom on is scored on the fixed
// evalSamples subset (outside the training clock, as the paper clocks
// convergence), and the iteration-0 score, on a smaller subset, heads
// the curve. ex, when
// non-nil, is installed as the delta exchanger.
func (b *bench) train(net *core.Network, ds *dataset.Dataset, iters int64, curve bool, ex *deltaTap) trainOut {
	var out trainOut
	if curve {
		ev, err := net.Evaluate(ds.Test, initSamples, threads, 1, 5)
		if err != nil {
			out.err = err
			return out
		}
		out.curve = append(out.curve, curvePoint{iter: 0, seconds: 0, p1: ev.P1, p5: ev.PAtK[5]})
	}
	tc := core.TrainConfig{
		BatchSize:   b.wl.batch,
		Iterations:  iters,
		Threads:     threads,
		EvalEvery:   evalEvery,
		EvalSamples: 1, // the loop's own evaluation is replaced by the curve below
		Seed:        b.seed,
		OnEval: func(pt core.Point) {
			out.clock = append(out.clock, pt.Seconds)
			if ex != nil {
				ex.skipInterval()
			}
			if !curve || pt.Iter < b.wl.curveFrom {
				return
			}
			ev, err := net.Evaluate(ds.Test, evalSamples, threads, 1, 5)
			if err != nil {
				out.err = err
				return
			}
			out.curve = append(out.curve, curvePoint{iter: pt.Iter, seconds: pt.Seconds, p1: ev.P1, p5: ev.PAtK[5]})
		},
	}
	if ex != nil {
		tc.Exchanger = ex
	}
	res, err := net.Train(ds.Train, ds.Test, tc)
	out.res = res
	if out.err == nil {
		out.err = err
	}
	return out
}

// samplesPerSec is the training throughput: the median over the
// evalEvery-iteration segments between evaluation points of examples
// trained per training-clock second, so a burst of contention from
// other tenants of the machine during one segment does not move it.
func (b *bench) samplesPerSec(tr trainOut) float64 {
	var rates []float64
	prev := 0.0
	for _, t := range tr.clock {
		rates = append(rates, float64(evalEvery*b.wl.batch)/(t-prev))
		prev = t
	}
	return median(rates)
}

// finalLoss is the mean training loss over the final evaluation
// interval.
func finalLoss(res *core.TrainResult) float64 {
	return res.Curve.Last().Loss
}

// timeToP5 returns the training-clock seconds at which the curve's P@5
// first reaches target, interpolated linearly between evaluation points,
// and whether it did.
func timeToP5(curve []curvePoint, target float64) (float64, bool) {
	for i, pt := range curve {
		if pt.p5 < target {
			continue
		}
		if i == 0 {
			return pt.seconds, true
		}
		prev := curve[i-1]
		frac := (target - prev.p5) / (pt.p5 - prev.p5)
		return prev.seconds + frac*(pt.seconds-prev.seconds), true
	}
	return 0, false
}

// checkTraining applies the training output checks: the run returned
// no error, every recorded loss is finite, and the final P@5 beats the
// iteration-0 score.
func checkTraining(ck *checks, tr trainOut) {
	if tr.err != nil {
		ck.failf("training returned an error: %v", tr.err)
		return
	}
	for _, pt := range tr.res.Curve.Points {
		if math.IsNaN(pt.Loss) || math.IsInf(pt.Loss, 0) {
			ck.failf("non-finite training loss %v at iteration %d", pt.Loss, pt.Iter)
		}
	}
	if len(tr.curve) >= 2 {
		first, last := tr.curve[0], tr.curve[len(tr.curve)-1]
		if !(last.p5 > first.p5) {
			ck.failf("final P@5 %.4f does not beat the iteration-0 P@5 %.4f", last.p5, first.p5)
		}
	}
}

// trainFailed reports whether a training run counts all its iterations
// as failed operations: it returned an error or a non-finite loss.
func trainFailed(tr trainOut) bool {
	if tr.err != nil || tr.res == nil {
		return true
	}
	for _, pt := range tr.res.Curve.Points {
		if math.IsNaN(pt.Loss) || math.IsInf(pt.Loss, 0) {
			return true
		}
	}
	return false
}

// deltaTap is the traced run's loopback DeltaExchanger: a one-shard
// group that returns the local delta unchanged while timing the interval
// between consecutive exchanges (one training step), counting the
// delta's rows per layer, and capturing one delta for the apply replay.
type deltaTap struct {
	last      time.Time
	skip      bool
	stepMS    []float64
	stepAt    []int64 // step each stepMS entry ends at
	spans     []span
	rowSum    []float64
	deltas    int64
	captureAt int64
	captured  *core.SparseDelta
}

func (t *deltaTap) Shards() int { return 1 }

func (t *deltaTap) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	now := time.Now()
	if !t.last.IsZero() && !t.skip {
		t.stepMS = append(t.stepMS, ms(now.Sub(t.last)))
		t.stepAt = append(t.stepAt, step)
		t.spans = append(t.spans, span{Name: "core.step", ID: step, Start: t.last, End: now})
	}
	t.skip = false
	if t.rowSum == nil {
		t.rowSum = make([]float64, len(local.Layers))
	}
	for li := range local.Layers {
		t.rowSum[li] += float64(len(local.Layers[li].Rows))
	}
	t.deltas++
	if step == t.captureAt {
		t.captured = local.Clone()
		t.skip = true // the copy is benchmark work, not a training step
	}
	merged, err := core.MergeDeltas(nil, []*core.SparseDelta{local})
	t.last = now
	return merged, stop, err
}

// meanStepMS is the mean traced step time over the first n steps.
func (t *deltaTap) meanStepMS(n int64) float64 {
	var sum float64
	var k int
	for i, at := range t.stepAt {
		if at < n {
			sum += t.stepMS[i]
			k++
		}
	}
	return sum / float64(k)
}

// skipInterval drops the interval in progress from the step timings: an
// evaluation runs inside it.
func (t *deltaTap) skipInterval() { t.skip = true }
