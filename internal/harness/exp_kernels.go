package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/sampling"
)

func init() {
	register(Experiment{
		ID:    "kernels",
		Title: "Density-adaptive kernel engine vs forced gather (MLSys'21 vectorization analog)",
		Run:   runKernels,
	})
}

// runKernels measures what the scatter form buys on the paper's operating
// point: the Delicious workload trained and served once with every pass
// forced to the gather form and once with the density-adaptive engine
// (scatter wherever a mirrored layer's input is sparse enough), identical
// seeds and schedules. Reported per mode: training-loop throughput, exact
// (full forward) evaluation throughput, sampled single-query latency,
// accuracy (the engine must not trade it away), and the engine's per-form
// decision counts — the density-regime breakdown behind the crossover.
// Each mode runs once, so every number is a single sample. This
// experiment's JSON output (slide-bench -exp kernels -json
// BENCH_kernels.json) seeds the repo's performance trajectory.
func runKernels(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	sc, err := ScaleByName(opts.Scale)
	if err != nil {
		return nil, err
	}
	w, err := deliciousWorkload(opts, sc)
	if err != nil {
		return nil, err
	}
	iters := 2 * sc.EvalEvery
	const sampledQueries = 400

	type modeResult struct {
		name      string
		train     *core.TrainResult
		evalPerS  float64
		evalP1    float64
		sampledUS float64
		crossover float64
	}
	run := func(name string, km core.KernelMode) (*modeResult, error) {
		cfg := w.slideConfig(opts, sampling.KindVanilla, hashtable.PolicyReservoir)
		cfg.Kernels = km
		net, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		tc := w.trainConfig(opts, opts.Threads)
		tc.Iterations = iters
		tc.EvalEvery = 0
		opts.logf("kernels: %s training (%d iterations, threads=%d)", name, iters, opts.Threads)
		tr, err := net.Train(w.ds.Train, w.ds.Test, tc)
		if err != nil {
			return nil, err
		}

		evalN := min(len(w.ds.Test), sc.EvalSamples)
		t0 := core.Now()
		ev, err := net.Evaluate(w.ds.Test, evalN, opts.Threads, 1)
		if err != nil {
			return nil, err
		}
		evalSec := core.Now().Sub(t0).Seconds()

		pred, err := net.NewPredictor()
		if err != nil {
			return nil, err
		}
		nq := min(sampledQueries, len(w.ds.Test))
		t0 = core.Now()
		for q := 0; q < nq; q++ {
			if _, _, err := pred.PredictSampled(w.ds.Test[q].Features, 5); err != nil {
				return nil, err
			}
		}
		sampledSec := core.Now().Sub(t0).Seconds()

		r := &modeResult{
			name:      name,
			train:     tr,
			evalP1:    ev.P1,
			sampledUS: sampledSec / float64(nq) * 1e6,
			crossover: net.KernelPolicy().ScatterMaxDensity,
		}
		if evalSec > 0 {
			r.evalPerS = float64(ev.N) / evalSec
		}
		opts.logf("kernels: %s train %.1f iter/s, eval %.0f ex/s, sampled %.0f µs/query, P@1=%.3f",
			name, float64(tr.Iterations)/tr.Seconds, r.evalPerS, r.sampledUS, ev.P1)
		return r, nil
	}

	gather, err := run("gather", core.KernelGather)
	if err != nil {
		return nil, err
	}
	auto, err := run("auto", core.KernelAuto)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "kernels", Title: "Forward kernel engine: forced gather vs density-adaptive gather/scatter"}
	rep.AddNote("workload %s (%d features, %d classes), %d iterations, batch %d, beta %d, threads %d; one run per mode, so every number is a single sample",
		w.ds.Name, w.ds.InputDim, w.ds.NumClasses, iters, w.batch, w.beta, opts.Threads)
	rep.AddNote("gather = every pass in the sorted-gather form with fused dot+bias+ReLU; auto = density-adaptive engine (scatter on the mirrored 128-wide hidden layer, gather elsewhere)")

	inputDensity := meanInputDensity(w.ds.Train, w.ds.InputDim)
	rep.AddNote("mean input density %.4f%% (%.0f of %d features); auto's gather/scatter crossover %.1f%% (default %.0f%%)",
		100*inputDensity, inputDensity*float64(w.ds.InputDim), w.ds.InputDim, 100*auto.crossover, 100*kernels.DefaultScatterMaxDensity)

	perf := Table{
		Title:  "hot-path throughput",
		Header: []string{"Engine", "Train iter/s", "Train s", "Exact eval ex/s", "Sampled µs/query", "Final P@1", "Eval P@1"},
	}
	for _, r := range []*modeResult{gather, auto} {
		perf.Rows = append(perf.Rows, []string{
			r.name,
			fmtF(float64(r.train.Iterations)/r.train.Seconds, 2),
			fmtF(r.train.Seconds, 2),
			fmtF(r.evalPerS, 0),
			fmtF(r.sampledUS, 1),
			fmtF(r.train.FinalAcc, 3),
			fmtF(r.evalP1, 3),
		})
	}
	rep.Tables = append(rep.Tables, perf)

	forms := Table{
		Title:  "forward kernel forms (counts per (layer, element) pass)",
		Header: []string{"Engine", "gather", "scatter"},
	}
	for _, r := range []*modeResult{gather, auto} {
		forms.Rows = append(forms.Rows, []string{
			r.name,
			fmt.Sprintf("%d", r.train.KernelForwards["gather"]),
			fmt.Sprintf("%d", r.train.KernelForwards["scatter"]),
		})
	}
	rep.Tables = append(rep.Tables, forms)

	if gather.train.Seconds > 0 && auto.train.Seconds > 0 {
		rep.AddNote("auto vs gather (single sample each): training %.2fx, exact eval %.2fx, sampled query %.2fx",
			gather.train.Seconds/auto.train.Seconds,
			safeRatio(auto.evalPerS, gather.evalPerS),
			safeRatio(gather.sampledUS, auto.sampledUS))
	}
	return rep, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanInputDensity is the measured density the engine's crossover acts
// on: mean nonzeros per training example over the feature dimension.
func meanInputDensity(train []dataset.Example, dim int) float64 {
	if len(train) == 0 || dim == 0 {
		return 0
	}
	var nnz int64
	for i := range train {
		nnz += int64(len(train[i].Features.Idx))
	}
	return float64(nnz) / float64(len(train)) / float64(dim)
}
