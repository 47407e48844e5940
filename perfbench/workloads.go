package main

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/sampling"
)

// workload is one benchmark scenario: a synthetic dataset profile, the
// SLIDE network and training configuration trained on it, and the
// request rates its trained model is then served at.
type workload struct {
	name    string
	profile func(seed uint64) dataset.Profile
	// Output-layer LSH configuration.
	hash     lsh.Kind
	rangePow int
	beta     int
	// Training budget: a fixed iteration count, so quality is compared
	// at equal work and speed shows only in the clock metrics.
	batch int
	iters int64
	// curveFrom is the first iteration scored on the time-to-accuracy
	// curve (earlier points only cost evaluation time: the target is
	// crossed in the run's second half).
	curveFrom int64
	// targetP5 is the P@5 whose time to reach is printed with the result.
	targetP5 float64
	// Open-loop request rates (requests/s): about 30% and 80% of the
	// capacity measured on a 2-vCPU Xeon VM with client and server
	// sharing its cores.
	lowRPS, highRPS float64
}

const (
	hiddenSize  = 128
	evalEvery   = 50   // iterations between evaluation points
	evalSamples = 1024 // fixed held-out subset behind every P@k
	initSamples = 256  // subset behind the iteration-0 P@k, near zero
	setupReps   = 3    // set-up repetitions; setup_s takes their median
	baseIters   = 100  // untraced steps behind trace.overhead_frac
	threads     = 2    // training workers, client connections
)

var workloads = map[string]*workload{
	// Wide sparse inputs with many labels: the hidden layer's scatter
	// kernel and its delta/Adam over touched input columns carry each
	// step; the 10K-row output layer is cheap to probe and rebuild.
	"delicious": {
		name:      "delicious",
		profile:   func(seed uint64) dataset.Profile { return dataset.Delicious200K(0.05, seed) },
		hash:      lsh.KindSimhash,
		rangePow:  8,
		beta:      205,
		batch:     128,
		iters:     500,
		curveFrom: 300,
		targetP5:  0.10,
		lowRPS:    140,
		highRPS:   370,
	},
	// The paper's Fig. 5 shape: a 33.5K-class output layer dominates,
	// so every example pays the LSH probe and sampling, output rows need
	// delta/Adam, and rebuilds re-hash every output row.
	"amazon": {
		name:      "amazon",
		profile:   func(seed uint64) dataset.Profile { return dataset.Amazon670K(0.05, seed) },
		hash:      lsh.KindDWTA,
		rangePow:  10,
		beta:      335,
		batch:     256,
		iters:     300,
		curveFrom: 250,
		targetP5:  0.012,
		lowRPS:    145,
		highRPS:   385,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// networkConfig is the workload's SLIDE network: one 128-unit ReLU
// hidden layer and an LSH-sampled softmax output layer (vanilla
// sampling over reservoir buckets, K=8, L=50), trained with Adam at
// lr 1e-3 and the paper's rebuild period N0=50.
func (w *workload) networkConfig(ds *dataset.Dataset, seed uint64) core.Config {
	return core.Config{
		InputDim:  ds.InputDim,
		Seed:      seed,
		RebuildN0: 50,
		Layers: []core.LayerConfig{
			{Size: hiddenSize, Activation: core.ActReLU},
			{
				Size:       ds.NumClasses,
				Activation: core.ActSoftmax,
				Sampled:    true,
				Hash:       w.hash,
				K:          8,
				L:          50,
				RangePow:   w.rangePow,
				Policy:     hashtable.PolicyReservoir,
				Strategy:   sampling.KindVanilla,
				Beta:       w.beta,
				MinCount:   2,
			},
		},
	}
}
