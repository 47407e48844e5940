package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/sampling"
)

func init() {
	register(Experiment{
		ID:    "tables",
		Title: "Batched hash kernels and real rebuild drift (§4.2 updating overhead)",
		Run:   runTables,
	})
}

// runTables measures the two quantities that decide how table rebuilds
// should be built on the paper architecture:
//
//  1. per-family dense hash throughput, per-row HashDense vs the batched
//     block-wise HashDenseRows entry point every rebuild feeds;
//  2. the drift real training produces between rebuilds: the Delicious
//     workload trained with synchronous rebuilds, reporting per rebuild
//     the rows re-hashed, the output rows whose weights actually changed
//     since the previous rebuild, and the stall.
func runTables(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	sc, err := ScaleByName(opts.Scale)
	if err != nil {
		return nil, err
	}
	w, err := deliciousWorkload(opts, sc)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "tables", Title: "Hash kernels and per-rebuild drift"}
	rep.AddNote("workload %s: %d classes, Simhash K=%d L=%d, threads=%d", w.ds.Name, w.ds.NumClasses, w.k, sc.L, opts.Threads)
	rep.Tables = append(rep.Tables, runHashThroughput(opts, w, sc))

	drift, note, err := runRebuildDrift(opts, w)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, drift)
	rep.AddNote("%s", note)
	return rep, nil
}

// runHashThroughput compares the per-row dense hash entry point against
// the batched block kernel for every family, at the hidden width every
// sampled output layer actually hashes.
func runHashThroughput(opts Options, w *workload, sc ScaleSpec) Table {
	tab := Table{
		Title:  "dense hash throughput, per-row vs batched (higher is better)",
		Header: []string{"Family", "Per-row rows/s", "Batched rows/s", "Batched/per-row"},
	}
	const hashDim = 128 // hidden width feeding the sampled output layer
	const rows = 512
	block := make([]float32, rows*hashDim)
	rng := opts.Seed | 1
	for i := range block {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if rng%7 == 0 {
			continue // leave ~14% exact zeros, like ReLU activations
		}
		block[i] = float32(int32(uint32(rng))) / float32(1<<31)
	}
	for _, kind := range []lsh.Kind{lsh.KindSimhash, lsh.KindWTA, lsh.KindDWTA, lsh.KindDOPH} {
		fam, err := lsh.New(kind, lsh.Params{Dim: hashDim, K: w.k, L: sc.L, Seed: opts.Seed})
		if err != nil {
			continue // a family that rejects these params just drops out of the table
		}
		nf := fam.NumFuncs()
		out := make([]uint32, rows*nf)
		perRow := measureRowsPerSec(func() {
			for j := 0; j < rows; j++ {
				fam.HashDense(block[j*hashDim:(j+1)*hashDim], out[j*nf:(j+1)*nf])
			}
		}, rows)
		batched := measureRowsPerSec(func() {
			fam.HashDenseRows(block, rows, out)
		}, rows)
		tab.Rows = append(tab.Rows, []string{
			kind.String(),
			fmt.Sprintf("%.0f", perRow),
			fmt.Sprintf("%.0f", batched),
			fmt.Sprintf("%.2fx", batched/perRow),
		})
		opts.logf("tables: %s per-row %.0f rows/s, batched %.0f rows/s", kind, perRow, batched)
	}
	return tab
}

// runRebuildDrift trains the Delicious workload in segments of rebuildN0
// iterations, each ending on a synchronous rebuild, and after each one
// counts the output rows whose weights changed during the segment — the
// share of rows any per-row code cache would have had to re-hash.
func runRebuildDrift(opts Options, w *workload) (Table, string, error) {
	const rebuildN0, rebuilds = 10, 6
	cfg := w.slideConfig(opts, sampling.KindVanilla, hashtable.PolicyReservoir)
	cfg.RebuildN0 = rebuildN0
	cfg.RebuildLambda = 1e-9 // constant gap: every segment ends on a rebuild
	net, err := core.NewNetwork(cfg)
	if err != nil {
		return Table{}, "", err
	}
	out := net.Layer(net.NumLayers() - 1)
	prev := make([][]float32, out.Out())
	for j := range prev {
		prev[j] = slices.Clone(out.Weights(j))
	}

	tab := Table{
		Title:  "training with synchronous rebuilds (measured drift)",
		Header: []string{"Rebuild", "Rows rehashed", "Rows drifted", "Drift", "Stall"},
	}
	var drifted, rehashed int64
	for r := 0; r < rebuilds; r++ {
		tc := w.trainConfig(opts, opts.Threads)
		tc.Iterations = rebuildN0
		tc.EvalEvery = 0
		tc.SkipFinalEval = true
		tc.SyncRebuild = true // charge whole rebuilds to the stall clock
		tc.Seed = opts.Seed + uint64(r)
		res, err := net.Train(w.ds.Train, w.ds.Test, tc)
		if err != nil {
			return Table{}, "", err
		}
		changed := 0
		for j := range prev {
			if row := out.Weights(j); !slices.Equal(row, prev[j]) {
				changed++
				copy(prev[j], row)
			}
		}
		drifted += int64(changed)
		rehashed += res.RowsRehashed
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", r+1),
			fmt.Sprintf("%d", res.RowsRehashed),
			fmt.Sprintf("%d", changed),
			fmt.Sprintf("%.1f%%", 100*float64(changed)/float64(out.Out())),
			fmt.Sprintf("%.2f ms", float64(res.RebuildStallNS)/1e6),
		})
		opts.logf("tables: rebuild %d drifted %d of %d rows", r+1, changed, out.Out())
	}
	note := fmt.Sprintf("training drift: %.1f%% of output rows changed between rebuilds (N0=%d, %d rebuilds, %d rows re-hashed)",
		100*float64(drifted)/float64(rebuilds*out.Out()), rebuildN0, rebuilds, rehashed)
	return tab, note, nil
}

// measureRowsPerSec times fn (which processes rows rows per call) over
// enough repetitions to fill ~20ms and returns the row throughput.
func measureRowsPerSec(fn func(), rows int) float64 {
	fn() // warm
	var reps int
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		fn()
		reps++
	}
	return float64(rows*reps) / time.Since(t0).Seconds()
}
