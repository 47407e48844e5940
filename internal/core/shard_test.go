package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/optim"
)

// TestShardedBackwardMatchesLegacyBitwise is the sharded backward's
// anchor: a single-worker HOGWILD run whose gradients land in per-worker
// shards must leave weights, biases, Adam moments and the extracted cell
// count bit-for-bit equal to the adam/sharded-hogwild engine golden — the
// digest the shared-buffer backward produced for the same run. Layer 0
// exercises the sparse-column shard storage (wide fan-in, sparse input)
// and layer 1 the dense arena rows (narrow fan-in, dense input).
func TestShardedBackwardMatchesLegacyBitwise(t *testing.T) {
	t.Run(optim.ModeHogwild.String(), func(t *testing.T) {
		n := adamGoldenRun(t, KernelGather, 4)
		if n.touchedWeights == 0 {
			t.Fatal("no gradient cells were applied; test is vacuous")
		}
		requireEngineGolden(t, "adam/sharded-hogwild", netStateDigest(n))
	})
}

// TestBatchSyncShardedMatchesLegacyReplay: the id-sharded BatchSync replay
// into backShards must extract the batchsync/replay engine golden — the
// delta the shared-buffer replay produced for the same records. Replaying
// the same records into the consumed shards must extract it again, both
// within the same batch epoch (no beginBatch in between) and in the next
// batch.
func TestBatchSyncShardedMatchesLegacyReplay(t *testing.T) {
	n, records := batchSyncGoldenRecords(t)
	n.accumulateBatchSync(records, 3)
	first := n.ExtractDelta(nil, 2).Clone()
	if first.Cells() == 0 {
		t.Fatal("empty delta; test is vacuous")
	}
	requireEngineGolden(t, "batchsync/replay", deltaDigest(first))

	n.accumulateBatchSync(records, 3)
	if again := n.ExtractDelta(nil, 2); !reflect.DeepEqual(first, again) {
		t.Fatal("replaying the same records in the same batch epoch extracted a different delta")
	}
	n.beginBatch()
	n.accumulateBatchSync(records, 3)
	if again := n.ExtractDelta(nil, 2); !reflect.DeepEqual(first, again) {
		t.Fatal("replaying the same records in the next batch extracted a different delta")
	}
}

// TestBatchSyncShardedThreadCountInvariant: with id-sharded replay each
// neuron row lives in exactly one shard and sees the records in record
// order, so the extracted delta must be bit-identical for any worker
// count.
func TestBatchSyncShardedThreadCountInvariant(t *testing.T) {
	const classes = 96
	ds := deltaTestDataset(t, classes)
	baseCfg := deltaTestConfig(classes, optim.ModeBatchSync)

	extractWith := func(workers int) *SparseDelta {
		n := mustNet(t, baseCfg)
		st := mustState(t, n, 42)
		const batchSize = 24
		batch := ds.Train[:batchSize]
		records := make([]*elemRecord, batchSize)
		for i := range records {
			records[i] = &elemRecord{}
		}
		n.beginBatch()
		for i := range batch {
			n.forwardElem(st, batch[i].Features, batch[i].Labels, modeTrain)
			n.backwardElem(st, batch[i].Features, batch[i].Labels, records[i])
		}
		n.accumulateBatchSync(records, workers)
		return n.ExtractDelta(nil, 2).Clone()
	}

	ref := extractWith(1)
	if ref.Cells() == 0 {
		t.Fatal("empty delta; test is vacuous")
	}
	for _, workers := range []int{2, 3, 7} {
		if got := extractWith(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("BatchSync delta with %d workers differs from 1 worker", workers)
		}
	}
}

// TestShardedHogwildStressWithRebuilds drives the sharded backward with
// many workers while background table rebuilds are continuously in flight
// — the -race stress the CI race step runs. Correctness here is "no race
// reports and the network still learns to extract non-empty deltas"; the
// numeric equivalence is covered by the bitwise tests above.
func TestShardedHogwildStressWithRebuilds(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, mode := range []optim.UpdateMode{optim.ModeHogwild, optim.ModeBatchSync} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := deltaTestConfig(classes, mode)
			cfg.RebuildN0 = 5 // keep shadow builds overlapping the batches
			cfg.RebuildLambda = 0.01
			n := mustNet(t, cfg)
			res, err := n.Train(ds.Train, ds.Test, TrainConfig{
				BatchSize:  32,
				Iterations: 40,
				Threads:    8,
				Seed:       3,
			})
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			if res.TouchedPerIter == 0 {
				t.Fatal("no gradient cells extracted under concurrency")
			}
			if res.Rebuilds == 0 {
				t.Fatal("no rebuilds happened; stress test is vacuous")
			}
		})
	}
}

// TestShardSetReuseAcrossTrainCalls: repeated Train calls on one network
// must reuse the per-worker shard sets rather than grow the registry.
func TestShardSetReuseAcrossTrainCalls(t *testing.T) {
	const classes = 64
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes, optim.ModeHogwild))
	tc := TrainConfig{BatchSize: 16, Iterations: 4, Threads: 3, Seed: 5}
	for i := 0; i < 3; i++ {
		if _, err := n.Train(ds.Train, ds.Test, tc); err != nil {
			t.Fatalf("Train %d: %v", i, err)
		}
	}
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	if len(n.workerShards) != 3 {
		t.Fatalf("expected 3 worker shard sets after 3 runs at 3 threads, got %d", len(n.workerShards))
	}
	for li := range n.layerShards {
		if len(n.layerShards[li]) != 3 {
			t.Fatalf("layer %d has %d registered shards, want 3", li, len(n.layerShards[li]))
		}
	}
}

// TestBF16MirrorForwardTolerance: a bf16-mirror network's scatter forward
// must agree with the fp32 network within bf16 rounding — each streamed
// weight carries at most 2⁻⁸ relative error, so activations built from
// them stay within a small multiple of that.
func TestBF16MirrorForwardTolerance(t *testing.T) {
	const classes = 64
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes, optim.ModeHogwild)
	cfg.Kernels = KernelScatter
	f32 := mustNet(t, cfg)
	cfgB := cfg
	cfgB.MirrorFormat = MirrorBF16
	b16 := mustNet(t, cfgB)

	stF := mustState(t, f32, 7)
	stB := mustState(t, b16, 7)
	for i := 0; i < 32; i++ {
		ex := &ds.Train[i]
		f32.forwardElem(stF, ex.Features, ex.Labels, modeTrain)
		b16.forwardElem(stB, ex.Features, ex.Labels, modeTrain)
		a, b := stF.layers[0].vals, stB.layers[0].vals
		if len(a) != len(b) {
			t.Fatalf("example %d: hidden widths differ: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			diff := math.Abs(float64(a[j] - b[j]))
			scale := math.Max(1, math.Abs(float64(a[j])))
			if diff > 1e-2*scale {
				t.Fatalf("example %d neuron %d: fp32 %g vs bf16-mirror %g", i, j, a[j], b[j])
			}
		}
	}
}
