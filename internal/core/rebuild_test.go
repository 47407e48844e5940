package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestShadowBuildMatchesSyncRebuild is the async-vs-sync equivalence
// proof: from one weight snapshot and one generation, a shadow built on a
// background goroutine is bucket-for-bucket identical to one built
// inline — and both match a build straight from the live rows while the
// weights are quiesced. This is what makes the background lifecycle a
// pure scheduling change: the tables training ends up with are the same
// tables a stop-the-world rebuild of the same snapshot would have
// produced.
func TestShadowBuildMatchesSyncRebuild(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	// Train a little so the weights (and thus the codes) are non-trivial.
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 20, Seed: 2, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	l := n.layers[1]
	const gen = 7

	snap := l.snapshotRows(1)
	inline := l.buildShadow(gen, snap, 1)

	bgShadow := inline
	bg := make(chan struct{})
	go func() {
		bgShadow = l.buildShadow(gen, snap, 3)
		close(bg)
	}()
	<-bg
	if !inline.Equal(bgShadow) {
		t.Fatal("background shadow build diverged from inline build of the same snapshot and generation")
	}

	// With the weights quiesced, hashing the live rows in place — what
	// the synchronous path does — matches the snapshot build.
	live := l.buildShadow(gen, nil, 2)
	if !inline.Equal(live) {
		t.Fatal("live-row build diverged from snapshot build with quiesced weights")
	}

	// A different generation draws different reservoir streams; it may
	// only coincide when no bucket ever overflowed, so don't assert
	// inequality — just that it builds and stores every neuron.
	other := l.buildShadow(gen+1, snap, 1)
	if got, want := other.Stats().TotalSeen, l.Tables().L()*l.out; got != want {
		t.Fatalf("generation %d shadow saw %d insertions, want %d", gen+1, got, want)
	}
}

// TestAsyncRebuildPublishes runs the scheduler end to end: a training run
// on the default (non-blocking) lifecycle must kick background builds,
// publish them at batch boundaries, account overlapped build time, and
// leave the network fully servable.
func TestAsyncRebuildPublishes(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 5
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := n.layers[1].Tables()
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 40, Seed: 3, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds == 0 {
		t.Fatal("no rebuilds published in 40 iterations with N0=5")
	}
	if res.RebuildBuildNS <= 0 {
		t.Fatalf("async run recorded no overlapped build time (rebuilds=%d)", res.Rebuilds)
	}
	after := n.layers[1].Tables()
	if before == after {
		t.Fatal("table handle still points at the construction-time set after published rebuilds")
	}
	if after.Stats().TotalStored == 0 {
		t.Fatal("published tables are empty")
	}
	if n.pending != nil {
		t.Fatal("Train returned with a background build still pending")
	}
	if _, _, err := n.PredictSampled(ds.Test[0].Features, 3); err != nil {
		t.Fatal(err)
	}

	// The sync mode still works and charges whole rebuilds as stall.
	nSync, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resSync, err := nSync.Train(ds.Train, ds.Test, TrainConfig{
		Iterations: 40, Seed: 3, EvalEvery: 0, SyncRebuild: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resSync.Rebuilds == 0 || resSync.RebuildStallNS <= 0 {
		t.Fatalf("sync run: rebuilds=%d stall=%dns", resSync.Rebuilds, resSync.RebuildStallNS)
	}
	if resSync.RebuildBuildNS != 0 {
		t.Fatalf("sync run recorded overlapped build time: %dns", resSync.RebuildBuildNS)
	}
}

// TestAsyncRebuildRaceStress is the -race proof for the non-blocking
// lifecycle. Each cycle first trains with background rebuilds perpetually
// in flight (N0=1 re-arms the schedule every batch boundary, so detached
// builds overlap HOGWILD weight writes), then — with the weights
// quiesced — kicks another background build and publishes it while a
// shared Predictor hammers sampled and exact queries, so the atomic table
// swap lands in the middle of live traffic.
//
// The one overlap deliberately kept out is predictor weight reads
// concurrent with training weight writes: that is the paper's HOGWILD
// weak-consistency design, racy on purpose and predating this lifecycle,
// and the detector would (correctly) report it. Everything this PR adds —
// snapshot-fed builds racing training, swap publication racing readers —
// runs concurrently here and must stay silent under -race.
func TestAsyncRebuildRaceStress(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 1
	cfg.RebuildLambda = 1e-9 // keep the gap at ~1 iteration all run
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}

	cycles := 3
	if testing.Short() {
		cycles = 1
	}
	totalRebuilds := 0
	for cycle := 0; cycle < cycles; cycle++ {
		// Phase 1: background builds in flight across training batches.
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 12, BatchSize: 32, Seed: uint64(7 + cycle), EvalEvery: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		totalRebuilds += res.Rebuilds

		// Phase 2: weights quiesced; a fresh background build runs and is
		// published while concurrent predictions are in full flight.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					x := ds.Test[(g*37+i)%len(ds.Test)].Features
					var err error
					if i%2 == 0 {
						_, _, err = p.PredictSampled(x, 3)
					} else {
						_, _, err = p.Predict(x, 3)
					}
					if err != nil {
						t.Errorf("predictor %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		n.startBackgroundRebuild(2)
		n.finishPendingRebuild() // publish the swap under live traffic
		totalRebuilds++
		close(stop)
		wg.Wait()
	}
	if totalRebuilds < cycles*2 {
		t.Fatalf("stress run published only %d rebuilds", totalRebuilds)
	}
	// Serving must still be coherent after the dust settles.
	if _, err := n.Evaluate(ds.Test, 100, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRestorePathsShareTableGeneration pins the replica-to-replica
// determinism guarantee against the generation counter: restoring the
// same weights via v1 Load (into a freshly constructed network that
// already consumed generation 1 building its random-init tables) and via
// v2 LoadModel must produce bucket-for-bucket identical table sets —
// both paths rebuild at generation 1.
func TestRestorePathsShareTableGeneration(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	// BucketSize 2 forces reservoir churn so generation mismatches show.
	cfg := tinyConfig(classes)
	cfg.Layers[1].BucketSize = 2
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 20, Seed: 6, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := n.Save(&v1); err != nil {
		t.Fatal(err)
	}
	if err := n.SaveModel(&v2); err != nil {
		t.Fatal(err)
	}

	viaLoad, err := NewNetwork(cfg) // construction build consumes a generation
	if err != nil {
		t.Fatal(err)
	}
	if err := viaLoad.Load(&v1); err != nil {
		t.Fatal(err)
	}
	viaLoadModel, err := LoadModel(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if !viaLoad.layers[1].Tables().Equal(viaLoadModel.layers[1].Tables()) {
		t.Fatal("v1 Load and v2 LoadModel rebuilt different tables from identical weights (generation mismatch)")
	}
}

// TestRestoreRebuildMatchesFromScratch: a bulk weight restore must leave
// tables bucket-for-bucket equal to a from-scratch build of the restored
// weights.
func TestRestoreRebuildMatchesFromScratch(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 1 << 30
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 4, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Drift the weights past the save, then restore.
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 5, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.Load(&buf); err != nil {
		t.Fatal(err)
	}
	l := n.layers[1]
	cur := l.Tables()
	full := cur.Shadow(n.rebuildGen)
	l.insertAll(full, func(j int) []float32 { return l.w[j] }, 2)
	if !cur.Equal(full) {
		t.Fatal("tables after restore diverged from a from-scratch build of the restored weights")
	}
}

// TestRebuildSteadyStateAllocs pins the allocation budget of a
// steady-state synchronous rebuild (the CI allocation gate). After the
// first rebuild warms the per-layer code buffer, each further rebuild
// allocates only the fresh shadow table set itself — O(L) small objects
// plus its arena slab — never O(rows) code scratch. And the synchronous
// path — construction, SyncRebuild training, RebuildTables, LoadModel —
// hashes live rows in place, never allocating the out*in weight snapshot
// background builds copy into: that copy would double the sampled
// layer's weight memory in every serving process.
func TestRebuildSteadyStateAllocs(t *testing.T) {
	classes := 4096
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.Layers[0].Size = 256 // 4096x256 fp32 snapshot = 4 MiB
	cfg.Layers[1].BucketSize = 8
	cfg.RebuildN0 = 4
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
		Iterations: 8, Seed: 2, EvalEvery: 0, SkipFinalEval: true, SyncRebuild: true,
	}); err != nil {
		t.Fatal(err)
	}
	n.RebuildTables(1) // warm the rebuild scratch
	allocs := testing.AllocsPerRun(5, func() { n.RebuildTables(1) })
	// Budget: the shadow Table (struct, arena, one slab, L insert RNGs)
	// for the sampled layer, plus small constant overhead. L=16 here, so
	// anything O(rows)=4096 would blow far past the bound.
	if allocs > 64 {
		t.Fatalf("steady-state rebuild allocated %.0f objects; want <= 64 (O(L) shadow-table setup only)", allocs)
	}

	l := n.layers[1]
	if l.snapBuf != nil {
		t.Fatal("synchronous rebuilds allocated the weight snapshot buffer")
	}
	snapBytes := uint64(l.out) * uint64(l.in) * 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.RebuildTables(1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= snapBytes/2 {
		t.Fatalf("synchronous rebuild allocated %d bytes; an out*in snapshot is %d", got, snapBytes)
	}

	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.layers[1].snapBuf != nil {
		t.Fatal("LoadModel allocated the weight snapshot buffer")
	}
}
