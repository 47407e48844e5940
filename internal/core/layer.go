package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/rng"
)

// Layer is one fully connected layer: neuron-major weight rows, biases,
// Adam moments, and — when sampled — the LSH family plus (K, L) hash
// tables holding neuron ids keyed by their weight vectors (§3.1, Fig. 2).
type Layer struct {
	idx int // position in the network, for diagnostics
	in  int // fan-in (previous layer size or InputDim)
	out int // neuron count
	cfg LayerConfig

	// w[j] is neuron j's weight row (length in); mW/vW are the aligned
	// Adam moments. Depending on Config.Layout the rows live in shared
	// arena slabs or in one allocation per neuron. Batch gradients live
	// in the workers' backShards, not here.
	w  [][]float32
	mW [][]float32
	vW [][]float32
	// b, mB, vB are biases and their moments.
	b  []float32
	mB []float32
	vB []float32

	// touched[j] == batchEpoch marks neuron j as having accumulated
	// gradient this batch; colStamp (nil for small fan-in layers) marks
	// touched input columns the same way. Only extractSharded writes
	// them, at the quiesced batch boundary, from the shards' row and
	// column lists, and it clears them again once the shards are consumed.
	touched    []uint32
	colStamp   []uint32
	colList    []int32 // scratch for the per-batch touched-column list
	rowList    []int32 // scratch for the per-batch touched-row list
	batchEpoch uint32

	// fam and tables implement the adaptive sampling; nil for dense
	// layers. tables is a swappable handle: rebuilds construct a detached
	// shadow table set and publish it atomically, so forward passes and
	// Predictor queries stay valid mid-rebuild on whichever set they
	// loaded.
	fam    lsh.Family
	tables *hashtable.Handle

	// mirror is the column-major weight mirror the scatter-form forward
	// kernel streams (nil when the layer never scatters: sampled layers
	// and layers whose input is always dense). Derived state: ApplyDelta
	// dual-writes stepped cells and bulk weight restores call
	// refreshMirror. The same one-resident-copy trade snapBuf makes,
	// spent on forward speed instead of off-critical-path rebuilds.
	mirror *kernels.Mirror

	// snapBuf is the reusable weight-snapshot buffer for background
	// rebuilds. At most one rebuild is in flight per network (the train
	// loop owns the pending build), so the buffer is free for reuse by
	// the time the next snapshot runs. It trades one resident weight copy
	// per trained sampled layer for not allocating out*in floats of
	// garbage on every rebuild; networks that only ever rebuild
	// synchronously (construction, LoadModel, serving) never allocate it.
	snapBuf []float32
	// codesBuf is the rebuildChunk*NumFuncs code scratch every build
	// hashes into, reused across generations under the same
	// one-rebuild-in-flight guarantee snapBuf relies on.
	codesBuf []uint32
}

// newLayer builds an initialized layer. Weight initialization is He-style
// for ReLU layers and Xavier-style otherwise, from the network seed.
func newLayer(idx, in int, cfg LayerConfig, netCfg Config, ar *arena.Arena, seed uint64) (*Layer, error) {
	l := &Layer{idx: idx, in: in, out: cfg.Size, cfg: cfg}
	switch netCfg.Layout {
	case LayoutContiguous:
		l.w = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.mW = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.vW = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.b = ar.AllocAligned(cfg.Size)
		l.mB = ar.AllocAligned(cfg.Size)
		l.vB = ar.AllocAligned(cfg.Size)
	case LayoutPerNeuron:
		l.w = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.mW = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.vW = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.b = make([]float32, cfg.Size)
		l.mB = make([]float32, cfg.Size)
		l.vB = make([]float32, cfg.Size)
	default:
		return nil, fmt.Errorf("core: unknown layout %v", netCfg.Layout)
	}
	l.touched = make([]uint32, cfg.Size)
	if in > colTrackThreshold {
		l.colStamp = make([]uint32, in)
	}

	std := float32(math.Sqrt(2.0 / float64(in))) // He init for ReLU
	if cfg.Activation != ActReLU {
		std = float32(math.Sqrt(1.0 / float64(in)))
	}
	r := rng.NewStream(seed, uint64(idx)+0x1a7e4)
	for j := 0; j < cfg.Size; j++ {
		row := l.w[j]
		for i := range row {
			row[i] = std * r.NormFloat32()
		}
	}

	if cfg.Sampled {
		fam, err := lsh.New(cfg.Hash, lsh.Params{
			Dim:            in,
			K:              cfg.K,
			L:              cfg.L,
			Seed:           seed ^ uint64(idx)*0x9e3779b97f4a7c15,
			SimhashDensity: cfg.SimhashDensity,
			BinSize:        cfg.BinSize,
			TopK:           cfg.TopK,
		})
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", idx, err)
		}
		l.fam = fam
		tables, err := hashtable.New(hashtable.Config{
			K:          cfg.K,
			L:          cfg.L,
			CodeBits:   fam.CodeBits(),
			RangePow:   cfg.RangePow,
			BucketSize: cfg.BucketSize,
			Policy:     cfg.Policy,
			Seed:       seed ^ (uint64(idx)+1)*0x517cc1b727220a95,
		})
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", idx, err)
		}
		l.tables = hashtable.NewHandle(tables)
	}
	return l, nil
}

// mirrorMaxOut caps the width of layers that maintain a column-major
// weight mirror. The mirror doubles the layer's weight memory, which is
// cheap for the paper architecture's narrow hidden layers (128 neurons)
// and prohibitive for the wide sampled output layer — whose ~0.5% active
// fraction makes the gather form right anyway.
const mirrorMaxOut = 4096

// initMirror builds the layer's column-major mirror when the scatter form
// can ever be selected for it: the layer computes its full output every
// pass (not sampled), is narrow enough for the doubled weight memory, and
// sparseIn reports that its input can arrive sparse (the first layer's
// example features, or a preceding sampled layer's active set). The
// mirror's cells are stored in format (fp32 exact or bf16 quantized) and
// its slab comes from the network arena, cache-line aligned.
func (l *Layer) initMirror(sparseIn bool, format kernels.MirrorFormat, ar *arena.Arena) {
	if l.Sampled() || !sparseIn || l.out > mirrorMaxOut {
		return
	}
	l.mirror = kernels.NewMirrorFormat(l.in, l.out, format, ar)
	l.mirror.Rebuild(l.w)
}

// refreshMirror re-derives the mirror after a bulk weight restore.
func (l *Layer) refreshMirror() {
	if l.mirror != nil {
		l.mirror.Rebuild(l.w)
	}
}

// In returns the layer fan-in.
func (l *Layer) In() int { return l.in }

// Out returns the neuron count.
func (l *Layer) Out() int { return l.out }

// Sampled reports whether the layer uses LSH sampling.
func (l *Layer) Sampled() bool { return l.tables != nil }

// Tables exposes the layer's current hash table set (nil for dense
// layers), for diagnostics and experiments. During a background rebuild
// the returned set is the last published one; it stays valid after a
// swap.
func (l *Layer) Tables() *hashtable.Table {
	if l.tables == nil {
		return nil
	}
	return l.tables.Load()
}

// Weights returns neuron j's weight row. The row aliases live training
// state.
func (l *Layer) Weights(j int) []float32 { return l.w[j] }

// Bias returns neuron j's bias.
func (l *Layer) Bias(j int) float32 { return l.b[j] }

// rebuildChunk is the number of neurons hashed per parallel rebuild chunk;
// it bounds the transient code-matrix memory at chunk*K*L*4 bytes.
const rebuildChunk = 4096

// Table lifecycle (§4.2 "Updating Overhead", made non-blocking): a
// rebuild never mutates the live table set. It hashes and inserts every
// neuron into a detached generation-seeded shadow set, then publishes the
// shadow with one atomic handle store. A background build first copies
// the weights into a snapshot at a batch boundary — the only step that
// needs training quiesced — so hashing runs concurrently with HOGWILD
// weight writes and live Predictor traffic. A synchronous build hashes
// the live rows in place instead: with no concurrent writers the result
// is identical, and it never needs the out*in snapshot.

// rebuildSync builds the generation-gen shadow from the live rows inline
// and publishes it.
func (l *Layer) rebuildSync(gen uint64, workers int) {
	if l.tables == nil {
		return
	}
	l.tables.Store(l.buildShadow(gen, nil, workers))
}

// snapshotRows copies every neuron's weight row into the layer's flat
// out*in snapshot buffer, parallelized across workers. It must run at a
// batch boundary (training workers quiesced): the copy is then the only
// part of an asynchronous rebuild that reads live weights, which keeps
// the detached build race-free against HOGWILD writers by construction —
// and it is the only synchronous cost the async lifecycle leaves in the
// training loop, so it is one parallel pass with a single join and no
// steady-state allocation.
func (l *Layer) snapshotRows(workers int) []float32 {
	if l.snapBuf == nil {
		l.snapBuf = make([]float32, l.out*l.in)
	}
	snap := l.snapBuf
	parallelRange(workers, l.out, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			copy(snap[j*l.in:(j+1)*l.in], l.w[j])
		}
	})
	return snap
}

// buildShadow constructs the generation-gen shadow table set without
// publishing it, hashing snap block-wise when non-nil and the live weight
// rows when nil. Building from a snapshot touches no live training state,
// so it may run on a background goroutine while training and inference
// continue on the published set.
func (l *Layer) buildShadow(gen uint64, snap []float32, workers int) *hashtable.Table {
	shadow := l.tables.Load().Shadow(gen)
	if snap != nil {
		l.insertAllBlock(shadow, snap, workers)
	} else {
		l.insertAll(shadow, func(j int) []float32 { return l.w[j] }, workers)
	}
	return shadow
}

// codesScratch returns the layer's reusable rebuildChunk*nf code buffer.
func (l *Layer) codesScratch(nf int) []uint32 {
	if len(l.codesBuf) < rebuildChunk*nf {
		l.codesBuf = make([]uint32, rebuildChunk*nf)
	}
	return l.codesBuf
}

// insertAll hashes all rows in chunks and inserts them into dst. Hashing
// parallelizes over neurons and insertion over tables, exactly the two
// lock-free axes §3.1 identifies.
func (l *Layer) insertAll(dst *hashtable.Table, row func(j int) []float32, workers int) {
	if workers < 1 {
		workers = 1
	}
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < l.out; base += rebuildChunk {
		n := min(rebuildChunk, l.out-base)
		parallelRange(workers, n, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				l.fam.HashDense(row(base+r), codes[r*nf:(r+1)*nf])
			}
		})
		insertChunk(dst, uint32(base), n, nf, codes, workers)
	}
}

// insertAllBlock is insertAll over a contiguous row-major weight block,
// which lets the hash phase run block-wise through HashDenseRows.
func (l *Layer) insertAllBlock(dst *hashtable.Table, block []float32, workers int) {
	if workers < 1 {
		workers = 1
	}
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < l.out; base += rebuildChunk {
		n := min(rebuildChunk, l.out-base)
		sub := block[base*l.in:]
		parallelRange(workers, n, func(lo, hi int) {
			l.fam.HashDenseRows(sub[lo*l.in:hi*l.in], hi-lo, codes[lo*nf:hi*nf])
		})
		insertChunk(dst, uint32(base), n, nf, codes, workers)
	}
}

// insertChunk inserts one hashed chunk of n rows (ids base..base+n-1,
// codes row-major in codes) into every table, parallel over tables.
func insertChunk(dst *hashtable.Table, base uint32, n, nf int, codes []uint32, workers int) {
	parallelRange(min(workers, dst.L()), dst.L(), func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for r := 0; r < n; r++ {
				dst.InsertInto(ti, base+uint32(r), codes[r*nf:(r+1)*nf])
			}
		}
	})
}

// parallelRange splits [0, n) into contiguous spans across workers
// goroutines and calls f(lo, hi) for each.
func parallelRange(workers, n int, f func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
