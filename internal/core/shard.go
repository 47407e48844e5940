package core

import (
	"repro/internal/arena"
	"repro/internal/vecmath"
)

// Sharded backward scatter: where a batch's gradient lives.
//
// Weights only move at batch boundaries, so the whole batch's gradient
// work is free to land in per-worker private buffers: each worker owns
// one backShard per layer and writes it with no interference of any kind
// — HOGWILD's zero-coordination hot loop with nothing left to race on,
// and no shared cache lines for hot rows to contend over. ExtractDelta
// folds the shards at the batch boundary, summing per cell in fixed shard
// order, so the result is deterministic given the element-to-worker
// assignment (one thread, or id-sharded BatchSync replay).
//
// Storage adapts to the layer's input shape, decided once per network
// (the input of a layer is statically sparse or dense in training):
//
//   - dense rows: fan-in ≤ colTrackThreshold or a dense input — each
//     claimed row is an arena-backed, cache-line-aligned slice of l.in
//     floats from the worker's own arena, so two workers' rows never share
//     a line (the false-sharing removal the arena exists for).
//   - sparse rows: wide fan-in with sparse input (the first layer on
//     example features) — the shard keeps a compact per-batch column
//     index (colStamp/colPos/cols) and each row stores values aligned to
//     that index, so memory is O(touched columns), not O(fan-in), per row.
//
// Rows, columns and their buffers are pooled and epoch-keyed: steady state
// claims them back with O(touched) work and zero allocation.
type backShard struct {
	l     *Layer
	ar    *arena.Arena
	dense bool
	// epoch is the l.batchEpoch the shard's contents belong to; any other
	// value (including the post-extraction 0) means logically empty.
	epoch uint32

	// rowStamp[j] == epoch marks neuron j as claimed in this shard;
	// rowPos[j] is then its index into rows/bias/rowBuf.
	rowStamp []uint32
	rowPos   []int32
	rows     []int32   // claimed neuron ids, in claim order, len = claimed count
	bias     []float32 // bias gradient per claimed row (pooled: len only grows)
	// rowBuf[r] is row r's gradient values: length l.in in dense mode,
	// aligned to cols (lazily zero-extended) in sparse mode. Pooled like
	// bias; dense slots come from the worker's arena.
	rowBuf [][]float32

	// Sparse mode's per-batch column index: colStamp[i] == epoch marks
	// input column i as present, colPos[i] is its slot in cols.
	colStamp []uint32
	colPos   []int32
	cols     []int32
	// posBuf is per-element scratch mapping the element's input ids to
	// column slots.
	posBuf []int32
}

// shardSlabFloats sizes each worker arena's slabs (256 KiB of floats).
// Sharded gradient state is small — touched rows of narrow dense layers —
// so big slabs would waste a worker-count multiple of memory.
const shardSlabFloats = 1 << 16

// sync re-keys the shard to the current batch, emptying it in O(1) when it
// still holds an older batch's (already extracted) state.
func (sh *backShard) sync(epoch uint32) {
	if sh.epoch == epoch {
		return
	}
	sh.epoch = epoch
	sh.rows = sh.rows[:0]
	sh.cols = sh.cols[:0]
}

// rowIndex claims (or finds) neuron j's slot this batch and returns it,
// with bias zeroed and the value buffer emptied on a fresh claim.
func (sh *backShard) rowIndex(j int32, epoch uint32) int {
	if sh.rowStamp[j] == epoch {
		return int(sh.rowPos[j])
	}
	r := len(sh.rows)
	sh.rowStamp[j] = epoch
	sh.rowPos[j] = int32(r)
	sh.rows = append(sh.rows, j)
	if r < len(sh.bias) {
		sh.bias[r] = 0
	} else {
		sh.bias = append(sh.bias, 0)
	}
	if r < len(sh.rowBuf) {
		if sh.dense {
			clear(sh.rowBuf[r])
		} else {
			sh.rowBuf[r] = sh.rowBuf[r][:0]
		}
	} else if sh.dense {
		sh.rowBuf = append(sh.rowBuf, sh.ar.AllocAligned(sh.l.in))
	} else {
		sh.rowBuf = append(sh.rowBuf, nil)
	}
	return r
}

// colPositions interns the element's input columns into the shard's
// per-batch column index and returns each id's slot, aligned with inIds.
// The returned slice is shard-owned scratch, valid until the next call.
func (sh *backShard) colPositions(inIds []int32, epoch uint32) []int32 {
	if cap(sh.posBuf) < len(inIds) {
		sh.posBuf = make([]int32, len(inIds))
	}
	pos := sh.posBuf[:len(inIds)]
	for t, i := range inIds {
		if sh.colStamp[i] != epoch {
			sh.colStamp[i] = epoch
			sh.colPos[i] = int32(len(sh.cols))
			sh.cols = append(sh.cols, i)
		}
		pos[t] = sh.colPos[i]
	}
	return pos
}

// sparseRow returns row r's value buffer zero-extended to the current
// column count, growing the backing array geometrically so steady state
// stops allocating once the per-batch column population stabilizes.
func (sh *backShard) sparseRow(r int) []float32 {
	g := sh.rowBuf[r]
	n := len(sh.cols)
	if cap(g) < n {
		ng := make([]float32, len(g), max(n, 2*cap(g)))
		copy(ng, g)
		g = ng
	}
	old := len(g)
	g = g[:n]
	clear(g[old:])
	sh.rowBuf[r] = g
	return g
}

// newShardSet builds one worker's per-layer shard set, all dense rows
// carved from one private arena. Storage mode mirrors the initMirror
// sparse-input chain: a layer's input is sparse when it is first (example
// features) or follows a sampled layer — static per network in training.
func (n *Network) newShardSet() []*backShard {
	ar := arena.New(shardSlabFloats)
	set := make([]*backShard, len(n.layers))
	sparseIn := true
	for li, l := range n.layers {
		sh := &backShard{
			l:        l,
			ar:       ar,
			dense:    !sparseIn || l.in <= colTrackThreshold,
			rowStamp: make([]uint32, l.out),
			rowPos:   make([]int32, l.out),
		}
		if !sh.dense {
			sh.colStamp = make([]uint32, l.in)
			sh.colPos = make([]int32, l.in)
		}
		set[li] = sh
		sparseIn = l.Sampled()
	}
	return set
}

// backShardSet returns worker w's shard set, creating it on first use.
// Sets are keyed by worker index and reused across Train calls, so
// repeated runs on one network don't leak shard state. Safe for
// concurrent first-touch from worker goroutines.
func (n *Network) backShardSet(w int) []*backShard {
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	if n.layerShards == nil {
		n.layerShards = make([][]*backShard, len(n.layers))
	}
	for len(n.workerShards) <= w {
		n.workerShards = append(n.workerShards, nil)
	}
	if n.workerShards[w] == nil {
		set := n.newShardSet()
		n.workerShards[w] = set
		for li, sh := range set {
			for len(n.layerShards[li]) <= w {
				n.layerShards[li] = append(n.layerShards[li], nil)
			}
			n.layerShards[li][w] = sh
		}
	}
	return n.workerShards[w]
}

// resetShardStamps clears every registered shard's epoch-keyed stamps;
// called on the rare batch-epoch wrap, where stale stamps could collide
// with re-issued epoch values.
func (n *Network) resetShardStamps() {
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	for _, set := range n.workerShards {
		for _, sh := range set {
			if sh == nil {
				continue
			}
			sh.epoch = 0
			clear(sh.rowStamp)
			clear(sh.colStamp)
		}
	}
}

// accumulateSharded is the backward scatter: one element's weight and
// bias gradient contributions, pushed through the vecmath outer-product
// row kernels into the worker's private shard, fused with the
// accumulation toward the previous layer (weight values feed acc before
// anything is written, preserving classical backprop semantics within the
// element). It performs no shared writes at all; extraction derives the
// batch's row/column union from the shard lists at the boundary. With
// weights only moving at batch boundaries, that makes the whole backward
// race-free by construction (the race detector agrees).
func (l *Layer) accumulateSharded(sh *backShard, ls *layerState, inIds []int32, inVals []float32, inFull bool, acc []float32) {
	epoch := l.batchEpoch
	sh.sync(epoch)
	var pos []int32
	if !sh.dense {
		pos = sh.colPositions(inIds, epoch)
	}
	if ls.full {
		for j := range ls.vals {
			l.accRowSharded(sh, int32(j), ls.delta[j], epoch, inIds, inVals, pos, inFull, acc)
		}
		return
	}
	for a, j := range ls.ids {
		l.accRowSharded(sh, j, ls.delta[a], epoch, inIds, inVals, pos, inFull, acc)
	}
}

func (l *Layer) accRowSharded(sh *backShard, j int32, dj float32, epoch uint32, inIds []int32, inVals []float32, pos []int32, inFull bool, acc []float32) {
	if dj == 0 {
		return
	}
	w := l.w[j]
	r := sh.rowIndex(j, epoch)
	if sh.dense {
		g := sh.rowBuf[r]
		switch {
		case inFull && acc != nil:
			n := len(inVals)
			vecmath.OuterAcc(dj, inVals, w[:n], g[:n], acc[:n])
		case inFull:
			vecmath.Axpy(dj, inVals, g[:len(inVals)])
		case acc != nil:
			vecmath.SparseOuterAcc(dj, inIds, inVals, w, g, acc[:len(inIds)])
		default:
			vecmath.SparseAxpy(dj, inIds, inVals, g)
		}
	} else {
		g := sh.sparseRow(r)
		if acc != nil {
			vecmath.IndexedOuterAcc(dj, inIds, pos, inVals, w, g, acc[:len(inIds)])
		} else {
			vecmath.IndexedAxpy(dj, pos, inVals, g)
		}
	}
	sh.bias[r] += dj
}

// replayRecordShard is ModeBatchSync's post-batch accumulation:
// worker-shard `shard` replays every record's rows with id ∈ shard (mod
// shards) into its own backShard. Each neuron row lives in exactly one
// shard, so the per-cell addition sequence is the record order —
// independent of the thread count, which keeps BatchSync's determinism
// guarantee without any shared gradient writes.
func replayRecordShard(l *Layer, sh *backShard, lr *layerRecord, shard, shards int) {
	epoch := l.batchEpoch
	sh.sync(epoch)
	var pos []int32
	if !sh.dense && !lr.inFull {
		pos = sh.colPositions(lr.inIds, epoch)
	}
	apply := func(a int, j int32) {
		if int(j)%shards != shard {
			return
		}
		dj := lr.delta[a]
		if dj == 0 {
			return
		}
		r := sh.rowIndex(j, epoch)
		if sh.dense {
			g := sh.rowBuf[r]
			if lr.inFull {
				gn := g[:len(lr.inVals)]
				for i, x := range lr.inVals {
					gn[i] += dj * x
				}
			} else {
				for t, i := range lr.inIds {
					g[i] += dj * lr.inVals[t]
				}
			}
		} else {
			g := sh.sparseRow(r)
			for t := range lr.inIds {
				g[pos[t]] += dj * lr.inVals[t]
			}
		}
		sh.bias[r] += dj
	}
	if lr.full {
		for j := range lr.delta {
			apply(j, int32(j))
		}
		return
	}
	for a, j := range lr.ids {
		apply(a, j)
	}
}

// extractSharded drains the layer's shards into dst in the LayerDelta CSR
// form (rows ascending, columns ascending within rows, zero cells
// skipped). Per cell it sums the live shards' contributions in
// shard-index order, then marks the shards consumed, so a second extract
// in the same batch is empty and a further accumulation starts afresh.
func (l *Layer) extractSharded(dst *LayerDelta, shards []*backShard, workers int) {
	dst.reset()
	epoch := l.batchEpoch
	var live []*backShard
	dense := true
	for _, sh := range shards {
		if sh != nil && sh.epoch == epoch && len(sh.rows) > 0 {
			live = append(live, sh)
			dense = sh.dense
		}
	}
	if len(live) == 0 {
		dst.RowOff = append(dst.RowOff, 0)
		return
	}
	// The backward makes no shared writes, so the batch's row/column
	// union is derived here, at the quiesced boundary, by stamping the
	// shard lists into the layer's epoch stamps and collecting them in
	// ascending order with scanStamps.
	for _, sh := range live {
		for _, j := range sh.rows {
			l.touched[j] = epoch
		}
	}
	rows := l.touchedRows(workers)
	if len(rows) == 0 {
		dst.RowOff = append(dst.RowOff, 0)
		return
	}
	var cols []int32
	if !dense {
		for _, sh := range live {
			for _, i := range sh.cols {
				l.colStamp[i] = epoch
			}
		}
		cols = l.touchedColumns(workers)
	}

	// rowValues collects the live shards that claimed row j, appending
	// their (shard, values) pairs to the caller's reused scratch.
	rowValues := func(j int32, owners []*backShard, vals [][]float32) ([]*backShard, [][]float32) {
		for _, sh := range live {
			if sh.rowStamp[j] == epoch {
				owners = append(owners, sh)
				vals = append(vals, sh.rowBuf[sh.rowPos[j]])
			}
		}
		return owners, vals
	}
	// cellSum sums column i across the row's contributing shards in
	// shard-index order — the one place cross-shard nondeterminism could
	// enter, pinned by the fixed order.
	cellSum := func(i int32, owners []*backShard, vals [][]float32) float32 {
		var s float32
		if dense {
			for _, g := range vals {
				s += g[i]
			}
			return s
		}
		for k, sh := range owners {
			if sh.colStamp[i] == epoch {
				if p := int(sh.colPos[i]); p < len(vals[k]) {
					s += vals[k][p]
				}
			}
		}
		return s
	}

	// Pass 1: count each row's non-zero cells so pass 2 can fill disjoint
	// spans in parallel.
	counts := make([]int32, len(rows))
	parallelRange(workers, len(rows), func(lo, hi int) {
		owners := make([]*backShard, 0, len(live))
		vals := make([][]float32, 0, len(live))
		for r := lo; r < hi; r++ {
			owners, vals = rowValues(rows[r], owners[:0], vals[:0])
			var c int32
			if dense {
				for i := 0; i < l.in; i++ {
					if cellSum(int32(i), owners, vals) != 0 {
						c++
					}
				}
			} else {
				for _, i := range cols {
					if cellSum(i, owners, vals) != 0 {
						c++
					}
				}
			}
			counts[r] = c
		}
	})

	dst.Rows = append(dst.Rows, rows...)
	if cap(dst.RowOff) < len(rows)+1 {
		dst.RowOff = make([]int32, 0, len(rows)+1)
	}
	dst.RowOff = dst.RowOff[:len(rows)+1]
	dst.RowOff[0] = 0
	for r, c := range counts {
		dst.RowOff[r+1] = dst.RowOff[r] + c
	}
	nnz := int(dst.RowOff[len(rows)])
	if cap(dst.Cols) < nnz {
		dst.Cols = make([]int32, nnz)
	}
	if cap(dst.Vals) < nnz {
		dst.Vals = make([]float32, nnz)
	}
	dst.Cols = dst.Cols[:nnz]
	dst.Vals = dst.Vals[:nnz]
	if cap(dst.Bias) < len(rows) {
		dst.Bias = make([]float32, len(rows))
	}
	dst.Bias = dst.Bias[:len(rows)]

	// Pass 2: fill the spans.
	parallelRange(workers, len(rows), func(lo, hi int) {
		owners := make([]*backShard, 0, len(live))
		vals := make([][]float32, 0, len(live))
		for r := lo; r < hi; r++ {
			j := rows[r]
			owners, vals = rowValues(j, owners[:0], vals[:0])
			at := dst.RowOff[r]
			if dense {
				for i := 0; i < l.in; i++ {
					if s := cellSum(int32(i), owners, vals); s != 0 {
						dst.Cols[at] = int32(i)
						dst.Vals[at] = s
						at++
					}
				}
			} else {
				for _, i := range cols {
					if s := cellSum(i, owners, vals); s != 0 {
						dst.Cols[at] = i
						dst.Vals[at] = s
						at++
					}
				}
			}
			var gb float32
			for _, sh := range owners {
				gb += sh.bias[sh.rowPos[j]]
			}
			dst.Bias[r] = gb
		}
	})

	// Consume: the batch's gradient now lives in dst alone. Clearing the
	// stamps this extract relied on, in O(rows + cols), leaves the layer
	// and its shards empty, so a later accumulation in the same batch
	// epoch claims fresh slots instead of stale ones.
	for _, j := range rows {
		l.touched[j] = 0
	}
	for _, i := range cols {
		l.colStamp[i] = 0
	}
	for _, sh := range live {
		for _, j := range sh.rows {
			sh.rowStamp[j] = 0
		}
		for _, i := range sh.cols {
			sh.colStamp[i] = 0
		}
		sh.epoch = 0
	}
}
