package core

import (
	"time"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

func nowNano() int64 { return time.Now().UnixNano() }

// layerState is one batch element's view of one layer: which neurons are
// active and their activations/gradients. It carries the same information
// as the paper's per-neuron batch arrays (Fig. 2), keyed by element
// instead of by neuron, so each worker owns its state outright.
type layerState struct {
	// full marks every neuron active; ids is nil and vals/delta are
	// indexed by neuron id.
	full bool
	// ids lists active neuron ids when !full (unsorted, unique).
	ids []int32
	// vals holds post-activation values aligned with ids (or dense when
	// full). For softmax layers vals are the normalized probabilities
	// over the active set.
	vals []float32
	// delta holds dL/d(pre-activation) aligned with vals.
	delta []float32
}

func (ls *layerState) reset(full bool, n int) {
	ls.full = full
	ls.ids = ls.ids[:0]
	if cap(ls.vals) < n {
		ls.vals = make([]float32, 0, n)
		ls.delta = make([]float32, 0, n)
	}
	ls.vals = ls.vals[:0]
	ls.delta = ls.delta[:0]
}

// sizeVals sets the activation buffer to n entries, growing the backing
// arrays when the active set outgrew the reset hint — the
// empty-retrieval fallback can draw Beta ids after reset reserved only
// the (empty) retrieval's worth. delta grows in step so the backward
// pass can always mirror vals' length.
func (ls *layerState) sizeVals(n int) {
	if cap(ls.vals) < n {
		ls.vals = make([]float32, n)
		ls.delta = make([]float32, 0, n)
	}
	ls.vals = ls.vals[:n]
}

// fwdCapture retains one batch element's forward activations so its
// backward pass can run after the capturing worker's layer state was
// reused by the next batch's forward — the OverlapExchange pipeline,
// where forward(t+1) executes before backward(t). captureFrom deep-copies
// each layer's active ids, activations and density flag, and reserves
// delta capacity for the backward pass to fill in place.
type fwdCapture struct {
	layers []layerState
}

func (c *fwdCapture) captureFrom(src []layerState) {
	if cap(c.layers) < len(src) {
		c.layers = make([]layerState, len(src))
	}
	c.layers = c.layers[:len(src)]
	for i := range src {
		s, d := &src[i], &c.layers[i]
		d.full = s.full
		d.ids = append(d.ids[:0], s.ids...)
		d.vals = append(d.vals[:0], s.vals...)
		if cap(d.delta) < len(s.vals) {
			d.delta = make([]float32, 0, len(s.vals))
		}
		d.delta = d.delta[:0]
	}
}

// elemState is the per-worker compute state reused across batch elements.
// Nothing in it is shared between workers; the only cross-worker writes
// during training are the weight updates themselves (§3.1's HOGWILD
// argument).
type elemState struct {
	layers []layerState

	// wk is the worker index the state was built for; it keys the
	// network's backward gradient shard set (shard.go).
	wk int
	// shards is the worker's per-layer backward gradient shards, attached
	// lazily on the first HOGWILD backward pass and reused across batches
	// and Train calls.
	shards []*backShard

	// codes is per-layer hash-code scratch (K*L entries for sampled
	// layers).
	codes [][]uint32
	// strategies holds one private strategy instance per sampled layer.
	strategies []sampling.Strategy
	// sampleBuf receives raw strategy output before id conversion.
	sampleBuf []uint32

	// mark/markEpoch implement O(1)-reset membership sets per sampled
	// layer, used to merge forced labels into the active set.
	mark      [][]uint32
	markEpoch uint32

	// work is the worker's kernel workspace: the backward
	// activation-gradient accumulator (sized once to the largest fan-in,
	// so steady-state passes allocate nothing) and the per-form forward
	// kernel counters the training result aggregates.
	work kernels.Workspace

	// rng drives the element's fallback sampling decisions.
	rng *rng.RNG

	// sel and topkPos are the top-k selection scratch (bounded heap +
	// position list) predictIntoBuf reuses, so steady-state prediction
	// performs zero per-call allocations end to end.
	sel     sparse.Selector
	topkPos []int32

	// busyNS accumulates time spent doing useful work, for the Table 2
	// utilization accounting.
	busyNS int64
	// activeSum and activeCount track mean active-set sizes per sampled
	// layer (the paper reports ~1000 of 205K and ~3000 of 670K active).
	activeSum   []int64
	activeCount []int64
	// lossSum/lossCount accumulate training cross-entropy between evals.
	lossSum   float64
	lossCount int64
}

// Seed-derivation constants shared by construction (newElemState),
// request reseeding (reseed) and batch element seeding (elemSeed):
// rngSeedSalt separates the fallback-draw RNG's seed space from the
// strategies', layerSeedMix (the 64-bit golden ratio) strides per-layer
// strategy seeds apart, and workerSeedMix strides per-worker ones.
const (
	rngSeedSalt   = 0xe1e3
	layerSeedMix  = 0x9e3779b97f4a7c15
	workerSeedMix = 0xc2b2ae3d27d4eb4f
)

// newElemState builds worker state for the network. Worker w gets
// independent strategy/rng streams derived from seed.
func newElemState(n *Network, seed uint64, w int) (*elemState, error) {
	st := &elemState{
		layers:      make([]layerState, len(n.layers)),
		wk:          w,
		codes:       make([][]uint32, len(n.layers)),
		strategies:  make([]sampling.Strategy, len(n.layers)),
		mark:        make([][]uint32, len(n.layers)),
		rng:         rng.NewStream(seed^rngSeedSalt, uint64(w)*2+1),
		activeSum:   make([]int64, len(n.layers)),
		activeCount: make([]int64, len(n.layers)),
	}
	maxIn := n.cfg.InputDim
	for li, l := range n.layers {
		if l.in > maxIn {
			maxIn = l.in
		}
		if !l.Sampled() {
			continue
		}
		st.codes[li] = make([]uint32, l.fam.NumFuncs())
		st.mark[li] = make([]uint32, l.out)
		strat, err := sampling.New(sampling.Params{
			Kind:     l.cfg.Strategy,
			Beta:     l.cfg.Beta,
			MinCount: l.cfg.MinCount,
			Universe: l.out,
			Seed:     seed ^ uint64(li)*layerSeedMix ^ uint64(w)*workerSeedMix,
		}, l.out)
		if err != nil {
			return nil, err
		}
		st.strategies[li] = strat
	}
	st.work.EnsureAcc(maxIn)
	return st, nil
}

// reseedStream is the fixed stream reseed pins the fallback RNG to,
// replacing the construction-time per-worker stream so seeded results do
// not depend on which pooled worker state serves the call.
const reseedStream = 0x7d5

// reseed re-derives the state's stochastic streams — each sampled layer's
// strategy stream and the fallback-draw RNG — from a request seed instead
// of the construction-time worker index. After reseed(s), a forward pass
// over a given input produces bitwise-identical active sets (and hence
// activations and top-k output) on any worker state of the same network,
// no matter what traffic the state served before.
func (st *elemState) reseed(seed uint64) {
	st.rng.ReseedStream(seed^rngSeedSalt, reseedStream)
	for li, strat := range st.strategies {
		if strat == nil {
			continue
		}
		strat.Reseed(seed ^ uint64(li)*layerSeedMix)
	}
}

// markSeen stamps id in layer li's membership set, reporting whether it
// was already present this epoch.
func (st *elemState) markSeen(li int, id int32) bool {
	m := st.mark[li]
	if m[id] == st.markEpoch {
		return true
	}
	m[id] = st.markEpoch
	return false
}

// nextEpoch resets all membership sets in O(1).
func (st *elemState) nextEpoch() {
	st.markEpoch++
	if st.markEpoch == 0 {
		for _, m := range st.mark {
			for i := range m {
				m[i] = 0
			}
		}
		st.markEpoch = 1
	}
}
