package core

// colTrackThreshold is the fan-in above which a layer tracks which input
// columns were touched during a batch. Below it (e.g. the 128-wide hidden
// input of the output layer) scanning the full row is cheaper than
// maintaining a column list.
const colTrackThreshold = 512

// beginBatch advances every layer's batch epoch, invalidating the touched
// neuron/column stamps and the backward shards in O(1). On the rare epoch
// wrap the layer stamps and every registered backward shard's stamps are
// cleared, since stale stamps could otherwise collide with re-issued
// epoch values.
func (n *Network) beginBatch() {
	wrapped := false
	for _, l := range n.layers {
		l.batchEpoch++
		if l.batchEpoch == 0 { // stamp wrap: clear and restart
			for i := range l.touched {
				l.touched[i] = 0
			}
			for i := range l.colStamp {
				l.colStamp[i] = 0
			}
			l.batchEpoch = 1
			wrapped = true
		}
	}
	if wrapped {
		n.resetShardStamps()
	}
}

// applyAdamBatch performs the per-batch Adam step over exactly the
// weights that accumulated gradient: touched neurons' rows restricted to
// touched input columns (§3.1: "the fraction of weights that needs to be
// updated is s² only"). It is extract-then-apply: the workers' gradient
// shards are first folded into an explicit SparseDelta (the §6
// distributed-exchange payload, reused scratch) and the Adam step then
// runs over exactly the delta's cells. The split is what lets
// data-parallel replicas exchange the delta between extract and apply
// (TrainConfig.Exchanger).
//
// The delta's cell count accumulates into n.touchedWeights, surfaced as
// TrainResult.TouchedPerIter and measured by the dist-comm experiment.
func (n *Network) applyAdamBatch(alpha, invB float32, workers int) {
	d := n.ExtractDelta(n.deltaScratch, workers)
	n.deltaScratch = d
	n.touchedWeights += d.Cells()
	for li, l := range n.layers {
		l.ApplyDelta(n.adam, &d.Layers[li], alpha, invB, workers)
	}
}

// touchedColumns rebuilds the per-batch touched-column list from the
// column stamps, or returns nil when the layer iterates full rows.
func (l *Layer) touchedColumns(workers int) []int32 {
	if l.colStamp == nil {
		return nil
	}
	l.colList = scanStamps(l.colStamp, l.batchEpoch, workers, l.colList)
	return l.colList
}
