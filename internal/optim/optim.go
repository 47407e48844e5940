// Package optim implements the optimizers used by SLIDE and its baselines.
//
// SLIDE trains with Adam (§5, "we also use the same optimizer, Adam")
// applied lazily: only the weights touched by an active neuron's sparse
// gradient receive a step, with first/second moments stored per weight.
// Two update modes support the paper's asynchronous design (§3.1):
//
//   - ModeHogwild: the paper's HOGWILD choice (Recht et al. 2011) —
//     worker threads accumulate their elements' gradients with no
//     coordination, each into its own gradient shards.
//   - ModeBatchSync: elements are recorded during the batch and their
//     gradients replayed afterwards, sharded by neuron id, giving
//     results independent of the thread count.
//
// Either way the Adam step runs once per batch, with plain writes and one
// writer per weight row.
package optim

import (
	"fmt"
	"math"
)

// UpdateMode selects how a batch's gradient is accumulated. The values
// are serialized in model files, so each keeps its number; 1 (CAS-based
// "atomic" adds) is retired.
type UpdateMode int

const (
	// ModeHogwild accumulates without coordination (the paper default).
	ModeHogwild UpdateMode = 0
	// ModeBatchSync records the batch and replays it deterministically.
	ModeBatchSync UpdateMode = 2
)

// String returns the configuration name of the mode.
func (m UpdateMode) String() string {
	switch m {
	case ModeHogwild:
		return "hogwild"
	case ModeBatchSync:
		return "batch-sync"
	default:
		return fmt.Sprintf("UpdateMode(%d)", int(m))
	}
}

// ParseUpdateMode converts a configuration name into an UpdateMode.
func ParseUpdateMode(s string) (UpdateMode, error) {
	switch s {
	case "hogwild":
		return ModeHogwild, nil
	case "batch-sync":
		return ModeBatchSync, nil
	case "atomic":
		return 0, fmt.Errorf("optim: update mode %q is retired; use \"hogwild\", which runs the same backward", s)
	}
	return 0, fmt.Errorf("optim: unknown update mode %q (want hogwild|batch-sync)", s)
}

// Adam holds the Adam hyperparameters (Kingma & Ba 2014). The zero value
// is not useful; construct with NewAdam.
type Adam struct {
	LR    float32
	Beta1 float32
	Beta2 float32
	Eps   float32
}

// NewAdam returns Adam with the standard defaults (beta1=0.9, beta2=0.999,
// eps=1e-8) at the given learning rate.
func NewAdam(lr float32) Adam {
	return Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Alpha returns the bias-corrected step size for global step t (1-based):
// lr * sqrt(1-beta2^t) / (1-beta1^t). Folding the corrections into the
// step size lets the per-weight update use raw moments.
func (a Adam) Alpha(t int64) float32 {
	if t < 1 {
		t = 1
	}
	b1t := math.Pow(float64(a.Beta1), float64(t))
	b2t := math.Pow(float64(a.Beta2), float64(t))
	return a.LR * float32(math.Sqrt(1-b2t)/(1-b1t))
}

// Step1 applies one Adam step to a single weight with gradient g using
// plain writes. alpha is Alpha(t).
func (a Adam) Step1(w, m, v *float32, g, alpha float32) {
	nm := a.Beta1**m + (1-a.Beta1)*g
	nv := a.Beta2**v + (1-a.Beta2)*g*g
	*m = nm
	*v = nv
	*w -= alpha * nm / (sqrt32(nv) + a.Eps)
}

// StepRow applies Adam to a full row with dense gradient g (the dense
// baseline's path). Plain writes; the caller guarantees exclusive access.
func (a Adam) StepRow(w, m, v, g []float32, alpha float32) {
	if len(w) != len(g) || len(m) != len(g) || len(v) != len(g) {
		panic("optim: StepRow length mismatch")
	}
	b1, b2, eps := a.Beta1, a.Beta2, a.Eps
	for i, gi := range g {
		nm := b1*m[i] + (1-b1)*gi
		nv := b2*v[i] + (1-b2)*gi*gi
		m[i] = nm
		v[i] = nv
		w[i] -= alpha * nm / (sqrt32(nv) + eps)
	}
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
