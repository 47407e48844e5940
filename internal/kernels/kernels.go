// Package kernels is the density-adaptive execution layer between the
// SLIDE network (internal/core) and the raw vector kernels
// (internal/vecmath). For every (layer, active set) forward step it picks
// a compute *form*:
//
//   - gather: the classical per-active-neuron formulation — one fused
//     dot+bias(+ReLU) per active row, rows visited in ascending id order
//     for locality. The right shape when the active output fraction is
//     small (SLIDE's sampled layers) or the input is dense.
//   - scatter: the input-major formulation — for each input nonzero, one
//     contiguous Axpy of its column-major weight slice into the dense
//     output workspace. The right shape when every output neuron is
//     active and the input is sparse (the paper architecture's first
//     hidden layer, whose input is the example's sparse feature vector):
//     a gather there issues out×nnz scattered single-float reads, while
//     the scatter streams nnz contiguous out-length slices.
//
// The crossover is driven by the measured input density of the pass:
// above Config.ScatterMaxDensity the input is dense enough that the
// row-major gather (a plain GEMV) wins again, because the scatter's
// read-modify-write workspace traffic stops being paid back by better
// weight locality. The scatter form requires the layer to maintain a
// column-major Mirror of its weights; layers without one always gather.
//
// This is the vectorization/memory-layout work the follow-up paper
// "Accelerating SLIDE Deep Learning on Modern CPUs" (Daghaghi et al.,
// MLSys 2021) reports as worth 2-7x on exactly these loops, done as a
// refactor in the BrainSlug style: the network's control flow is
// unchanged, only the per-step kernel shape is re-planned. It is also the
// substrate alternative weight formats (quantized, BF16) plug into: a
// format supplies its own Mirror/row kernels and the plan logic is reused.
package kernels

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/vecmath"
)

// Form identifies one compute formulation of the forward step.
type Form uint8

const (
	// FormAuto lets the plan pick per pass from the measured density.
	FormAuto Form = iota
	// FormGather is the per-active-row fused dot form.
	FormGather
	// FormScatter is the input-major column-axpy form.
	FormScatter
	// NumForms bounds Form values, for counters indexed by form.
	NumForms
)

// String returns the reporting name of the form.
func (f Form) String() string {
	switch f {
	case FormAuto:
		return "auto"
	case FormGather:
		return "gather"
	case FormScatter:
		return "scatter"
	default:
		return fmt.Sprintf("Form(%d)", uint8(f))
	}
}

// DefaultScatterMaxDensity is the gather/scatter crossover: input
// densities at or above it run the gather form even when a mirror is
// available. At density 1 both forms stream the whole weight matrix, but
// the gather's row dots are pure reads while the scatter re-reads and
// re-writes the workspace once per input nonzero; the scatter's locality
// advantage has to be large enough to pay for that, which empirically
// holds only while most columns are skipped.
const DefaultScatterMaxDensity = 0.25

// Config fixes a network's kernel-planning policy. The zero value is the
// adaptive default.
type Config struct {
	// Force pins every pass to one form: FormGather/FormScatter for
	// equivalence tests and benchmarks (a forced scatter still falls
	// back to gather where no mirror exists — the form would be
	// incomputable). FormAuto adapts per pass.
	Force Form
	// ScatterMaxDensity overrides the gather/scatter density crossover;
	// 0 selects DefaultScatterMaxDensity.
	ScatterMaxDensity float64
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.ScatterMaxDensity == 0 {
		c.ScatterMaxDensity = DefaultScatterMaxDensity
	}
	return c
}

// ForwardForm plans one forward pass over a layer: nnz input nonzeros of
// a fan-in of in (inFull marks a dense input, where nnz is ignored), with
// hasMirror reporting whether the layer maintains the column-major mirror
// the scatter form needs. The scatter form additionally requires the full
// output to be computed — callers only pass hasMirror=true for layers
// whose every neuron is active (dense layers).
func (c Config) ForwardForm(nnz, in int, inFull, hasMirror bool) Form {
	switch c.Force {
	case FormGather:
		return FormGather
	case FormScatter:
		if hasMirror && !inFull {
			return FormScatter
		}
		return FormGather
	}
	if !hasMirror || inFull || in == 0 {
		return FormGather
	}
	maxD := c.ScatterMaxDensity
	if maxD == 0 {
		maxD = DefaultScatterMaxDensity
	}
	if float64(nnz) >= maxD*float64(in) {
		return FormGather
	}
	return FormScatter
}

// MirrorFormat selects the numeric storage of a weight mirror. FP32 is
// the exact default; BF16 halves the bytes the scatter form streams at
// ~3 decimal digits of precision.
type MirrorFormat uint8

const (
	// MirrorFP32 stores exact float32 columns (bit-identical to the
	// row-major weights).
	MirrorFP32 MirrorFormat = iota
	// MirrorBF16 stores bfloat16 columns (round-to-nearest-even on every
	// write; relative error ≤ 2⁻⁸ per weight).
	MirrorBF16
)

// String returns the configuration name of the format.
func (f MirrorFormat) String() string {
	switch f {
	case MirrorFP32:
		return "fp32"
	case MirrorBF16:
		return "bf16"
	default:
		return fmt.Sprintf("MirrorFormat(%d)", uint8(f))
	}
}

// Mirror is a column-major copy of a layer's weight matrix: Col(i) is the
// contiguous slice of every neuron's weight for input i — the operand the
// scatter form Axpys per input nonzero. It is derived state: the layer
// rebuilds it after bulk weight restores and dual-writes it on every
// optimizer step (each Adam step touches exactly the delta's cells, so
// the mirror update costs one extra store per stepped cell). Concurrent
// readers during training inherit the row-major weights' HOGWILD
// weak-consistency argument unchanged. Quantized formats store the same
// layout in narrower cells and supply their own column kernels to
// ScatterForward.
type Mirror struct {
	in, out int
	format  MirrorFormat
	t       []float32 // fp32:  t[i*out+j] = w[j][i]
	t16     []uint16  // bf16:  same layout, bfloat16 cells
}

// NewMirror allocates an unfilled exact (fp32) in×out mirror; call
// Rebuild to populate it.
func NewMirror(in, out int) *Mirror {
	return NewMirrorFormat(in, out, MirrorFP32, nil)
}

// NewMirrorFormat allocates an unfilled in×out mirror in the given
// format. When ar is non-nil the backing slab comes from it as one
// cache-line-aligned arena allocation; otherwise from the heap.
func NewMirrorFormat(in, out int, format MirrorFormat, ar *arena.Arena) *Mirror {
	m := &Mirror{in: in, out: out, format: format}
	n := in * out
	switch format {
	case MirrorFP32:
		if ar != nil {
			m.t = ar.AllocAligned(n)
		} else {
			m.t = make([]float32, n)
		}
	case MirrorBF16:
		if ar != nil {
			m.t16 = ar.AllocUint16(n)
		} else {
			m.t16 = make([]uint16, n)
		}
	default:
		panic(fmt.Sprintf("kernels: unknown mirror format %v", format))
	}
	return m
}

// Format returns the mirror's storage format.
func (m *Mirror) Format() MirrorFormat { return m.format }

// Col returns input column i's contiguous weight slice (length out). Only
// valid on fp32 mirrors; quantized formats are read through their own
// kernels (ScatterForward) or cell-wise through At.
func (m *Mirror) Col(i int32) []float32 {
	off := int(i) * m.out
	return m.t[off : off+m.out : off+m.out]
}

// Set stores neuron j's weight for input i, encoding per the format.
func (m *Mirror) Set(j, i int32, v float32) {
	switch m.format {
	case MirrorFP32:
		m.t[int(i)*m.out+int(j)] = v
	case MirrorBF16:
		m.t16[int(i)*m.out+int(j)] = vecmath.BF16FromF32(v)
	}
}

// At decodes neuron j's stored weight for input i — the format-agnostic
// read the coherence tests use.
func (m *Mirror) At(j, i int32) float32 {
	off := int(i)*m.out + int(j)
	switch m.format {
	case MirrorBF16:
		return vecmath.F32FromBF16(m.t16[off])
	default:
		return m.t[off]
	}
}

// Rebuild repopulates the mirror from neuron-major rows (len(rows) = out,
// each of length in). Used at initialization and after bulk weight
// restores (model loads).
func (m *Mirror) Rebuild(rows [][]float32) {
	if len(rows) != m.out {
		panic(fmt.Sprintf("kernels: Rebuild with %d rows, mirror has %d", len(rows), m.out))
	}
	for j, row := range rows {
		if len(row) < m.in {
			panic(fmt.Sprintf("kernels: Rebuild row %d has %d weights, mirror fan-in is %d", j, len(row), m.in))
		}
	}
	for j, row := range rows {
		for i := 0; i < m.in; i++ {
			m.Set(int32(j), int32(i), row[i])
		}
	}
}

// Workspace is one worker's reusable kernel scratch, embedded in the
// per-worker element state so steady-state passes allocate nothing.
type Workspace struct {
	// Acc is the backward activation-gradient accumulator, sized once to
	// the network's largest fan-in.
	Acc []float32
	// Forms counts forward kernel executions by chosen form — the
	// engine's decision record, aggregated into training results and the
	// kernels experiment.
	Forms [NumForms]int64
}

// EnsureAcc returns the accumulator resized to n, growing the backing
// array only when the recorded fan-in bound was too small.
func (w *Workspace) EnsureAcc(n int) []float32 {
	if cap(w.Acc) < n {
		w.Acc = make([]float32, n)
	}
	w.Acc = w.Acc[:n]
	return w.Acc
}

// GatherForward computes dst over the active rows in the gather form: one
// fused dot+bias(+ReLU) per row. ids lists the active neuron ids aligned
// with dst; a nil ids means every neuron 0..len(dst) is active. The input
// is (inIds, inVals) sparse pairs, or inVals dense when inFull. Callers
// wanting row locality sort ids first; per-row results are bitwise
// independent of row order.
func GatherForward(dst []float32, ids []int32, w [][]float32, b []float32, inIds []int32, inVals []float32, inFull, relu bool) {
	if ids == nil {
		if inFull {
			for j := range dst {
				dst[j] = rowDot(b[j], w[j], inIds, inVals, true, relu)
			}
			return
		}
		for j := range dst {
			dst[j] = rowDot(b[j], w[j], inIds, inVals, false, relu)
		}
		return
	}
	for a, j := range ids {
		dst[a] = rowDot(b[j], w[j], inIds, inVals, inFull, relu)
	}
}

func rowDot(b float32, w []float32, inIds []int32, inVals []float32, inFull, relu bool) float32 {
	if inFull {
		if relu {
			return vecmath.DotBiasReLU(b, w[:len(inVals)], inVals)
		}
		return b + vecmath.Dot(w[:len(inVals)], inVals)
	}
	if relu {
		return vecmath.SparseDotBiasReLU(b, inIds, inVals, w)
	}
	return b + vecmath.SparseDot(inIds, inVals, w)
}

// ScatterForward computes the full dense output in the input-major form:
// dst starts as the bias vector and accumulates one contiguous
// column-Axpy per input nonzero, then the ReLU clamp runs over the still
// cache-hot result. dst must have length m.out. Accumulation order is
// input-major, so results agree with the gather form only to float
// rounding (the equivalence tests bound the difference, not the bits).
func ScatterForward(dst []float32, m *Mirror, b []float32, inIds []int32, inVals []float32, relu bool) {
	copy(dst, b[:len(dst)])
	switch m.format {
	case MirrorBF16:
		for t, i := range inIds {
			off := int(i) * m.out
			vecmath.AxpyBF16(inVals[t], m.t16[off:off+m.out:off+m.out], dst)
		}
	default:
		for t, i := range inIds {
			vecmath.Axpy(inVals[t], m.Col(i), dst)
		}
	}
	if relu {
		vecmath.ReLU(dst)
	}
}
