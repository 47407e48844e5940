// Package vecmath provides the float32 vector kernels used by both the
// SLIDE network and the dense baseline.
//
// Each kernel has two implementations: an 8-way manually unrolled variant
// with independent accumulators (the Go analogue of the paper's Intel AVX
// SIMD kernels, §5.4/App. D) and a plain scalar variant. The package-level
// functions dispatch on the Unrolled flag so that the Fig. 10
// optimized-vs-plain ablation can flip the whole repository's kernel style
// at one switch. Benchmarks address the variants directly.
package vecmath

import "math"

// Unrolled selects the 8-way unrolled kernels when true (the default).
// It exists for the Fig. 10 optimization ablation; flip it only in
// single-threaded setup code, never mid-training.
var Unrolled = true

// Dot returns the inner product of a and b. The slices must have equal
// length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if Unrolled {
		return dotUnrolled(a, b)
	}
	return dotScalar(a, b)
}

func dotScalar(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func dotUnrolled(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	n := len(a) &^ 7
	for i := 0; i < n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	s := (s0 + s1) + (s2 + s3) + (s4 + s5) + (s6 + s7)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// SparseDot returns the inner product of a sparse vector (idx, val pairs)
// with the dense vector w, i.e. sum over j of val[j]*w[idx[j]].
func SparseDot(idx []int32, val []float32, w []float32) float32 {
	if len(idx) != len(val) {
		panic("vecmath: SparseDot index/value length mismatch")
	}
	if Unrolled {
		return sparseDotUnrolled(idx, val, w)
	}
	return sparseDotScalar(idx, val, w)
}

func sparseDotScalar(idx []int32, val []float32, w []float32) float32 {
	var s float32
	for j, i := range idx {
		s += val[j] * w[i]
	}
	return s
}

func sparseDotUnrolled(idx []int32, val []float32, w []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(idx) &^ 3
	for j := 0; j < n; j += 4 {
		ii := idx[j : j+4 : j+4]
		vv := val[j : j+4 : j+4]
		s0 += vv[0] * w[ii[0]]
		s1 += vv[1] * w[ii[1]]
		s2 += vv[2] * w[ii[2]]
		s3 += vv[3] * w[ii[3]]
	}
	s := (s0 + s1) + (s2 + s3)
	for j := n; j < len(idx); j++ {
		s += val[j] * w[idx[j]]
	}
	return s
}

// DotBiasReLU returns max(0, b + dot(w, x)) — one layer neuron's fused
// forward step (pre-activation plus bias plus ReLU) in a single pass over
// the weight row. The slices must have equal length. The gather-form
// kernel engine calls it once per active neuron on dense inputs.
func DotBiasReLU(b float32, w, x []float32) float32 {
	s := b + Dot(w, x)
	if s < 0 {
		return 0
	}
	return s
}

// SparseDotBiasReLU is DotBiasReLU over a sparse input vector (idx, val
// pairs): max(0, b + sum_j val[j]*w[idx[j]]).
func SparseDotBiasReLU(b float32, idx []int32, val, w []float32) float32 {
	s := b + SparseDot(idx, val, w)
	if s < 0 {
		return 0
	}
	return s
}

// OuterAcc fuses the two per-row backward updates into one pass over the
// dense input: g += d*x (the delta×input outer-product row, accumulating
// weight gradient) and acc += d*w (the activation-gradient gather toward
// the previous layer). Reading w before any write preserves classical
// backprop semantics within the element; every cell receives exactly one
// add, so the result is bit-identical to the separate scalar loops. All
// slices must have equal length.
func OuterAcc(d float32, x, w, g, acc []float32) {
	if len(x) != len(w) || len(x) != len(g) || len(x) != len(acc) {
		panic("vecmath: OuterAcc length mismatch")
	}
	if Unrolled {
		outerAccUnrolled(d, x, w, g, acc)
		return
	}
	outerAccScalar(d, x, w, g, acc)
}

func outerAccScalar(d float32, x, w, g, acc []float32) {
	for i := range x {
		acc[i] += d * w[i]
		g[i] += d * x[i]
	}
}

func outerAccUnrolled(d float32, x, w, g, acc []float32) {
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xx := x[i : i+4 : i+4]
		ww := w[i : i+4 : i+4]
		gg := g[i : i+4 : i+4]
		aa := acc[i : i+4 : i+4]
		aa[0] += d * ww[0]
		aa[1] += d * ww[1]
		aa[2] += d * ww[2]
		aa[3] += d * ww[3]
		gg[0] += d * xx[0]
		gg[1] += d * xx[1]
		gg[2] += d * xx[2]
		gg[3] += d * xx[3]
	}
	for i := n; i < len(x); i++ {
		acc[i] += d * w[i]
		g[i] += d * x[i]
	}
}

// SparseOuterAcc is OuterAcc over a sparse input: for each nonzero t,
// g[idx[t]] += d*val[t] (outer-product accumulate into the touched
// columns) and acc[t] += d*w[idx[t]] (activation-gradient gather aligned
// with the sparse input positions). idx, val and acc must have equal
// length.
func SparseOuterAcc(d float32, idx []int32, val, w, g, acc []float32) {
	if len(idx) != len(val) || len(idx) != len(acc) {
		panic("vecmath: SparseOuterAcc length mismatch")
	}
	for t, i := range idx {
		acc[t] += d * w[i]
		g[i] += d * val[t]
	}
}

// IndexedAxpy scatters g[pos[t]] += d*val[t] for each sparse component —
// SparseAxpy with the write positions decoupled from the read ids. It is
// the sharded backward scatter's row kernel: pos maps the element's input
// columns into a worker-private compact gradient row, so the loop body is
// SparseAxpy's arithmetic in the same order, just aimed at memory no
// other thread writes. pos and val must have equal length.
func IndexedAxpy(d float32, pos []int32, val []float32, g []float32) {
	if len(pos) != len(val) {
		panic("vecmath: IndexedAxpy position/value length mismatch")
	}
	for t, p := range pos {
		g[p] += d * val[t]
	}
}

// IndexedOuterAcc fuses IndexedAxpy with the activation-gradient gather:
// for each nonzero t, acc[t] += d*w[idx[t]] and g[pos[t]] += d*val[t].
// It is SparseOuterAcc with the gradient writes redirected through pos
// into a worker-private compact row; the per-element arithmetic and order
// are identical, so compact and full-width rows accumulate bit-identical
// sums. idx, pos, val and acc must have equal length.
func IndexedOuterAcc(d float32, idx, pos []int32, val, w, g, acc []float32) {
	if len(idx) != len(val) || len(idx) != len(pos) || len(idx) != len(acc) {
		panic("vecmath: IndexedOuterAcc length mismatch")
	}
	for t, i := range idx {
		acc[t] += d * w[i]
		g[pos[t]] += d * val[t]
	}
}

// Axpy computes y += alpha*x element-wise. The slices must have equal
// length.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	if Unrolled {
		axpyUnrolled(alpha, x, y)
		return
	}
	axpyScalar(alpha, x, y)
}

func axpyScalar(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func axpyUnrolled(alpha float32, x, y []float32) {
	n := len(x) &^ 7
	for i := 0; i < n; i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
		yy[4] += alpha * xx[4]
		yy[5] += alpha * xx[5]
		yy[6] += alpha * xx[6]
		yy[7] += alpha * xx[7]
	}
	for i := n; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// SparseAxpy scatters y[idx[j]] += alpha*val[j] for each sparse component.
func SparseAxpy(alpha float32, idx []int32, val []float32, y []float32) {
	if len(idx) != len(val) {
		panic("vecmath: SparseAxpy index/value length mismatch")
	}
	for j, i := range idx {
		y[i] += alpha * val[j]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float32) float32 {
	if len(x) == 0 {
		panic("vecmath: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of x, breaking ties in
// favour of the lowest index. It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("vecmath: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Softmax overwrites x with softmax(x), computed with the max-subtraction
// trick for numerical stability. The sum is accumulated in float64.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	m := Max(x)
	var sum float64
	for i, v := range x {
		e := float32(math.Exp(float64(v - m)))
		x[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	Scale(inv, x)
}

// ReLU overwrites x with max(x, 0).
func ReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// Norm2 returns the Euclidean norm of x, accumulated in float64.
func Norm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}
