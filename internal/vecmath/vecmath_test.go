package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func randVec(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

// TestDotVariantsAgree is the Fig. 10 correctness invariant: the unrolled
// "SIMD" kernels must compute the same values as the scalar ones.
func TestDotVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 200
		r := rng.New(seed)
		a, b := randVec(r, n), randVec(r, n)
		return almostEq(float64(dotScalar(a, b)), float64(dotUnrolled(a, b)), 1e-4)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		w := randVec(r, 256)
		nnz := int(nRaw) % 64
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		for i := range idx {
			idx[i] = int32(r.Intn(256))
			val[i] = r.NormFloat32()
		}
		return almostEq(float64(sparseDotScalar(idx, val, w)), float64(sparseDotUnrolled(idx, val, w)), 1e-4)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotMatchesDenseDot(t *testing.T) {
	r := rng.New(2)
	w := randVec(r, 128)
	dense := make([]float32, 128)
	var idx []int32
	var val []float32
	for i := 0; i < 20; i++ {
		j := int32(r.Intn(128))
		v := r.NormFloat32()
		idx = append(idx, j)
		val = append(val, v)
		dense[j] += v
	}
	if !almostEq(float64(SparseDot(idx, val, w)), float64(Dot(dense, w)), 1e-4) {
		t.Fatalf("SparseDot %v != Dot %v", SparseDot(idx, val, w), Dot(dense, w))
	}
}

func TestAxpyVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, alpha float32) bool {
		n := int(nRaw) % 100
		if math.IsNaN(float64(alpha)) || math.IsInf(float64(alpha), 0) {
			alpha = 1.5
		}
		alpha = float32(math.Mod(float64(alpha), 8)) // keep products finite
		r := rng.New(seed)
		x := randVec(r, n)
		y1 := randVec(r, n)
		y2 := append([]float32(nil), y1...)
		axpyScalar(alpha, x, y1)
		axpyUnrolled(alpha, x, y2)
		for i := range y1 {
			if !almostEq(float64(y1[i]), float64(y2[i]), 1e-4) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseAxpy(t *testing.T) {
	y := make([]float32, 8)
	SparseAxpy(2, []int32{1, 3, 1}, []float32{1, 2, 3}, y)
	want := []float32{0, 8, 0, 4, 0, 0, 0, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

// TestDotBiasReLUMatchesUnfused: the fused forward kernel must equal the
// composition of its parts (dot, bias add, ReLU clamp) for both the dense
// and the sparse input form.
func TestDotBiasReLUMatchesUnfused(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, b float32) bool {
		n := int(nRaw) % 200
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			b = 0.25
		}
		b = float32(math.Mod(float64(b), 4))
		r := rng.New(seed)
		w, x := randVec(r, n), randVec(r, n)
		want := b + Dot(w, x)
		if want < 0 {
			want = 0
		}
		return DotBiasReLU(b, w, x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotBiasReLUMatchesUnfused(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		w := randVec(r, 256)
		nnz := int(nRaw) % 64
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		for i := range idx {
			idx[i] = int32(r.Intn(256))
			val[i] = r.NormFloat32()
		}
		b := r.NormFloat32()
		want := b + SparseDot(idx, val, w)
		if want < 0 {
			want = 0
		}
		return SparseDotBiasReLU(b, idx, val, w) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOuterAccMatchesScalarLoops: the fused backward kernel must be
// bit-identical to the separate acc/gradient loops it replaces — every
// cell receives exactly one add in both formulations — and the unrolled
// variant must match the scalar one exactly.
func TestOuterAccMatchesScalarLoops(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, d float32) bool {
		n := int(nRaw) % 100
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			d = 0.5
		}
		d = float32(math.Mod(float64(d), 8))
		r := rng.New(seed)
		x, w := randVec(r, n), randVec(r, n)
		g1, acc1 := randVec(r, n), randVec(r, n)
		g2 := append([]float32(nil), g1...)
		acc2 := append([]float32(nil), acc1...)
		g3 := append([]float32(nil), g1...)
		acc3 := append([]float32(nil), acc1...)
		for i := range x { // the pre-fusion reference loops
			acc1[i] += d * w[i]
			g1[i] += d * x[i]
		}
		outerAccScalar(d, x, w, g2, acc2)
		outerAccUnrolled(d, x, w, g3, acc3)
		for i := range x {
			if g1[i] != g2[i] || acc1[i] != acc2[i] || g1[i] != g3[i] || acc1[i] != acc3[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSparseOuterAcc checks the sparse fused kernel against its reference
// loop, including a repeated index (the gradient column must accumulate
// both contributions and the acc gather must see the weight value both
// times).
func TestSparseOuterAcc(t *testing.T) {
	w := []float32{1, 2, 3, 4}
	idx := []int32{1, 3, 1}
	val := []float32{1, 2, 3}
	g := make([]float32, 4)
	acc := make([]float32, 3)
	SparseOuterAcc(2, idx, val, w, g, acc)
	wantG := []float32{0, 8, 0, 4}
	wantAcc := []float32{4, 8, 4}
	for i := range wantG {
		if g[i] != wantG[i] {
			t.Fatalf("g = %v, want %v", g, wantG)
		}
	}
	for i := range wantAcc {
		if acc[i] != wantAcc[i] {
			t.Fatalf("acc = %v, want %v", acc, wantAcc)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		r := rng.New(seed)
		x := randVec(r, n)
		big := vecIdxMax(x)
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		// Sums to 1 and preserves the argmax.
		return math.Abs(sum-1) < 1e-4 && ArgMax(x) == big
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func vecIdxMax(x []float32) int {
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1000, 1001, 999}
	Softmax(x)
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", x)
		}
	}
	if ArgMax(x) != 1 {
		t.Fatalf("argmax shifted: %v", x)
	}
}

func TestReLU(t *testing.T) {
	x := []float32{-1, 0, 2, -0.5}
	ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", x, want)
		}
	}
}

func TestArgMaxTieBreak(t *testing.T) {
	if got := ArgMax([]float32{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ArgMax tie = %d, want lowest index 1", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestScaleAndFill(t *testing.T) {
	x := []float32{1, 2, 3}
	Scale(2, x)
	if x[2] != 6 {
		t.Fatalf("Scale: %v", x)
	}
	Fill(x, 7)
	for _, v := range x {
		if v != 7 {
			t.Fatalf("Fill: %v", x)
		}
	}
}

func TestNorm2(t *testing.T) {
	if v := Norm2([]float32{3, 4}); !almostEq(float64(v), 5, 1e-6) {
		t.Fatalf("Norm2 = %v", v)
	}
}

func TestUnrolledFlagDispatch(t *testing.T) {
	defer func(prev bool) { Unrolled = prev }(Unrolled)
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := []float32{9, 8, 7, 6, 5, 4, 3, 2, 1}
	Unrolled = true
	d1 := Dot(a, b)
	Unrolled = false
	d2 := Dot(a, b)
	if !almostEq(float64(d1), float64(d2), 1e-6) {
		t.Fatalf("dispatch mismatch: %v vs %v", d1, d2)
	}
}
