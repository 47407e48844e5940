package vecmath

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestBF16RoundTripExact: values already representable in bfloat16 (8
// mantissa bits) must survive the encode/decode round trip bit-for-bit.
func TestBF16RoundTripExact(t *testing.T) {
	for _, v := range []float32{0, 1, -1, 0.5, -0.375, 2, 96, -1024, 1.0 / 256,
		float32(math.Inf(1)), float32(math.Inf(-1))} {
		if got := F32FromBF16(BF16FromF32(v)); got != v {
			t.Fatalf("round trip of %v gave %v", v, got)
		}
	}
	// Negative zero keeps its sign bit.
	nz := float32(math.Copysign(0, -1))
	if got := F32FromBF16(BF16FromF32(nz)); math.Signbit(float64(got)) != true {
		t.Fatalf("-0 lost its sign: %v", got)
	}
}

// TestBF16RoundToNearestEven pins the rounding rule on exact-tie bit
// patterns: a tie (low 16 bits = 0x8000) rounds to the neighbor whose
// retained mantissa is even, both when that means rounding up and down.
func TestBF16RoundToNearestEven(t *testing.T) {
	cases := []struct {
		bits uint32
		want uint16
	}{
		// 0x3f80_8000: tie above 1.0 (stored mantissa even) — rounds down.
		{0x3f808000, 0x3f80},
		// 0x3f81_8000: tie above 1.0078125 (stored mantissa odd) — rounds up.
		{0x3f818000, 0x3f82},
		// Just below / above the tie round toward the nearer neighbor.
		{0x3f817fff, 0x3f81},
		{0x3f818001, 0x3f82},
	}
	for _, c := range cases {
		if got := BF16FromF32(math.Float32frombits(c.bits)); got != c.want {
			t.Fatalf("BF16FromF32(%#08x) = %#04x, want %#04x", c.bits, got, c.want)
		}
	}
}

// TestBF16NaNQuieted: NaNs must stay NaN through the conversion — naive
// rounding can carry a signalling NaN's payload into the exponent and
// produce an infinity.
func TestBF16NaNQuieted(t *testing.T) {
	for _, bits := range []uint32{
		0x7fc00000, // canonical quiet NaN
		0x7f800001, // signalling NaN with tiny payload (rounds to Inf if not special-cased)
		0xffbfffff, // negative NaN, payload all ones below the quiet bit
	} {
		h := BF16FromF32(math.Float32frombits(bits))
		back := F32FromBF16(h)
		if !math.IsNaN(float64(back)) {
			t.Fatalf("NaN %#08x converted to %v (bits %#04x)", bits, back, h)
		}
	}
}

// TestBF16RelativeErrorBound: random finite values must decode within the
// format's 2⁻⁸ relative error.
func TestBF16RelativeErrorBound(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 10000; i++ {
		v := r.NormFloat32() * float32(math.Pow(2, float64(r.Intn(21)-10)))
		back := F32FromBF16(BF16FromF32(v))
		if err := math.Abs(float64(back-v)); err > math.Abs(float64(v))/256+1e-30 {
			t.Fatalf("bf16(%v) = %v, relative error %v", v, back, err/math.Abs(float64(v)))
		}
	}
}

func TestEncodeBF16(t *testing.T) {
	src := []float32{1, -2.5, 0, 3e4}
	dst := make([]uint16, len(src))
	EncodeBF16(dst, src)
	for i, v := range src {
		if dst[i] != BF16FromF32(v) {
			t.Fatalf("EncodeBF16[%d] = %#04x, want %#04x", i, dst[i], BF16FromF32(v))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EncodeBF16(dst[:2], src)
}

// TestAxpyBF16VariantsAgree: the 8-way unrolled kernel and the scalar loop
// decode identical values and must produce bit-identical results (both are
// one FMA per element in the same order).
func TestAxpyBF16VariantsAgree(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		x := make([]uint16, n)
		y1 := make([]float32, n)
		for i := range x {
			x[i] = BF16FromF32(r.NormFloat32())
			y1[i] = r.NormFloat32()
		}
		y2 := append([]float32(nil), y1...)
		want := append([]float32(nil), y1...)
		const alpha = 0.75
		for i := range want {
			want[i] += alpha * F32FromBF16(x[i])
		}
		defer func(prev bool) { Unrolled = prev }(Unrolled)
		Unrolled = false
		AxpyBF16(alpha, x, y1)
		Unrolled = true
		AxpyBF16(alpha, x, y2)
		for i := range want {
			if y1[i] != want[i] || y2[i] != want[i] {
				t.Fatalf("n=%d i=%d: scalar %v unrolled %v want %v", n, i, y1[i], y2[i], want[i])
			}
		}
	}
}

func TestQuantAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AxpyBF16 length mismatch did not panic")
		}
	}()
	AxpyBF16(1, make([]uint16, 3), make([]float32, 4))
}

// Quantized-mirror column shapes: the scatter form Axpys one out-length
// column slice per input nonzero. The bf16 kernel reads half the bytes of
// the fp32 one — the per-kernel half of the BENCH_scaling mirror ablation.

func benchBF16Col(n int) ([]uint16, []float32) {
	r := rng.New(4)
	x := make([]uint16, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = BF16FromF32(r.NormFloat32())
		y[i] = r.NormFloat32()
	}
	return x, y
}

func BenchmarkAxpyF32Col4096(b *testing.B) {
	x, y := benchVecs(4096)
	b.SetBytes(4096 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
	benchSink += y[0]
}

func BenchmarkAxpyBF16Col4096(b *testing.B) {
	x, y := benchBF16Col(4096)
	b.SetBytes(4096 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AxpyBF16(0.5, x, y)
	}
	benchSink += y[0]
}
