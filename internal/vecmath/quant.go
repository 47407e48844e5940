package vecmath

import "math"

// Quantized row kernels. The scatter-form forward streams contiguous
// column slices of a weight mirror (internal/kernels); storing that mirror
// in BF16 halves the bytes each Axpy moves, which is
// what the follow-up paper "Accelerating SLIDE Deep Learning on Modern
// CPUs" (MLSys 2021) reports as the second big lever after layout. The
// kernels here are the mirror format's decode+multiply-accumulate loops;
// the format itself (dual-write coherence) lives in internal/kernels.

// BF16FromF32 converts a float32 to bfloat16 (the high 16 bits of the
// IEEE-754 encoding) with round-to-nearest-even. NaNs are quieted rather
// than rounded, so they cannot turn into infinities.
func BF16FromF32(x float32) uint16 {
	u := math.Float32bits(x)
	if u&0x7fffffff > 0x7f800000 { // NaN
		return uint16(u>>16) | 0x0040
	}
	u += 0x7fff + (u >> 16 & 1)
	return uint16(u >> 16)
}

// F32FromBF16 widens a bfloat16 back to float32 (exact: bf16 values are a
// subset of float32).
func F32FromBF16(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// EncodeBF16 converts src into dst with round-to-nearest-even. The slices
// must have equal length.
func EncodeBF16(dst []uint16, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: EncodeBF16 length mismatch")
	}
	for i, v := range src {
		dst[i] = BF16FromF32(v)
	}
}

// AxpyBF16 computes y += alpha*x element-wise over a bfloat16 x — the
// quantized mirror's column-Axpy. It reads half the bytes of the float32
// Axpy; the decode is one shift per element, so on column slices longer
// than the cache the kernel is memory-bound and faster than its fp32
// counterpart. The slices must have equal length.
func AxpyBF16(alpha float32, x []uint16, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: AxpyBF16 length mismatch")
	}
	if Unrolled {
		axpyBF16Unrolled(alpha, x, y)
		return
	}
	for i := range x {
		y[i] += alpha * F32FromBF16(x[i])
	}
}

func axpyBF16Unrolled(alpha float32, x []uint16, y []float32) {
	n := len(x) &^ 7
	for i := 0; i < n; i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		yy[0] += alpha * math.Float32frombits(uint32(xx[0])<<16)
		yy[1] += alpha * math.Float32frombits(uint32(xx[1])<<16)
		yy[2] += alpha * math.Float32frombits(uint32(xx[2])<<16)
		yy[3] += alpha * math.Float32frombits(uint32(xx[3])<<16)
		yy[4] += alpha * math.Float32frombits(uint32(xx[4])<<16)
		yy[5] += alpha * math.Float32frombits(uint32(xx[5])<<16)
		yy[6] += alpha * math.Float32frombits(uint32(xx[6])<<16)
		yy[7] += alpha * math.Float32frombits(uint32(xx[7])<<16)
	}
	for i := n; i < len(x); i++ {
		y[i] += alpha * math.Float32frombits(uint32(x[i])<<16)
	}
}
