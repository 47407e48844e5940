package kernels

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

func randRows(r *rng.RNG, in, out int) [][]float32 {
	rows := make([][]float32, out)
	for j := range rows {
		rows[j] = make([]float32, in)
		for i := range rows[j] {
			rows[j][i] = r.NormFloat32()
		}
	}
	return rows
}

// TestMirrorFormatCoherence: for every format, a Rebuild followed by
// random dual-writes must leave At reading exactly what the format's
// encoder stores for the current row value.
func TestMirrorFormatCoherence(t *testing.T) {
	const in, out = 29, 17
	for _, format := range []MirrorFormat{MirrorFP32, MirrorBF16} {
		t.Run(format.String(), func(t *testing.T) {
			r := rng.New(21)
			rows := randRows(r, in, out)
			for _, ar := range []*arena.Arena{nil, arena.New(0)} {
				m := NewMirrorFormat(in, out, format, ar)
				m.Rebuild(rows)
				for step := 0; step < 400; step++ {
					j, i := int32(r.Intn(out)), int32(r.Intn(in))
					v := r.NormFloat32()
					rows[j][i] = v
					m.Set(j, i, v)
				}
				for j := int32(0); int(j) < out; j++ {
					for i := int32(0); int(i) < in; i++ {
						v, got := rows[j][i], m.At(j, i)
						switch format {
						case MirrorFP32:
							if got != v {
								t.Fatalf("fp32 At(%d,%d) = %v, want %v", j, i, got, v)
							}
						case MirrorBF16:
							if want := vecmath.F32FromBF16(vecmath.BF16FromF32(v)); got != want {
								t.Fatalf("bf16 At(%d,%d) = %v, want %v", j, i, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestScatterForwardQuantizedTolerance: the bf16 mirror's scatter kernel
// must track the fp32 scatter within the format's 2⁻⁸-per-weight error
// budget on the shape the first hidden layer runs (sparse input, full
// output).
func TestScatterForwardQuantizedTolerance(t *testing.T) {
	const in, out, nnz = 512, 96, 40
	r := rng.New(33)
	rows := randRows(r, in, out)
	b := make([]float32, out)
	inIds := make([]int32, nnz)
	inVals := make([]float32, nnz)
	for t2 := range inIds {
		inIds[t2] = int32((t2 * 13) % in)
		inVals[t2] = r.NormFloat32()
	}

	ref := make([]float32, out)
	f32 := NewMirror(in, out)
	f32.Rebuild(rows)
	ScatterForward(ref, f32, b, inIds, inVals, false)

	// 2⁻⁸ relative per weight, loose fixed bound.
	bf16 := NewMirrorFormat(in, out, MirrorBF16, nil)
	bf16.Rebuild(rows)
	dst := make([]float32, out)
	ScatterForward(dst, bf16, b, inIds, inVals, false)
	for j := range ref {
		if !withinTol(float64(dst[j]), float64(ref[j]), 2e-2) {
			t.Fatalf("bf16 scatter[%d] = %v, fp32 = %v", j, dst[j], ref[j])
		}
	}
}

// TestCalibratedCrossoverBoundsAndStability: the measured crossover must
// land inside the clamp window and be cached across calls.
func TestCalibratedCrossoverBounds(t *testing.T) {
	c := CalibratedCrossover()
	if c < calibMin || c > calibMax {
		t.Fatalf("calibrated crossover %v outside [%v, %v]", c, calibMin, calibMax)
	}
	if again := CalibratedCrossover(); again != c {
		t.Fatalf("second call returned %v, first %v", again, c)
	}
}

func TestMirrorFormatString(t *testing.T) {
	for f, want := range map[MirrorFormat]string{MirrorFP32: "fp32", MirrorBF16: "bf16"} {
		if f.String() != want {
			t.Errorf("MirrorFormat(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}
