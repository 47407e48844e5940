package kernels

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// naiveForward is the reference per-neuron formulation the engine's forms
// are checked against: for each active neuron, bias plus an explicit
// inner-product loop, then an optional ReLU clamp — exactly the shape of
// the pre-engine core hot loop.
func naiveForward(dst []float32, ids []int32, w [][]float32, b []float32, inIds []int32, inVals []float32, inFull, relu bool) {
	row := func(a int, j int32) {
		s := b[j]
		if inFull {
			for i, x := range inVals {
				s += x * w[j][i]
			}
		} else {
			for t, i := range inIds {
				s += inVals[t] * w[j][i]
			}
		}
		if relu && s < 0 {
			s = 0
		}
		dst[a] = s
	}
	if ids == nil {
		for j := range dst {
			row(j, int32(j))
		}
		return
	}
	for a, j := range ids {
		row(a, j)
	}
}

type forwardCase struct {
	in, out int
	w       [][]float32
	b       []float32
	mirror  *Mirror
	inIds   []int32
	inVals  []float32
	inFull  bool
	ids     []int32 // nil = full output
	relu    bool
}

// randCase draws one random layer shape, input (sparse or dense), and
// active set (full or a random fraction of the output).
func randCase(r *rng.RNG) forwardCase {
	c := forwardCase{
		in:  1 + r.Intn(300),
		out: 1 + r.Intn(200),
	}
	c.w = make([][]float32, c.out)
	c.b = make([]float32, c.out)
	for j := range c.w {
		c.w[j] = make([]float32, c.in)
		for i := range c.w[j] {
			c.w[j][i] = r.NormFloat32()
		}
		c.b[j] = r.NormFloat32()
	}
	c.mirror = NewMirror(c.in, c.out)
	c.mirror.Rebuild(c.w)

	c.inFull = r.Intn(3) == 0
	if c.inFull {
		c.inVals = make([]float32, c.in)
		for i := range c.inVals {
			c.inVals[i] = r.NormFloat32()
		}
	} else {
		nnz := 1 + r.Intn(c.in)
		seen := make(map[int32]bool, nnz)
		for len(c.inIds) < nnz {
			i := int32(r.Intn(c.in))
			if !seen[i] {
				seen[i] = true
				c.inIds = append(c.inIds, i)
				c.inVals = append(c.inVals, r.NormFloat32())
			}
		}
	}

	if r.Intn(2) == 0 { // active-sparse output at a random fraction
		frac := []float64{0.01, 0.1, 0.5, 0.9}[r.Intn(4)]
		want := int(frac * float64(c.out))
		if want < 1 {
			want = 1
		}
		seen := make(map[int32]bool, want)
		for len(c.ids) < want {
			j := int32(r.Intn(c.out))
			if !seen[j] {
				seen[j] = true
				c.ids = append(c.ids, j)
			}
		}
		slices.Sort(c.ids)
	}
	c.relu = r.Intn(2) == 0
	return c
}

func (c *forwardCase) nActive() int {
	if c.ids == nil {
		return c.out
	}
	return len(c.ids)
}

// TestGatherMatchesNaiveBitwise: the gather form preserves the reference
// path's per-row summation order, so its results must be bit-identical —
// the "bitwise where the summation order is preserved" half of the
// equivalence contract.
func TestGatherMatchesNaiveBitwise(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		c := randCase(r)
		want := make([]float32, c.nActive())
		got := make([]float32, c.nActive())
		naiveForward(want, c.ids, c.w, c.b, c.inIds, c.inVals, c.inFull, c.relu)
		GatherForward(got, c.ids, c.w, c.b, c.inIds, c.inVals, c.inFull, c.relu)
		for a := range want {
			if got[a] != want[a] {
				// The unrolled kernels reassociate the per-row sum; that
				// is the one permitted deviation, and it must stay within
				// the ULP bound.
				if !withinTol(float64(got[a]), float64(want[a]), 1e-5) {
					t.Fatalf("trial %d (in=%d out=%d active=%d inFull=%v relu=%v): gather[%d] = %v, naive = %v",
						trial, c.in, c.out, c.nActive(), c.inFull, c.relu, a, got[a], want[a])
				}
			}
		}
	}
}

// TestScatterMatchesNaiveWithinTol: the scatter form reassociates the sum
// input-major, so it is held to the 1e-5 relative bound rather than bits.
// Scatter only exists for full outputs with sparse inputs.
func TestScatterMatchesNaiveWithinTol(t *testing.T) {
	r := rng.New(11)
	tested := 0
	for trial := 0; tested < 120; trial++ {
		c := randCase(r)
		if c.ids != nil || c.inFull {
			continue
		}
		tested++
		want := make([]float32, c.out)
		got := make([]float32, c.out)
		naiveForward(want, nil, c.w, c.b, c.inIds, c.inVals, false, c.relu)
		ScatterForward(got, c.mirror, c.b, c.inIds, c.inVals, c.relu)
		for j := range want {
			if !withinTol(float64(got[j]), float64(want[j]), 1e-5) {
				t.Fatalf("case %d (in=%d out=%d nnz=%d relu=%v): scatter[%d] = %v, naive = %v",
					tested, c.in, c.out, len(c.inIds), c.relu, j, got[j], want[j])
			}
		}
	}
}

func withinTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestMirrorSetTracksRows: dual-writing single cells keeps the mirror
// coherent with the rows it shadows.
func TestMirrorSetTracksRows(t *testing.T) {
	r := rng.New(3)
	const in, out = 37, 19
	rows := make([][]float32, out)
	for j := range rows {
		rows[j] = make([]float32, in)
		for i := range rows[j] {
			rows[j][i] = r.NormFloat32()
		}
	}
	m := NewMirror(in, out)
	m.Rebuild(rows)
	for step := 0; step < 500; step++ {
		j, i := int32(r.Intn(out)), int32(r.Intn(in))
		v := r.NormFloat32()
		rows[j][i] = v
		m.Set(j, i, v)
	}
	for i := int32(0); int(i) < in; i++ {
		col := m.Col(i)
		for j := range col {
			if col[j] != rows[j][i] {
				t.Fatalf("mirror[%d][%d] = %v, rows = %v", i, j, col[j], rows[j][i])
			}
		}
	}
}

// TestForwardFormPlan pins the plan's decision table: forced forms are
// honored (scatter degrades to gather without a mirror or on dense
// input), and the auto plan switches on the measured density crossover.
func TestForwardFormPlan(t *testing.T) {
	auto := Config{}.WithDefaults()
	cases := []struct {
		name              string
		cfg               Config
		nnz, in           int
		inFull, hasMirror bool
		want              Form
	}{
		{"gather forced", Config{Force: FormGather}, 10, 1000, false, true, FormGather},
		{"scatter forced", Config{Force: FormScatter}, 10, 1000, false, true, FormScatter},
		{"scatter forced, no mirror", Config{Force: FormScatter}, 10, 1000, false, false, FormGather},
		{"scatter forced, dense input", Config{Force: FormScatter}, 0, 1000, true, true, FormGather},
		{"auto sparse input + mirror", auto, 10, 1000, false, true, FormScatter},
		{"auto at crossover", auto, int(DefaultScatterMaxDensity * 1000), 1000, false, true, FormGather},
		{"auto dense input", auto, 0, 1000, true, true, FormGather},
		{"auto no mirror", auto, 10, 1000, false, false, FormGather},
	}
	for _, tc := range cases {
		if got := tc.cfg.ForwardForm(tc.nnz, tc.in, tc.inFull, tc.hasMirror); got != tc.want {
			t.Errorf("%s: ForwardForm = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWorkspaceEnsureAccReuses: growing once and reusing is the
// allocation-free steady-state contract.
func TestWorkspaceEnsureAccReuses(t *testing.T) {
	var w Workspace
	a := w.EnsureAcc(64)
	if len(a) != 64 {
		t.Fatalf("len = %d", len(a))
	}
	a[0] = 42
	b := w.EnsureAcc(32)
	if len(b) != 32 || &a[0] != &b[0] {
		t.Fatal("EnsureAcc reallocated on shrink")
	}
	c := w.EnsureAcc(128)
	if len(c) != 128 {
		t.Fatalf("len = %d", len(c))
	}
}

func TestFormString(t *testing.T) {
	for f, want := range map[Form]string{FormAuto: "auto", FormGather: "gather", FormScatter: "scatter"} {
		if f.String() != want {
			t.Errorf("Form(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}
