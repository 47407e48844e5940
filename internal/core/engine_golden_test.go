package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/optim"
)

// The engine goldens pin the training engine's numbers as SHA-256 digests
// over float bits:
//
//   - fwd/<arch>/mode<m>/<kernel>: every layer's sorted active ids and
//     activations for each equivInputs element, per equivArchs network,
//     forward mode and kernel form.
//   - bwd/<arch>/x<i>: one element's extracted SparseDelta (KernelAuto).
//   - adam/<run>: weights, biases, Adam moments and the extracted cell
//     count after a manual multi-batch HOGWILD run.
//   - batchsync/replay: the delta extracted from an id-sharded BatchSync
//     replay.
//
// Every network pins ScatterCrossover, so KernelAuto's gather/scatter plan
// does not depend on the machine's calibration. The adam and batchsync
// digests were recorded while the shared-gradient backward and the fused
// Adam step still existed as references, and both produced them bit for
// bit, so the digests carry those reference results forward. Regenerate
// only for a deliberate semantic change
// (CORE_PRINT_GOLDEN=1 go test ./internal/core -run TestPrintEngineGoldens -v).
var engineGoldens = map[string]string{
	"adam/extract-apply":               "666a2636e34aca9a8b551a1715ebd19a8dd6bf6f5b1ab272c3ab05f8e5c0bc20",
	"adam/sharded-hogwild":             "ba1020b2e2a961ff48cc2622c76d6262e8e510b5890b3a9a5df871bbb431c974",
	"batchsync/replay":                 "52e0067eea97a791298c4f19daf844f9bbcb8ab32f0b85737b948cf9bc20c65e",
	"bwd/dense/x0":                     "40a70decc88a90e5cc69ea9e7be9447b17acb9454da33b9cff9a705af3077102",
	"bwd/dense/x1":                     "abccb3f7ed6d11e5bbd4d79945855fcfb41daf3c7c57da6cf917cd10a45df515",
	"bwd/dense/x2":                     "16d0e1531ec97ec6ade5e3e6597ef16cb20489525c4fbd7df0b133fef0410c2d",
	"bwd/paper/x0":                     "9870f91d9f9e9a865aa9e6e696c86e209d4da9d33f16b3965dece6bbc6e57365",
	"bwd/paper/x1":                     "b0c02b23e6287ea3505580e84a23e5a307aaee28984e1100392ab8447d51815d",
	"bwd/paper/x2":                     "4789efc542325708f7dcb88709eb52c0cb648b43c15c0df33d9701920868385a",
	"bwd/sampled-middle/x0":            "4ffefff9f3d8f484d85fa49ed258591a91e3ba2bec71395c76f1c4234046ab09",
	"bwd/sampled-middle/x1":            "8797d9c161ddbc2580110f698ac6b01b0f936aef15f11eb5a9d1b0b1aab11fe7",
	"bwd/sampled-middle/x2":            "1668a0d33400187d46ced15aedb78a90dfc4e9cc47f1dbcb82475f8aa2fdf93c",
	"fwd/dense/mode0/auto":             "ea901bb968ee0f69255e335063a799d6371480c5d1cd6c5c40c5bf2bfea7e088",
	"fwd/dense/mode0/gather":           "d8d18087b6959c0968080ea864bc9f145eb832af3beaeb9ee5ea00a6ded9010f",
	"fwd/dense/mode0/scatter":          "0dfb3708cc786fb18523af78f8c0eb0d1690557ef078a7770bf74b9e5cd8f99e",
	"fwd/dense/mode1/auto":             "ea901bb968ee0f69255e335063a799d6371480c5d1cd6c5c40c5bf2bfea7e088",
	"fwd/dense/mode1/gather":           "d8d18087b6959c0968080ea864bc9f145eb832af3beaeb9ee5ea00a6ded9010f",
	"fwd/dense/mode1/scatter":          "0dfb3708cc786fb18523af78f8c0eb0d1690557ef078a7770bf74b9e5cd8f99e",
	"fwd/dense/mode2/auto":             "ea901bb968ee0f69255e335063a799d6371480c5d1cd6c5c40c5bf2bfea7e088",
	"fwd/dense/mode2/gather":           "d8d18087b6959c0968080ea864bc9f145eb832af3beaeb9ee5ea00a6ded9010f",
	"fwd/dense/mode2/scatter":          "0dfb3708cc786fb18523af78f8c0eb0d1690557ef078a7770bf74b9e5cd8f99e",
	"fwd/paper/mode0/auto":             "a4aad1034bc4a3158bcd33a22dc1c54dee5a30071f67b4a661438d32988f4587",
	"fwd/paper/mode0/gather":           "a4d40242f0d19b96b92b06de98a00132f3f463e1f853bbbf784df39f0604cb80",
	"fwd/paper/mode0/scatter":          "2c40a3f217e95e9bd6bb34b77281666b715c2b53fc4a65d2970e2f4a51693395",
	"fwd/paper/mode1/auto":             "40e705460229759e517c747cf6aed4f962dde636bde6c0805488ba5f8e489e26",
	"fwd/paper/mode1/gather":           "9e0eec84605fec0d4b2bb67677e88516ef586ed92e313bfab28d663cc9a7ca66",
	"fwd/paper/mode1/scatter":          "43cc62be0df4b62915b314ed83e409a3296678dc0019560c33dca25e7b634260",
	"fwd/paper/mode2/auto":             "2dcf397cc7e4d176e0b0933c9bf57bbd1d0db5211bb505b4244ee0cd410aafbc",
	"fwd/paper/mode2/gather":           "8a482b6f0a1a60ad36ce640a67d68123967491900009f96f344252d4ad75893b",
	"fwd/paper/mode2/scatter":          "16fa854d4ae2213b49220ad992159b7851212bcfc7b015d5f62378758293b84c",
	"fwd/sampled-middle/mode0/auto":    "de6d6e0419f17532e09995c4529aa4941969c45f8620ae9753ac48971fc9f872",
	"fwd/sampled-middle/mode0/gather":  "233fc132c44c842e89ec1c9c116282a3ed4d67f7848578600db96b2393dd7e7e",
	"fwd/sampled-middle/mode0/scatter": "0ff85ea066580841fd1ddee4d86f17beeb8287f65486e3eca528a922dcdd6236",
	"fwd/sampled-middle/mode1/auto":    "de6d6e0419f17532e09995c4529aa4941969c45f8620ae9753ac48971fc9f872",
	"fwd/sampled-middle/mode1/gather":  "233fc132c44c842e89ec1c9c116282a3ed4d67f7848578600db96b2393dd7e7e",
	"fwd/sampled-middle/mode1/scatter": "0ff85ea066580841fd1ddee4d86f17beeb8287f65486e3eca528a922dcdd6236",
	"fwd/sampled-middle/mode2/auto":    "96ff7cd86c51542566c2463891c115409b8ea59b0b3ddbcb6c16b0afb264f695",
	"fwd/sampled-middle/mode2/gather":  "c5162e231be645d602b5577428293677a31d0810e25c3decf7c826f2de3fa855",
	"fwd/sampled-middle/mode2/scatter": "cb64f10b4caa9e9a1c5d6a44d54b893a4123d8b37765400f4196900d255552fe",
}

// goldenCrossover is the pinned gather/scatter density crossover.
const goldenCrossover = 0.25

// goldenDigest accumulates little-endian words into a SHA-256.
type goldenDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newGoldenDigest() *goldenDigest { return &goldenDigest{h: sha256.New()} }

func (d *goldenDigest) u32(v uint32) {
	binary.LittleEndian.PutUint32(d.buf[:4], v)
	d.h.Write(d.buf[:4])
}

func (d *goldenDigest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *goldenDigest) f32(v float32) { d.u32(math.Float32bits(v)) }

func (d *goldenDigest) i32s(vs []int32) {
	d.u32(uint32(len(vs)))
	for _, v := range vs {
		d.u32(uint32(v))
	}
}

func (d *goldenDigest) f32s(vs []float32) {
	d.u32(uint32(len(vs)))
	for _, v := range vs {
		d.f32(v)
	}
}

func (d *goldenDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// forwardState hashes every layer's active state, (id, activation) pairs
// in ascending id order.
func (d *goldenDigest) forwardState(st *elemState) {
	for li := range st.layers {
		ls := &st.layers[li]
		ids := make([]int32, len(ls.vals))
		for a := range ids {
			if ls.full {
				ids[a] = int32(a)
			} else {
				ids[a] = ls.ids[a]
			}
		}
		order := make([]int, len(ids))
		for a := range order {
			order[a] = a
		}
		sort.Slice(order, func(x, y int) bool { return ids[order[x]] < ids[order[y]] })
		d.u32(uint32(len(order)))
		for _, a := range order {
			d.u32(uint32(ids[a]))
			d.f32(ls.vals[a])
		}
	}
}

func (d *goldenDigest) delta(sd *SparseDelta) {
	d.u32(uint32(len(sd.Layers)))
	for li := range sd.Layers {
		ld := &sd.Layers[li]
		d.i32s(ld.Rows)
		d.i32s(ld.RowOff)
		d.i32s(ld.Cols)
		d.f32s(ld.Vals)
		d.f32s(ld.Bias)
	}
}

func deltaDigest(sd *SparseDelta) string {
	d := newGoldenDigest()
	d.delta(sd)
	return d.sum()
}

// netStateDigest hashes every weight, bias and Adam moment plus the
// network's extracted-cell counter.
func netStateDigest(n *Network) string {
	d := newGoldenDigest()
	for _, l := range n.layers {
		for j := 0; j < l.out; j++ {
			d.f32s(l.w[j])
			d.f32s(l.mW[j])
			d.f32s(l.vW[j])
		}
		d.f32s(l.b)
		d.f32s(l.mB)
		d.f32s(l.vB)
	}
	d.u64(uint64(n.touchedWeights))
	return d.sum()
}

// requireEngineGolden fails t unless got equals the recorded digest.
func requireEngineGolden(t *testing.T, key, got string) {
	t.Helper()
	want, ok := engineGoldens[key]
	if !ok {
		t.Fatalf("no engine golden for %s (got %s)", key, got)
	}
	if got != want {
		t.Fatalf("%s diverged from golden: %s, want %s", key, got, want)
	}
}

func goldenForwardKey(arch string, mode forwardMode, km KernelMode) string {
	return fmt.Sprintf("fwd/%s/mode%d/%s", arch, mode, km)
}

func goldenBackwardKey(arch string, xi int) string { return fmt.Sprintf("bwd/%s/x%d", arch, xi) }

// goldenForwardKernels are the kernel modes the forward goldens pin.
var goldenForwardKernels = []KernelMode{KernelGather, KernelScatter, KernelAuto}

// goldenForwardRun runs every equivInputs element through a fresh network
// of cfg under km and mode (labels {1, 5}, element-state seed 77), calling
// visit after each pass, and returns the digest over all passes.
func goldenForwardRun(t *testing.T, cfg Config, km KernelMode, mode forwardMode, visit func(xi int, st *elemState)) string {
	t.Helper()
	cfg.Kernels = km
	cfg.ScatterCrossover = goldenCrossover
	n := mustNet(t, cfg)
	st := mustState(t, n, 77)
	d := newGoldenDigest()
	for xi, x := range equivInputs(cfg.InputDim) {
		n.forwardElem(st, x, []int32{1, 5}, mode)
		d.forwardState(st)
		if visit != nil {
			visit(xi, st)
		}
	}
	return d.sum()
}

// goldenBackwardRun runs one element per equivInputs entry through
// forward+backward on a fresh network of cfg under km (labels {2, 9},
// element-state seed 31, no weight updates) and returns each element's
// extracted delta.
func goldenBackwardRun(t *testing.T, cfg Config, km KernelMode) []*SparseDelta {
	t.Helper()
	cfg.Kernels = km
	cfg.ScatterCrossover = goldenCrossover
	n := mustNet(t, cfg)
	st := mustState(t, n, 31)
	labels := []int32{2, 9}
	var out []*SparseDelta
	for _, x := range equivInputs(cfg.InputDim) {
		n.beginBatch()
		n.forwardElem(st, x, labels, modeTrain)
		n.backwardElem(st, x, labels, nil)
		out = append(out, n.ExtractDelta(nil, 1))
	}
	return out
}

// adamGoldenCases are the manual multi-batch Adam runs: HOGWILD over
// deltaTestConfig(128), element-state seed 99, batches of 32, Adam over 3
// workers.
var adamGoldenCases = []struct {
	key     string
	kernels KernelMode
	batches int
}{
	{"adam/sharded-hogwild", KernelGather, 4},
	{"adam/extract-apply", KernelAuto, 6},
}

const adamGoldenBatch = 32

func adamGoldenConfig(km KernelMode) Config {
	cfg := deltaTestConfig(128, optim.ModeHogwild)
	cfg.Kernels = km
	cfg.ScatterCrossover = goldenCrossover
	return cfg
}

// adamGoldenRun trains a fresh network on the production path
// (runManualBatch, then applyAdamBatch) and returns it.
func adamGoldenRun(t *testing.T, km KernelMode, batches int) *Network {
	t.Helper()
	ds := deltaTestDataset(t, 128)
	n := mustNet(t, adamGoldenConfig(km))
	st := mustState(t, n, 99)
	for b := 0; b < batches; b++ {
		batch := ds.Train[b*adamGoldenBatch : (b+1)*adamGoldenBatch]
		runManualBatch(t, n, st, batch, nil)
		n.applyAdamBatch(n.adam.Alpha(int64(b)+1), 1.0/adamGoldenBatch, 3)
	}
	return n
}

// batchSyncGoldenRecords runs 24 elements of a BatchSync network's
// forward+backward, capturing their records, and returns the network and
// records ready for accumulateBatchSync.
func batchSyncGoldenRecords(t *testing.T) (*Network, []*elemRecord) {
	t.Helper()
	const classes, batchSize = 96, 24
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes, optim.ModeBatchSync)
	cfg.Kernels = KernelGather
	cfg.ScatterCrossover = goldenCrossover
	n := mustNet(t, cfg)
	st := mustState(t, n, 42)
	records := make([]*elemRecord, batchSize)
	for i := range records {
		records[i] = &elemRecord{}
	}
	n.beginBatch()
	for i, ex := range ds.Train[:batchSize] {
		n.forwardElem(st, ex.Features, ex.Labels, modeTrain)
		n.backwardElem(st, ex.Features, ex.Labels, records[i])
	}
	return n, records
}

// engineGoldenDigests computes every golden for the current code.
func engineGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for arch, cfg := range equivArchs() {
		for _, mode := range []forwardMode{modeTrain, modeEvalSampled, modeEvalFull} {
			for _, km := range goldenForwardKernels {
				out[goldenForwardKey(arch, mode, km)] = goldenForwardRun(t, cfg, km, mode, nil)
			}
		}
		for xi, d := range goldenBackwardRun(t, cfg, KernelAuto) {
			out[goldenBackwardKey(arch, xi)] = deltaDigest(d)
		}
	}
	for _, c := range adamGoldenCases {
		out[c.key] = netStateDigest(adamGoldenRun(t, c.kernels, c.batches))
	}
	n, records := batchSyncGoldenRecords(t)
	n.accumulateBatchSync(records, 3)
	out["batchsync/replay"] = deltaDigest(n.ExtractDelta(nil, 2))
	return out
}

// TestPrintEngineGoldens emits the engineGoldens entries for the current
// code as pasteable Go literals. Run manually with CORE_PRINT_GOLDEN=1; it
// is a no-op otherwise.
func TestPrintEngineGoldens(t *testing.T) {
	if os.Getenv("CORE_PRINT_GOLDEN") == "" {
		t.Skip("set CORE_PRINT_GOLDEN=1 to regenerate engine goldens")
	}
	got := engineGoldenDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
	}
	t.Logf("engineGoldens entries:\n%s", b.String())
}
