package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/lsh"
)

// The rebuild goldens pin, for each hash family backing a sampled layer,
// the exact weights and table contents after every scheduled rebuild of a
// deterministic training run: 1 thread, SyncRebuild, pinned kernel
// crossover. Each generation records two SHA-256 digests — every layer's
// weight rows and biases, and every table's buckets (BucketAt, in entry
// order). Any change to how tables are rebuilt, how rows are hashed, or
// how weights are updated must keep these byte-for-byte stable;
// regenerate only for a deliberate semantic change
// (CORE_PRINT_GOLDEN=1 go test ./internal/core -run TestPrintRebuildGoldens -v).

const goldenGenerations = 5

// rebuildGoldens maps "<family>/gen<g>" to "<weights digest> <tables digest>".
var rebuildGoldens = map[string]string{
	"simhash/gen1": "45ee8ec1ad269b857d4dac9f7445e618780ac997a3c0b07f42987a393c551d9d 5a8a5b296b25e01e89c9c391bcda39d0309a03e62f336567dc702c3d560f8977",
	"simhash/gen2": "8c1b779fd53c8b460bcb601e3f0bb78a1989b9851fa562b242ae83df578b5027 4cbebcd6e406d03286e36ea8113a2642db67f87650644792cbcf324c009d0532",
	"simhash/gen3": "ddd199287f3321e22e166a108aee883e922da9de2a8e3cb08793039b9543aec3 2f3a0dded11488ee16ada6f30118fae36944bf33afaf5b3885817f7c0680f82a",
	"simhash/gen4": "74c3e4ee88a3139e378e506e0af3eba642632d2e54d741282a94ba499a28793f 35f434f8c237d7ddc29fc55b8dc7fa184d8dd3a33797aad1c5ece4473cc89d93",
	"simhash/gen5": "ac82c1a3d3a9c99c0244cb4ae5f9b8f585e01e4bcb6fc8d866f8452ff1e2e2a5 f22a5d72ebbf2938135bdb86597982592d83af0536554281e58f3e4fb356c285",
	"dwta/gen1":    "a2034cb3f9dee91526331173a3731b8de0b4e83fd61f1460d86789469d1186d4 f42d3cb979c3668e7a590275cbde361853ed2018cffd80b77d9f8f2fc9dbcfc2",
	"dwta/gen2":    "07daf2f7ab0d8c4b238e798f5d317a06481c6e9939b23ae9cf59ac97a69e25b9 162cfd36b7d763ecc61d5d53337e8af2c4f6b6a7deb5785c0b008ad7e0b60c3b",
	"dwta/gen3":    "79cb214edf2d0f74100ebff28a4d12c2d1fa1c01ea2a1bddbe92fc3bcb358b7f 31653fd3267d810c0433e23892a093f0b54e2d221c50681a0ede75379a99cf8d",
	"dwta/gen4":    "de859fc1caaf32a9ac5d9677bd22cb5da1a508b04147743d2c8c052ed829cd41 12989ac59d81e6bc23ca851ecbd953e1dbbc3ecd865f64e1a67fbdc20660456b",
	"dwta/gen5":    "943094209da59d3c60ddc1c22704bbfbefcb498e79bd98548ca0adca1eba7492 0a5c0a2ec714a83ede21b7452dffb23f862f8e3b3a77de59059d8ce3c71a1e52",
	"doph/gen1":    "f54e4a7d9d6f3fe16845c5ffd571bc140770d0737789213535f8c5b3852dbf81 983d62a6348ee77404541e92979abe3116e4ea59a43d9e2ef9718e292f31dd72",
	"doph/gen2":    "a7be5f6de0af559c89de4a2fc54ea41208a89db73fb508bb6550b71ea5574e0b 81d4274aca51556db4e2c215828a957b96464d6b3ace8a2dc8ff0b5aec54afab",
	"doph/gen3":    "29f1b4af9fafac663ba88f6f9fdfd7c012444d3af81972145d535901c049e863 f51c09d05598a461517ded9db285ca3e1e787fc6d0af180837119373b5d933e8",
	"doph/gen4":    "04f699d6d62a6c8dda05c4173ad9822d5b5bb690403306ca655bdb25e1458a68 4f59766b009ed16fc5e1b20b9a79104f70d247fd8b904a1c67e0fd6c21c72c40",
	"doph/gen5":    "7ea8d792e8fb56c0701d8943af9c9dc5e622fc0382ec651cb6af763c0f7c79b8 1e3adae18a70ef09eb5d8a45bf720bb7cfb92c6d458607d43505f6aaa2bc5300",
}

// goldenRebuildRun trains a tiny network for goldenGenerations segments,
// each ending exactly on a scheduled synchronous rebuild, and returns the
// digests after each one.
func goldenRebuildRun(t *testing.T, hash lsh.Kind) []string {
	t.Helper()
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.Layers[1].Hash = hash
	cfg.Layers[1].BucketSize = 4 // force reservoir churn so order shows
	cfg.RebuildN0 = 5
	cfg.RebuildLambda = 1e-9 // every gap stays 5 iterations
	cfg.ScatterCrossover = 0.25
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, goldenGenerations)
	for g := 0; g < goldenGenerations; g++ {
		if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 5, BatchSize: 32, Threads: 1, Seed: uint64(g + 1),
			EvalEvery: 0, SkipFinalEval: true, SyncRebuild: true,
		}); err != nil {
			t.Fatal(err)
		}
		if n.Rebuilds() != g+1 {
			t.Fatalf("after segment %d: %d rebuilds, want %d", g, n.Rebuilds(), g+1)
		}
		out = append(out, weightsDigest(n)+" "+tablesDigest(n))
	}
	return out
}

func weightsDigest(n *Network) string {
	h := sha256.New()
	var buf [4]byte
	put := func(v float32) {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	for _, l := range n.layers {
		for j := 0; j < l.out; j++ {
			for _, v := range l.w[j] {
				put(v)
			}
			put(l.b[j])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func tablesDigest(n *Network) string {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, l := range n.layers {
		tab := l.Tables()
		if tab == nil {
			continue
		}
		for ti := 0; ti < tab.L(); ti++ {
			for bi := 0; bi < tab.NumBuckets(); bi++ {
				ids := tab.BucketAt(ti, bi)
				put(uint32(len(ids)))
				for _, id := range ids {
					put(id)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

var goldenFamilies = []lsh.Kind{lsh.KindSimhash, lsh.KindDWTA, lsh.KindDOPH}

func goldenKeyFor(hash lsh.Kind, g int) string { return fmt.Sprintf("%s/gen%d", hash, g+1) }

// TestRebuildGoldens replays the golden runs and compares every
// generation's digests.
func TestRebuildGoldens(t *testing.T) {
	for _, hash := range goldenFamilies {
		t.Run(hash.String(), func(t *testing.T) {
			for g, got := range goldenRebuildRun(t, hash) {
				key := goldenKeyFor(hash, g)
				want, ok := rebuildGoldens[key]
				if !ok {
					t.Fatalf("no golden for %s", key)
				}
				if got != want {
					w := strings.Fields(want)
					gf := strings.Fields(got)
					t.Fatalf("%s diverged from golden:\n weights %s (want %s)\n tables  %s (want %s)",
						key, gf[0], w[0], gf[1], w[1])
				}
			}
		})
	}
}

// TestPrintRebuildGoldens emits the rebuildGoldens entries for the
// current code as pasteable Go literals. Run manually with
// CORE_PRINT_GOLDEN=1; it is a no-op otherwise.
func TestPrintRebuildGoldens(t *testing.T) {
	if os.Getenv("CORE_PRINT_GOLDEN") == "" {
		t.Skip("set CORE_PRINT_GOLDEN=1 to regenerate rebuild goldens")
	}
	var b strings.Builder
	for _, hash := range goldenFamilies {
		for g, d := range goldenRebuildRun(t, hash) {
			fmt.Fprintf(&b, "\t%q: %q,\n", goldenKeyFor(hash, g), d)
		}
	}
	t.Logf("rebuildGoldens entries:\n%s", b.String())
}
