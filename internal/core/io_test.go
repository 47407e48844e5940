package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/optim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 2, Seed: 2, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	before, err := n.Evaluate(ds.Test, 200, 4)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after, err := m.Evaluate(ds.Test, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if before.P1 != after.P1 {
		t.Fatalf("P@1 changed across save/load: %v vs %v", before.P1, after.P1)
	}
	// Weights must match exactly.
	for li := range n.layers {
		for j := 0; j < n.layers[li].out; j++ {
			for i := range n.layers[li].w[j] {
				if n.layers[li].w[j][i] != m.layers[li].w[j][i] {
					t.Fatalf("layer %d w[%d][%d] differs after load", li, j, i)
				}
			}
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	n, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Mismatched shape: save a 64-class model, load into 128.
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := NewNetwork(tinyConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestLoadModelIgnoresRetiredFullRebuild: model files written while
// Config carried a FullRebuild switch embed "FullRebuild":true|false in
// their config JSON. They must still load, into the same network a file
// without the key gives, with tables equal to a fresh from-scratch build.
func TestLoadModelIgnoresRetiredFullRebuild(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 3, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	ref, err := LoadModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}

	// v2 layout: 8-byte magic, uint32 config length, config JSON, weights.
	cfgLen := binary.LittleEndian.Uint32(file[8:12])
	cfgJSON, weights := file[12:12+cfgLen], file[12+cfgLen:]
	for _, val := range []string{"true", "false"} {
		t.Run("FullRebuild="+val, func(t *testing.T) {
			patched := append([]byte(`{"FullRebuild":`+val+`,`), cfgJSON[1:]...)
			var old bytes.Buffer
			old.Write(file[:8])
			binary.Write(&old, binary.LittleEndian, uint32(len(patched)))
			old.Write(patched)
			old.Write(weights)

			m, err := LoadModel(&old)
			if err != nil {
				t.Fatalf("LoadModel rejected a file carrying FullRebuild=%s: %v", val, err)
			}
			l := m.layers[1]
			if !l.Tables().Equal(ref.layers[1].Tables()) {
				t.Fatal("tables differ from loading the same weights without the retired key")
			}
			fresh := l.Tables().Shadow(m.rebuildGen)
			l.insertAll(fresh, func(j int) []float32 { return l.w[j] }, 2)
			if !l.Tables().Equal(fresh) {
				t.Fatal("loaded tables differ from a fresh rebuild of the loaded weights")
			}
		})
	}
}

// TestLoadModelMapsRetiredEnumValues: model files written while Config
// could carry the per-neuron kernel mode or the atomic update mode (both
// serialized as 1) must still load, with those values mapped to KernelAuto
// and ModeHogwild, into a network whose tables and predictions equal the
// unpatched file's.
func TestLoadModelMapsRetiredEnumValues(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 3, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	ref, err := LoadModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}

	// v2 layout: 8-byte magic, uint32 config length, config JSON, weights.
	cfgLen := binary.LittleEndian.Uint32(file[8:12])
	cfgJSON, weights := string(file[12:12+cfgLen]), file[12+cfgLen:]
	for _, key := range []string{`"Kernels":`, `"UpdateMode":`} {
		at := strings.Index(cfgJSON, key+"0")
		if at < 0 {
			t.Fatalf("config JSON carries no %s0: %s", key, cfgJSON)
		}
		cfgJSON = cfgJSON[:at] + key + "1" + cfgJSON[at+len(key)+1:]
	}
	var old bytes.Buffer
	old.Write(file[:8])
	binary.Write(&old, binary.LittleEndian, uint32(len(cfgJSON)))
	old.WriteString(cfgJSON)
	old.Write(weights)

	m, err := LoadModel(&old)
	if err != nil {
		t.Fatalf("LoadModel rejected a file carrying Kernels=1, UpdateMode=1: %v", err)
	}
	if got := m.Config(); got.Kernels != KernelAuto || got.UpdateMode != optim.ModeHogwild {
		t.Fatalf("retired values mapped to Kernels=%v UpdateMode=%v, want auto and hogwild", got.Kernels, got.UpdateMode)
	}
	if !m.layers[1].Tables().Equal(ref.layers[1].Tables()) {
		t.Fatal("tables differ from loading the unpatched file")
	}
	for i := 0; i < 20; i++ {
		x := ds.Test[i].Features
		ids1, sc1, err := ref.Predict(x, 5)
		if err != nil {
			t.Fatal(err)
		}
		ids2, sc2, err := m.Predict(x, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids1, ids2) || !slices.Equal(sc1, sc2) {
			t.Fatalf("example %d: predictions %v/%v, unpatched file %v/%v", i, ids2, sc2, ids1, sc1)
		}
	}
}
