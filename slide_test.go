package slide_test

import (
	"testing"

	"repro"
	"repro/internal/dataset"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README's
// quickstart does: generate data, build, train, evaluate, predict.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.005, 42))
	if err != nil {
		t.Fatal(err)
	}
	net, err := slide.New(slide.Config{
		InputDim: ds.InputDim,
		Seed:     42,
		Adam:     slide.NewAdam(0.001),
		Layers: []slide.LayerConfig{
			{Size: 64, Activation: slide.ActReLU},
			{
				Size: ds.NumClasses, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 5, L: 16,
				Policy: slide.PolicyReservoir, Strategy: slide.StrategyVanilla,
				Beta: ds.NumClasses / 16,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{Epochs: 3, EvalEvery: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 2.0/float64(ds.NumClasses) {
		t.Fatalf("facade training did not learn: P@1 = %.4f", res.FinalAcc)
	}
	ev, err := net.Evaluate(ds.Test, 300, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.P1 < 0 || ev.P1 > 1 {
		t.Fatalf("Evaluate P@1 = %v", ev.P1)
	}
	ids, scores, err := net.Predict(ds.Test[0].Features, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || len(scores) != 3 {
		t.Fatalf("Predict returned %d/%d", len(ids), len(scores))
	}
}

// TestUpdateModeConstants pins the exported constants to distinct values.
func TestExportedConstantsDistinct(t *testing.T) {
	if slide.UpdateHogwild == slide.UpdateBatchSync {
		t.Fatal("update mode constants collide")
	}
	if slide.KernelAuto == slide.KernelGather || slide.KernelGather == slide.KernelScatter {
		t.Fatal("kernel mode constants collide")
	}
	if slide.HashSimhash == slide.HashDWTA {
		t.Fatal("hash constants collide")
	}
	if slide.StrategyVanilla == slide.StrategyTopK {
		t.Fatal("strategy constants collide")
	}
	if slide.LayoutContiguous == slide.LayoutPerNeuron {
		t.Fatal("layout constants collide")
	}
}
