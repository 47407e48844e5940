package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
)

// bench is one invocation: a workload at a seed, traced or not.
type bench struct {
	wl      *workload
	seed    uint64
	seconds float64
	traced  bool
	root    string
	work    string
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(b.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	m := metrics{}
	var ck checks
	res := &result{Metrics: m}

	// Set-up: calibration, dataset, network.
	su, err := b.setup()
	if err != nil {
		return nil, err
	}
	ds, net := su.ds, su.net
	su.ds, su.net = nil, nil

	// Training. The traced run first trains baseIters steps untraced
	// (the baseline for trace.overhead_frac), then trains a fresh network
	// from the same seed through the loopback exchanger, without the
	// P@k curve.
	var tr trainOut
	var tap *deltaTap
	var baseStepMS float64
	t0 := time.Now()
	if b.traced {
		base := b.train(net, ds, baseIters, false, nil)
		checkTraining(&ck, base)
		res.Attempted += baseIters
		if trainFailed(base) {
			res.Failed += baseIters
		} else {
			baseStepMS = base.res.Seconds * 1e3 / float64(base.res.Iterations)
		}
		if net, err = core.NewNetwork(b.wl.networkConfig(ds, b.seed)); err != nil {
			return nil, err
		}
		tap = &deltaTap{captureAt: b.wl.iters * 3 / 5}
		tr = b.train(net, ds, b.wl.iters, false, tap)
	} else {
		tr = b.train(net, ds, b.wl.iters, true, nil)
	}
	trainWall := time.Since(t0)
	checkTraining(&ck, tr)
	res.Attempted += b.wl.iters
	if trainFailed(tr) {
		res.Failed += b.wl.iters
		res.Correct = false
		return res, nil
	}
	trainRSS, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	// Hand-off: save the model, start the server process on it.
	model := filepath.Join(runDir, "model.slide")
	h0 := time.Now()
	if err := saveModel(net, model); err != nil {
		return nil, err
	}
	srv, err := startServer(model)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	handoffS := time.Since(h0).Seconds()
	setupS := su.setupS + handoffS

	bodies, err := encodeBodies(ds.Test)
	if err != nil {
		return nil, err
	}
	cl := newClient(srv.base, ds.NumClasses, bodies, b.traced)
	defer cl.close()
	// Exact inference reads only the weights the file carries, so the
	// server's exact responses must match the saved network's id for id.
	pred, err := net.NewPredictor()
	if err != nil {
		return nil, err
	}
	if err := cl.probeExact(&ck, pred, ds.Test); err != nil {
		return nil, err
	}
	res.Attempted += probeCount

	// Traced runs load the file in-process too, for core.load_model_ms
	// and the replays. Untraced runs release the training state: the
	// client shares the machine with the server, and a large heap would
	// have the client's garbage collector compete for the cores.
	var loaded *core.Network
	var loadMS float64
	if b.traced {
		l0 := time.Now()
		if loaded, err = loadModel(model); err != nil {
			return nil, err
		}
		loadMS = ms(time.Since(l0))
		if pred, err = loaded.NewPredictor(); err != nil {
			return nil, err
		}
	} else {
		net, pred = nil, nil
	}
	ds.Train = nil
	runtime.GC()
	debug.FreeOSMemory()

	// Open-loop serving. The high rate runs highWindows windows, each a
	// quarter of the serving time but long enough for ten samples beyond
	// its p99; the traced run reports their median p99, so a stall in one
	// window cannot move it. Only the traced run, whose low-rate metrics
	// are per-layer, runs the low rate, in one window lengthened the same
	// way.
	s0 := time.Now()
	lowWindows := 0
	if b.traced {
		lowWindows = 1
	}
	loads := [2]struct {
		name    string
		rate    float64
		windows int
	}{
		{"serve.low", b.wl.lowRPS, lowWindows},
		{"serve.high", b.wl.highRPS, highWindows},
	}
	var phases [2]phaseResult
	var snaps [4]loadgen.ServerStats // before and after each phase
	for i, ld := range loads {
		if ld.windows == 0 {
			continue
		}
		cl.runPhase("warmup", ld.rate, warmup, b.seed^0xa11+uint64(i), false)
		if snaps[2*i], err = fetchStats(srv.base); err != nil {
			return nil, err
		}
		dur := time.Duration(max(b.seconds/4, minWindowRequests/ld.rate) * float64(time.Second))
		for w := 0; w < ld.windows; w++ {
			phases[i].add(cl.runPhase(ld.name, ld.rate, dur, b.seed*8+uint64(4*i+w), true))
		}
		res.Attempted += int64(len(phases[i].latMS))
		res.Failed += phases[i].failed
		if snaps[2*i+1], err = fetchStats(srv.base); err != nil {
			return nil, err
		}
	}
	serveRSS, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	srv.stop()
	serveWall := time.Since(s0)
	if n := cl.badBodies.Load(); n > 0 {
		ck.failf("%d responses failed the format check, first: %s", n, cl.badFirst)
	}
	for _, ph := range phases {
		if ph.failed > 0 {
			ck.failf("%d of %d requests at %.0f req/s failed", ph.failed, len(ph.latMS), ph.rate)
		}
	}

	low, high := phases[0], phases[1]
	if !b.traced {
		m.set("setup_s", "s", setupS)
		m.set("peak_rss_mb", "MiB", trainRSS)
		m.set("serve.peak_rss_mb", "MiB", serveRSS)
		m.set("train.samples_per_s", "1/s", b.samplesPerSec(tr))
		m.set("train.loss", "nats", finalLoss(tr.res))
		last := tr.curve[len(tr.curve)-1]
		m.set("train.p5", "fraction", last.p5)
		// Time to the P@5 target, the paper's Fig. 5 measure, is printed
		// but not gated: it compounds the machine's speed with the run's
		// learning curve, and its spread exceeded any usable bound.
		ttp := "not reached"
		if t, ok := timeToP5(tr.curve, b.wl.targetP5); ok {
			ttp = fmt.Sprintf("%.2f s", t)
		}
		fmt.Printf("perfbench: final P@1 %.4f, P@5 %.4f after %d iterations; P@5 %.3f reached at %s of training clock\n",
			last.p1, last.p5, tr.res.Iterations, b.wl.targetP5, ttp)
		m.set("serve.high.goodput_rps", "1/s", goodput(high))
	} else {
		if err := b.traceMetrics(m, su, tr, tap, baseStepMS, net, loaded, pred, ds, loadMS, phases, snaps); err != nil {
			return nil, err
		}
		if err := b.writeTrace(tap, phases); err != nil {
			return nil, err
		}
	}
	fmt.Printf("perfbench: requests low=%d high=%d, high window p99s %.2f ms; wall seconds: setup %.1f, training %.1f, serving %.1f\n",
		len(low.latMS), len(high.latMS), high.windowP99, su.setupS, trainWall.Seconds(), serveWall.Seconds())
	if err := b.stamp(su, tr.res); err != nil {
		return nil, err
	}
	res.Correct = ck.ok()
	return res, nil
}

// goodput is the rate of requests that succeeded within goodputLimit.
func goodput(ph phaseResult) float64 {
	limit := ms(goodputLimit)
	var n int
	for _, l := range ph.latMS {
		if l <= limit {
			n++
		}
	}
	return float64(n) / ph.seconds
}

func saveModel(net *core.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := net.SaveModel(f); err != nil {
		f.Close()
		return fmt.Errorf("saving model: %w", err)
	}
	return f.Close()
}

func loadModel(path string) (*core.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadModel(f)
}

// writeTrace writes the traced run's in-memory spans as JSON lines.
func (b *bench) writeTrace(tap *deltaTap, phases [2]phaseResult) error {
	path := filepath.Join(b.work, fmt.Sprintf("trace-%s-%d.jsonl", b.wl.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tap.spans {
		enc.Encode(s)
	}
	for _, ph := range phases {
		for _, s := range ph.spans {
			enc.Encode(s)
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("perfbench: spans written to %s\n", path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile: the smallest sample with at
// least a fraction p of all samples at or below it. Failed operations
// enter as +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
