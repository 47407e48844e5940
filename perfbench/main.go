// Command perfbench is the repository benchmark: it trains a SLIDE network
// on a synthetic extreme-classification workload, hands the model to the
// HTTP server in a separate process, drives that server with open-loop
// Poisson traffic, checks every output, and prints one JSON result line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package from source:
//
//	bash perfbench/run.sh --workload amazon --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// by timing calls into each module's public functions from outside the
// program (see README.md in this directory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wlName   = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: drives the dataset, network, training order and traffic")
		seconds  = flag.Float64("seconds", 8, "serving time unit: each high-rate window runs seconds/4, or longer to hold 1100 requests")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced variant and reports per-layer metrics")
		serveArg = flag.String("serve-model", "", "internal: run as the server process for this model file")
	)
	flag.Parse()
	if *serveArg != "" {
		return serveChild(*serveArg)
	}
	wl, ok := workloads[*wlName]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *wlName, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "core")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work := filepath.Join(root, ".bench_build", "perfbench")
	b := &bench{wl: wl, seed: *seed, seconds: *seconds, traced: *trace == 1, root: root, work: work}
	res, err := b.run()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// metrics collects named values; non-finite values are stored as -1 so
// the JSON stays valid, and the run is marked incorrect by the caller's
// checks instead.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1
	}
	m[name] = metric{Value: v, Unit: unit}
}

// checks accumulates output-check failures; any failure makes the run
// incorrect.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(c.failures) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	c.failures = append(c.failures, msg)
}

func (c *checks) ok() bool { return len(c.failures) == 0 }
