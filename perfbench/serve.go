package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

const (
	topK           = 5
	exactFrac      = 0.05                   // share of requests served exactly
	goodputLimit   = 25 * time.Millisecond  // latency limit behind goodput
	requestTimeout = 2 * time.Second        // a slower response counts as failed
	warmup         = 500 * time.Millisecond // unrecorded traffic before each phase
	probeCount     = 32                     // exact-match probe set size
	// minWindowRequests is the expected request count a load window is
	// lengthened to: a p99 over at least 1000 samples has ten beyond it.
	minWindowRequests = 1100
	highWindows       = 3 // high-rate windows; the traced run reports their median p99
)

// serveChild is the server process: it loads the model file through
// LoadModel into the internal/serve server with slide-serve's default
// options (2 ms adaptive batch window, no admission control, no cache),
// prints its address, and serves until SIGTERM or SIGINT.
func serveChild(model string) error {
	f, err := os.Open(model)
	if err != nil {
		return err
	}
	net0, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("loading model: %w", err)
	}
	srv, err := serve.New(net0, serve.Options{
		DefaultK:       5,
		MaxK:           100,
		BatchWindow:    2 * time.Millisecond,
		AdaptiveWindow: true,
		BatchMax:       64,
		ModelPath:      model,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("LISTEN %s\n", ln.Addr())
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

// serverProc is the running server process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

// startServer re-executes this binary as the server for model and waits
// for its first healthy /healthz.
func startServer(model string) (*serverProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--serve-model", model)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sp := &serverProc{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "LISTEN ") {
		sp.stop()
		return nil, fmt.Errorf("server did not report its address (%q): %v", line, err)
	}
	sp.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, "LISTEN "))
	go io.Copy(io.Discard, stdout)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(sp.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("server never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the server gracefully and waits for it, killing it if it
// does not exit in time.
func (sp *serverProc) stop() {
	if sp.cmd.Process == nil {
		return
	}
	sp.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sp.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		sp.cmd.Process.Kill()
		<-done
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// requestBodies are the pre-encoded /predict bodies for every test
// example, sampled and exact.
type requestBodies struct {
	sampled, exact [][]byte
}

type predictRequest struct {
	Indices []int32   `json:"indices"`
	Values  []float32 `json:"values"`
	K       int       `json:"k"`
	Sampled bool      `json:"sampled"`
}

type predictResponse struct {
	IDs    []int32   `json:"ids"`
	Scores []float32 `json:"scores"`
}

func encodeBodies(test []dataset.Example) (*requestBodies, error) {
	rb := &requestBodies{sampled: make([][]byte, len(test)), exact: make([][]byte, len(test))}
	for i := range test {
		x := test[i].Features
		var err error
		if rb.sampled[i], err = json.Marshal(predictRequest{x.Idx, x.Val, topK, true}); err != nil {
			return nil, err
		}
		if rb.exact[i], err = json.Marshal(predictRequest{x.Idx, x.Val, topK, false}); err != nil {
			return nil, err
		}
	}
	return rb, nil
}

// client is the open-loop load generator: one process, at most threads
// connections.
type client struct {
	hc      *http.Client
	url     string
	classes int
	bodies  *requestBodies
	traced  bool

	badBodies atomic.Int64 // 200 responses that failed the format check
	badMu     sync.Mutex
	badFirst  string
}

func newClient(base string, classes int, bodies *requestBodies, traced bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     threads,
		MaxIdleConnsPerHost: threads,
		DisableCompression:  true,
	}
	return &client{
		hc:      &http.Client{Transport: tr, Timeout: requestTimeout},
		url:     base + "/predict",
		classes: classes,
		bodies:  bodies,
		traced:  traced,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one /predict body and returns the response body of a 200.
func (c *client) post(body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// checkBody verifies a 200 response: it parses, holds k ids in
// [0, classes), and its scores do not increase.
func (c *client) checkBody(b []byte) (predictResponse, error) {
	var pr predictResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		return pr, fmt.Errorf("unparseable response: %v", err)
	}
	if len(pr.IDs) != topK || len(pr.Scores) != len(pr.IDs) {
		return pr, fmt.Errorf("response holds %d ids and %d scores, want %d", len(pr.IDs), len(pr.Scores), topK)
	}
	for i, id := range pr.IDs {
		if id < 0 || int(id) >= c.classes {
			return pr, fmt.Errorf("id %d outside [0, %d)", id, c.classes)
		}
		if i > 0 && pr.Scores[i] > pr.Scores[i-1] {
			return pr, fmt.Errorf("scores increase at rank %d: %v", i, pr.Scores)
		}
	}
	return pr, nil
}

func (c *client) noteBad(err error) {
	if c.badBodies.Add(1) == 1 {
		c.badMu.Lock()
		c.badFirst = err.Error()
		c.badMu.Unlock()
	}
}

// span is one traced interval.
type span struct {
	Name  string    `json:"name"`
	ID    int64     `json:"id"`
	Start time.Time `json:"start"`
	Sent  time.Time `json:"sent,omitzero"`
	End   time.Time `json:"end"`
	OK    bool      `json:"ok,omitempty"`
}

// phaseResult is the client-side record of one load window, or of a
// phase's windows merged by add.
type phaseResult struct {
	rate      float64
	seconds   float64
	latMS     []float64 // scheduled send to last byte; +Inf when failed
	lateMS    []float64 // scheduled send to actual send
	failed    int64
	spans     []span
	windowP99 []float64 // p99 of each merged window
}

// add merges window w into the phase record.
func (p *phaseResult) add(w phaseResult) {
	p.rate = w.rate
	p.seconds += w.seconds
	p.latMS = append(p.latMS, w.latMS...)
	p.lateMS = append(p.lateMS, w.lateMS...)
	p.failed += w.failed
	p.spans = append(p.spans, w.spans...)
	p.windowP99 = append(p.windowP99, percentile(w.latMS, 0.99))
}

// runPhase drives the server at rate requests/s for dur, open loop: a
// Poisson schedule drawn from seed fixes each request's send time, key
// (uniform over the test split) and mode (exactFrac exact), and each of
// the threads connections sends the next due request as soon as it is
// free. Latency runs from the scheduled send, so a stall is charged to
// every request it delays.
func (c *client) runPhase(name string, rate float64, dur time.Duration, seed uint64, record bool) phaseResult {
	r := rand.New(rand.NewPCG(seed, 0x5e77e))
	type req struct {
		at   time.Duration
		body []byte
	}
	var sched []req
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		k := r.IntN(len(c.bodies.sampled))
		body := c.bodies.sampled[k]
		if r.Float64() < exactFrac {
			body = c.bodies.exact[k]
		}
		sched = append(sched, req{at: t, body: body})
	}
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	var spans []span
	if record && c.traced {
		spans = make([]span, len(sched))
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				sleepUntil(due)
				sent := time.Now()
				b, err := c.post(sched[i].body)
				done := time.Now()
				late[i] = ms(sent.Sub(due))
				lat[i] = ms(done.Sub(due))
				if err == nil {
					_, err = c.checkBody(b)
					if err != nil {
						c.noteBad(err)
					}
				}
				if err != nil {
					lat[i] = math.Inf(1)
					failed.Add(1)
				}
				if spans != nil {
					spans[i] = span{Name: name, ID: int64(i), Start: due, Sent: sent, End: done, OK: err == nil}
				}
			}
		}()
	}
	wg.Wait()
	return phaseResult{rate: rate, seconds: dur.Seconds(), latMS: lat, lateMS: late, failed: failed.Load(), spans: spans}
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than
// time.Sleep, whose wake-ups land on millisecond boundaries and would
// add up to a millisecond of generator lateness to every request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// probeExact checks, on a fixed probe set, that the server's exact
// responses match id for id what pred returns in-process.
func (c *client) probeExact(ck *checks, pred *core.Predictor, test []dataset.Example) error {
	var ids []int32
	var scores []float32
	for i := 0; i < probeCount && i < len(test); i++ {
		k := i * len(test) / probeCount
		var err error
		ids, scores, err = pred.TopKWithScoresInto(context.Background(), test[k].Features, topK, false, ids[:0], scores[:0])
		if err != nil {
			return err
		}
		b, err := c.post(c.bodies.exact[k])
		if err != nil {
			ck.failf("exact probe %d: %v", k, err)
			continue
		}
		got, err := c.checkBody(b)
		if err != nil {
			ck.failf("exact probe %d: %v", k, err)
			continue
		}
		for j := range ids {
			if got.IDs[j] != ids[j] {
				ck.failf("exact probe %d: server ids %v, in-process Predictor ids %v", k, got.IDs, ids)
				break
			}
		}
	}
	return nil
}

// fetchStats reads the server's /stats snapshot.
func fetchStats(base string) (loadgen.ServerStats, error) {
	st, err := loadgen.FetchStats(base)
	if err != nil {
		return st, fmt.Errorf("reading /stats: %w", err)
	}
	return st, nil
}
