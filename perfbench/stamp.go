package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
)

// stampRecord identifies the machine, toolchain, source and program path
// behind one result. Runs of the same workload whose rebuild count or
// kernel-form counts differ took a different program path, so the gap
// between them is not noise; such runs are flagged.
type stampRecord struct {
	Workload     string           `json:"workload"`
	Traced       bool             `json:"traced"`
	Seed         uint64           `json:"seed"`
	NProc        int              `json:"nproc"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	CPUMax       string           `json:"cgroup_cpu_max"`
	CPUModel     string           `json:"cpu_model"`
	GoVersion    string           `json:"go_version"`
	Commit       string           `json:"git_commit"`
	SourceDigest string           `json:"source_sha256"`
	Crossover    float64          `json:"crossover"`
	Rebuilds     int              `json:"rebuilds"`
	KernelForms  map[string]int64 `json:"kernel_forms"`
}

// stamp prints this run's stamp, flags any difference in program path
// from earlier runs of the same workload and source in this checkout,
// and appends the stamp to the checkout's stamp log.
func (b *bench) stamp(su *setupOut, r *core.TrainResult) error {
	rec := stampRecord{
		Workload:     b.wl.name,
		Traced:       b.traced,
		Seed:         b.seed,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUMax:       cgroupCPUMax(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(b.root),
		SourceDigest: sourceDigest(b.root),
		Crossover:    su.crossover,
		Rebuilds:     r.Rebuilds,
		KernelForms:  r.KernelForwards,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: stamp %s\n", line)

	log := filepath.Join(b.work, "stamps.jsonl")
	if f, err := os.Open(log); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var prev stampRecord
			if json.Unmarshal(sc.Bytes(), &prev) != nil || prev.Workload != rec.Workload ||
				prev.Traced != rec.Traced || prev.SourceDigest != rec.SourceDigest {
				continue
			}
			if prev.Rebuilds != rec.Rebuilds || !sameForms(prev.KernelForms, rec.KernelForms) {
				fmt.Printf("perfbench: FLAG program path differs from the seed-%d run: rebuilds %d vs %d, kernel forms %v vs %v\n",
					prev.Seed, rec.Rebuilds, prev.Rebuilds, rec.KernelForms, prev.KernelForms)
				break
			}
		}
		f.Close()
	}
	f, err := os.OpenFile(log, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sameForms(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func cgroupCPUMax() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 == nil && err2 == nil {
		return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
	}
	return "unavailable"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unavailable"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unavailable"
}

// gitCommit resolves HEAD from the checkout's .git directory, when it
// has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unresolved"
}

// sourceDigest hashes the module's Go sources and go.mod, so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
