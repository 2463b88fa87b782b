package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile is the linear-interpolation (R type 7) sample quantile of xs at
// q ∈ [0, 1]. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail is the highest percentile that still has tailBeyond samples above
// it: the (n−tailBeyond)-th order statistic, at level 100·(n−10)/n. With
// tailBeyond or fewer samples it falls back to the maximum (level 100).
func tail(xs []float64) (value, level float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// runtimeCounters are the process-wide cumulative counters an op window is
// charged with: heap bytes allocated, GC cycles, and CPU seconds split into
// GC and total.
type runtimeCounters struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

func readCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3)}
}

func (c runtimeCounters) sub(d runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - d.allocBytes, gcCycles: c.gcCycles - d.gcCycles,
		gcCPU: c.gcCPU - d.gcCPU, totalCPU: c.totalCPU - d.totalCPU,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 when
// /proc is unavailable.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// rssMB reads the process's current resident set (VmRSS) in MB.
func rssMB() float64 { return procStatusMB("VmRSS:") }

func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stamp identifies the machine, toolchain and source a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	// Ops is the number of timed ops behind the latency metrics; Setups the
	// number of set-ups behind setup_s.
	Ops    int `json:"ops"`
	Setups int `json:"setups"`
}

func newStamp(workload string, seed int64, seconds, trace int) stamp {
	return stamp{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Commit: gitCommit("."), SourceHash: sourceHash("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory without running git; a
// checkout exported without history reports "unknown" and is identified by
// its source hash instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, r, ok := strings.Cut(line, " "); ok && r == name {
				return id
			}
		}
	}
	return "unknown"
}

// sourceHash digests every go.mod and .go file under root (hidden
// directories such as build outputs and version control skipped), in walk
// order, which is lexical and therefore stable.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
