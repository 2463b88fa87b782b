package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// batchWorkload is a closed-loop workload: one goroutine runs op after op.
type batchWorkload interface {
	// op runs op i, recording spans under tr when tracing, and returns a
	// fingerprint of its result; an error is a failed op or a failed
	// output check.
	op(i int, tr *tracer) (uint64, error)
	// layers derives per-layer metrics from the ops traced so far and
	// returns estimates attributing one op's wall time to layers.
	layers(seed int64, m map[string]float64) ([]estimate, error)
	// postCheck runs output checks outside the timed window.
	postCheck() (checks, failed int, notes []string)
}

// estimate attributes part of an op's wall time to one layer.
type estimate struct {
	layer string
	ms    float64
}

// setupFunc generates the inputs of n ops from the seed and prepares them.
// Op i's inputs are a pure function of the seed and i.
type setupFunc func(seed int64, n int, tr *tracer) (batchWorkload, error)

// batchSpec defines a closed-loop workload. A run times a fixed number of
// ops rather than a clock interval, so every commit measures exactly the
// same ops on a seed; a faster commit finishes them sooner.
type batchSpec struct {
	setup setupFunc
	// cycle is how many ops cover the workload's mix once; op counts are
	// whole cycles.
	cycle int
	// opsPerS is the op rate measured on a 2-vCPU AMD EPYC when the
	// benchmark was defined: --seconds × opsPerS ops last about --seconds
	// there.
	opsPerS float64
}

// ops is the op count of a run that measures about seconds.
func (b batchSpec) ops(seconds float64) int {
	return b.cycle * max(1, int(math.Round(seconds*b.opsPerS/float64(b.cycle))))
}

func (b batchSpec) workload() workload {
	return workload{
		untraced: func(cfg runConfig) (report, error) { return runBatch(b, cfg) },
		traced:   func(cfg runConfig, tr *tracer) (report, error) { return traceBatch(b, cfg, tr) },
	}
}

// setupRepeats is how many set-ups a run times; setup_s is their median.
const setupRepeats = 5

type opsResult struct {
	lat    []float64 // ms per op
	rss    []float64 // resident set after each op, MB
	fps    []uint64
	failed int
	wall   float64 // s
	errs   []string
}

// runOps runs ops 0 to n-1.
func runOps(w batchWorkload, n int, tr *tracer) opsResult {
	var r opsResult
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fp, err := w.op(i, tr)
		r.lat = append(r.lat, msSince(t0))
		r.rss = append(r.rss, rssMB())
		r.fps = append(r.fps, fp)
		if err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Sprintf("op %d failed: %v", i, err))
			}
		}
	}
	r.wall = time.Since(start).Seconds()
	return r
}

func runBatch(b batchSpec, cfg runConfig) (report, error) {
	var rep report
	var setups []float64
	var w batchWorkload
	n := b.ops(cfg.seconds)
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		var err error
		if w, err = b.setup(cfg.seed, n, nil); err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	before := readCounters()
	res := runOps(w, n, nil)
	used := readCounters().sub(before)
	hwm := peakRSSMB()

	// Outside the timed window. Tracing must not change results: the first
	// cycle re-runs traced and must reproduce every fingerprint.
	checks, bad := 0, 0
	tr := newTracer()
	for i := 0; i < b.cycle && i < n; i++ {
		fp, err := w.op(i, tr)
		checks++
		if err != nil || fp != res.fps[i] {
			bad++
			rep.notef("check failed: op %d traced fingerprint %016x, untraced %016x (%v)", i, fp, res.fps[i], err)
		}
	}
	c, f, notes := w.postCheck()
	checks += c
	bad += f
	rep.notes = append(rep.notes, notes...)
	rep.notes = append(rep.notes, res.errs...)

	rate := float64(n) / res.wall
	tailV, level := tail(res.lat)
	rep.ops, rep.setups = n, len(setups)
	rep.attempted, rep.failed = n+checks, res.failed+bad
	rep.metrics = map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       rate,
		"op_ms_p50":       median(res.lat),
		"op_ms_tail":      tailV,
		"max_rate_rps":    rate,
		"alloc_mb_per_op": used.allocBytes / float64(n) / 1e6,
		"peak_rss_mb":     median(res.rss),
	}
	rep.notef("setup_s quartiles %.4g / %.4g / %.4g over %d set-ups",
		quantile(setups, .25), median(setups), quantile(setups, .75), len(setups))
	rep.notef("op_ms quartiles %.4g / %.4g / %.4g over %d ops (%d cycles of %d) in %.3f s; tail = p%.2f with %d ops beyond",
		quantile(res.lat, .25), median(res.lat), quantile(res.lat, .75), n, n/b.cycle, b.cycle, res.wall, level, tailBeyond)
	rep.notef("closed loop on one goroutine: max_rate_rps is the sustained op rate, a copy of ops_per_s and not a figure of its own")
	rep.notef("peak_rss_mb is the median resident set read after each op; process high-water mark %.1f MB", hwm)
	rep.notef("failed_ratio %.4g (%d failed of %d attempted: %d ops + %d checks); %.3g GC cycles per op",
		frac(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted, n, checks, used.gcCycles/float64(n))
	return rep, nil
}

// traceBatch sets up once, runs 0.3 × a run's ops untraced, then the same
// ops traced; the difference is the tracing overhead, and the traced ops
// feed the per-layer replays.
func traceBatch(b batchSpec, cfg runConfig, tr *tracer) (report, error) {
	var rep report
	n := b.ops(0.3 * cfg.seconds)
	root := tr.begin("setup", -1, -1)
	w, err := b.setup(cfg.seed, n, tr)
	tr.end(root)
	if err != nil {
		return rep, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	before := readCounters()
	plain := runOps(w, n, nil)
	used := readCounters().sub(before)
	traced := runOps(w, n, tr)
	bad := 0
	for i := range plain.fps {
		if plain.fps[i] != traced.fps[i] {
			bad++
			rep.notef("check failed: op %d traced fingerprint %016x, untraced %016x", i, traced.fps[i], plain.fps[i])
		}
	}
	m := make(map[string]float64)
	est, err := w.layers(cfg.seed, m)
	if err != nil {
		return rep, err
	}
	zeroUnreached(m)
	wall := mean(plain.lat)
	m["runtime.gc_cycles_per_op"] = used.gcCycles / float64(n)
	m["runtime.gc_cpu_frac"] = frac(used.gcCPU, used.totalCPU)
	m["trace.op_wall_ms"] = wall
	m["trace.overhead_ms"] = mean(traced.lat) - wall
	m["trace.layer_sum_ms"] = addEstimates(&rep, est, wall)
	rep.notef("tracing overhead %.4f ms/op (traced %.4f, untraced %.4f over %d ops)",
		m["trace.overhead_ms"], mean(traced.lat), wall, n)
	rep.notes = append(rep.notes, plain.errs...)
	rep.notes = append(rep.notes, traced.errs...)
	rep.metrics = m
	rep.ops, rep.setups = n, 1
	rep.attempted = 2 * n
	rep.failed = plain.failed + traced.failed + bad
	return rep, nil
}

// addEstimates prints each layer's estimate beside the op's measured wall
// time and returns their sum.
func addEstimates(rep *report, est []estimate, wallMS float64) float64 {
	var sum float64
	for _, e := range est {
		sum += e.ms
		rep.notef("layer %-52s %10.4f ms/op   op wall %.4f ms", e.layer, e.ms, wallMS)
	}
	rep.notef("layer sum %-48s %10.4f ms/op   op wall %.4f ms", "", sum, wallMS)
	return sum
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives an independent positive seed from a run seed and an index
// (the SplitMix64 finalizer).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// fingerprint hashes op results over their exact float bits (FNV-1a).
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(x uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], x)
	f.h.Write(f.buf[:])
}

func (f *fingerprint) float(x float64) { f.u64(math.Float64bits(x)) }

func (f *fingerprint) str(s string) {
	f.h.Write([]byte(s))
	f.h.Write([]byte{0})
}

func (f *fingerprint) bool(b bool) {
	if b {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }
