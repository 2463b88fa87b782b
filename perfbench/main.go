// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, runs them through the nowlater system,
// checks the outputs, and prints every end-to-end metric (with --trace 1,
// every per-layer metric) with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sar_mission --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json at the repository root names the workloads and metrics;
// manifest.json beside this file records the default and held-out seeds,
// the decide_service rates and latency limit, and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
}

// report is one run's measurements: metric values by name, the op and
// check accounting behind failed_ratio, and human-readable lines printed
// ahead of the result.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	ops       int
	setups    int
	notes     []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one input set untraced (end-to-end metrics) or traced
// (per-layer metrics).
type workload struct {
	untraced func(cfg runConfig) (report, error)
	traced   func(cfg runConfig, tr *tracer) (report, error)
}

var workloads = map[string]workload{
	"sar_mission":     sarBatch.workload(),
	"fleet_scale":     fleetBatch.workload(),
	"request_service": requestBatch.workload(),
	"decide_service":  {untraced: runDecide, traced: traceDecide},
}

// inputs encodes a workload's generated inputs for a 10-second run; the
// same seed must give the same bytes.
func inputs(name string, seed int64) ([]byte, error) {
	switch name {
	case "sar_mission":
		return json.Marshal(sarInputs(seed, sarBatch.ops(10)))
	case "fleet_scale":
		return json.Marshal(fleetInputs(seed))
	case "request_service":
		return json.Marshal(requestInputs(seed, requestBatch.ops(10)/len(requestArms)))
	case "decide_service":
		return json.Marshal(decideInputs(seed))
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates byte-identical inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := runConfig{seed: *seed, seconds: float64(*seconds)}
	st := newStamp(*name, *seed, *seconds, *traceFlag)

	var rep report
	var err error
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
		tr := newTracer()
		rep, err = wl.traced(cfg, tr)
		if err == nil {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
			spans := tr.snapshot()
			if err = writeSpans(path, spans); err == nil {
				rep.notef("spans: %d written to %s", len(spans), path)
				noteSelfTimes(&rep, spans)
			}
		}
	} else {
		rep, err = wl.untraced(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	st.Ops, st.Setups = rep.ops, rep.setups
	res, missing := assemble(rep, defs)
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s measured no value for %v\n", *name, missing)
	}
	stampLine, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(stampLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble turns a report into the result line, flagging any listed metric
// the workload failed to measure.
func assemble(rep report, defs []metricDef) (result, []string) {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = rep.failed == 0 && len(missing) == 0 && rep.attempted > 0
	return res, missing
}

// noteSelfTimes prints every span name's call count, total and self time.
func noteSelfTimes(rep *report, spans []span) {
	times := selfTimes(spans)
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := times[n]
		rep.notef("span %-28s %8d calls %12.3f ms total %12.3f ms self", n, lt.Calls,
			float64(lt.TotalNS)/1e6, float64(lt.SelfNS)/1e6)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
