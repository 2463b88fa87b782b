package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := inputs(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := inputs(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		c, err := inputs(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestScheduleIsAbsoluteAndSeeded(t *testing.T) {
	const rate = 2000.0
	dur := 2 * time.Second
	a := schedule(rand.New(rand.NewSource(3)), rate, dur)
	b := schedule(rand.New(rand.NewSource(3)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d due times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("due time %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 || a[i] >= dur || (i > 0 && a[i] <= a[i-1]) {
			t.Fatalf("due time %d = %v not increasing inside (0, %v)", i, a[i], dur)
		}
	}
	// Poisson count: mean rate·dur = 4000, sd ≈ 63; allow five sd.
	if want := rate * dur.Seconds(); float64(len(a)) < want-320 || float64(len(a)) > want+320 {
		t.Fatalf("%d arrivals in %v at %v/s", len(a), dur, rate)
	}
	// Absolute clock: the schedule over a longer window extends this one
	// unchanged, so lateness never shifts later due times.
	long := schedule(rand.New(rand.NewSource(3)), rate, 2*dur)
	for i := range a {
		if long[i] != a[i] {
			t.Fatalf("due time %d moved with the window: %v vs %v", i, long[i], a[i])
		}
	}
}

func TestLoadStatsLagArithmetic(t *testing.T) {
	ms := time.Millisecond
	recs := []record{
		{due: 0, dispatched: 1 * ms, wasSent: true, ok: true},
		{due: 10 * ms, dispatched: 10 * ms, wasSent: true, ok: true},
		{due: 20 * ms, dispatched: 23 * ms, wasSent: true, ok: true},
		{due: 30 * ms, dispatched: 32 * ms},
	}
	p50, tl, sent := loadStats(recs)
	if p50 != 1.5 {
		t.Errorf("lag p50 = %v ms, want 1.5 (median of 1, 0, 3, 2)", p50)
	}
	if tl != 3 {
		t.Errorf("lag tail = %v ms, want the maximum 3 with under 11 samples", tl)
	}
	if sent != 0.75 {
		t.Errorf("sent ratio = %v, want 0.75", sent)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	due := []time.Duration{0, 0, 0, 0, 5 * time.Millisecond}
	var inFlight, peak atomic.Int32
	recs := openLoop(time.Now(), due, 2, time.Second, func(i int) bool {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return true
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight with 2 senders", p)
	}
	for i, r := range recs {
		if !r.wasSent || !r.ok {
			t.Fatalf("request %d not answered: %+v", i, r)
		}
		if r.dispatched < r.due || r.sent < r.dispatched || r.done < r.sent {
			t.Fatalf("request %d timeline out of order: %+v", i, r)
		}
	}
	// Four requests due at once on two senders: the second pair queues
	// behind the first, and its latency from due includes that wait.
	if w := recs[3].done - recs[3].due; w < 4*time.Millisecond {
		t.Fatalf("queued request latency %v does not include its queue wait", w)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "a", Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 3, Name: "c", Start: 95, End: 105},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op": {Calls: 1, TotalNS: 100, SelfNS: 100 - 40 - 10},
		"a":  {Calls: 2, TotalNS: 50, SelfNS: 50},
		"b":  {Calls: 1, TotalNS: 30, SelfNS: 20},
		"c":  {Calls: 1, TotalNS: 10, SelfNS: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestOpCountWholeCycles(t *testing.T) {
	b := batchSpec{cycle: 10, opsPerS: 6.5}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{20, 130}, {10, 70}, {1, 10}, {0.1, 10}} {
		if got := b.ops(c.seconds); got != c.want {
			t.Errorf("ops(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, level := tail(xs)
	if v != 90 || level != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, level)
	}
}

func TestPrintedMetricsNamedInBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metricDef) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		units := map[string]string{}
		for _, m := range listed {
			units[m.Name] = m.Unit
		}
		for _, d := range printed {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: printed %s [%s], BENCHMARK.json has [%s] (listed %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !equalStrings(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, got)
	}
}

func TestManifestCoversEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Seeds struct {
			Default int64 `json:"default"`
			HeldOut int64 `json:"held_out"`
		} `json:"seeds"`
		LayerMap map[string]string `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Seeds.Default == man.Seeds.HeldOut {
		t.Errorf("default and held-out seeds are both %d", man.Seeds.Default)
	}
	for _, d := range perLayer {
		if man.LayerMap[d.name] == "" {
			t.Errorf("manifest.json layer_map lacks %s", d.name)
		}
	}
	if len(man.LayerMap) != len(perLayer) {
		t.Errorf("manifest.json maps %d layer metrics, the benchmark prints %d", len(man.LayerMap), len(perLayer))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
