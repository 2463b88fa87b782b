package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	nl "github.com/nowlater/nowlater"
	"github.com/nowlater/nowlater/internal/spatial"
)

// fleetSizes is one fleet_scale cycle. The count is odd so the median op
// falls inside the middle size's cluster of latencies, not between two.
var fleetSizes = []int{300, 600, 1000, 1400, 2000}

// fleetBatch runs the cycle's five Specs over and over.
var fleetBatch = batchSpec{setup: newFleet, cycle: len(fleetSizes), opsPerS: 9}

const (
	fleetAreaM     = 800.0
	fleetAltM      = 30.0
	fleetSpeedMPS  = 9.0
	fleetDurationS = 240.0
	fleetKillFrac  = 0.01
	// fleetTrafficS is the saturation window between the holding hub and
	// the hovering mast: the shallow, refilled MAC queue of the figure rigs.
	fleetTrafficS = 20.0
	// fleetCellM is the spatial index cell: about the mean leg spacing.
	fleetCellM = 100.0
)

// fleetWorkload runs one resolved scenario Program per op: Link, then Run,
// with a leg hook indexing every vehicle in a spatial grid at each leg
// completion, as the fleetscale experiment does.
type fleetWorkload struct {
	specs []nl.ScenarioSpec
	progs []*nl.ScenarioProgram
	// resolveMS is each Program's Resolve wall time from set-up.
	resolveMS []float64

	// Captured by traced ops for the per-layer replays.
	traced    []fleetTraced
	capture   linkCapture
	exchanges int64
	upserts   int
	upsertNS  float64
	nearestNS float64
}

type fleetTraced struct {
	wallMS, linkMS float64
	stepped        int64
	elided         int64
	events         uint64
	peakPending    int
}

// fleetSpec is one op's scenario: a holding hub and a hovering mast at the
// area centre with a saturation traffic window between them, and n quads
// flying two seeded random legs each; about 1% of the quads get an
// exact-time chaos kill.
func fleetSpec(seed int64, n int) nl.ScenarioSpec {
	rng := rand.New(rand.NewSource(seed))
	hub := nl.Vec3{X: fleetAreaM / 2, Y: fleetAreaM / 2, Z: fleetAltM}
	randPt := func() nl.Vec3 {
		return nl.Vec3{X: rng.Float64() * fleetAreaM, Y: rng.Float64() * fleetAreaM, Z: fleetAltM}
	}
	spec := nl.ScenarioSpec{
		Name:      fmt.Sprintf("perfbench/fleet_scale/n%d", n),
		Seed:      seed,
		DurationS: fleetDurationS,
		Vehicles: []nl.ScenarioVehicleSpec{
			{ID: "hub", Platform: "arducopter", Start: hub, Hold: true},
			{ID: "mast", Platform: "arducopter", Start: nl.Vec3{X: hub.X + 60, Y: hub.Y, Z: fleetAltM}, Hold: true},
		},
		Traffic: []nl.ScenarioTrafficSpec{{From: "hub", To: "mast", DurationS: fleetTrafficS, WindowS: 1}},
	}
	for i := 0; i < n; i++ {
		spec.Vehicles = append(spec.Vehicles, nl.ScenarioVehicleSpec{
			ID: fmt.Sprintf("v%05d", i), Platform: "arducopter",
			Start: randPt(), SpeedMPS: fleetSpeedMPS, Route: []nl.Vec3{randPt(), randPt()},
		})
	}
	k := int(math.Round(fleetKillFrac * float64(n)))
	for _, j := range rng.Perm(n)[:k] {
		t := (0.15 + 0.45*rng.Float64()) * fleetDurationS
		spec.Chaos = append(spec.Chaos, fmt.Sprintf("vehicle fail v%05d %g", j, t))
	}
	return spec
}

func fleetInputs(seed int64) []nl.ScenarioSpec {
	specs := make([]nl.ScenarioSpec, len(fleetSizes))
	for k, n := range fleetSizes {
		specs[k] = fleetSpec(mix(seed, int64(k)), n)
	}
	return specs
}

// newFleet generates the cycle's Specs and resolves each once; op i re-links
// the immutable Program i mod 5, whatever the op count.
func newFleet(seed int64, _ int, tr *tracer) (batchWorkload, error) {
	w := &fleetWorkload{specs: fleetInputs(seed)}
	for _, spec := range w.specs {
		id := tr.begin("scenario.resolve", -1, -1)
		start := time.Now()
		p, err := nl.ResolveScenario(spec)
		w.resolveMS = append(w.resolveMS, msSince(start))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		w.progs = append(w.progs, p)
	}
	return w, nil
}

func (w *fleetWorkload) op(i int, tr *tracer) (uint64, error) {
	k := i % len(w.progs)
	spec := w.specs[k]
	root := tr.begin("fleet_scale.op", -1, i)
	defer tr.end(root)
	start := time.Now()

	id := tr.begin("scenario.link", root, i)
	rt, err := nl.LinkScenario(w.progs[k])
	tr.end(id)
	linkMS := msSince(start)
	if err != nil {
		return 0, err
	}
	grid, err := spatial.NewGrid(fleetCellM)
	if err != nil {
		return 0, err
	}
	runSpan := -1
	var nnSum float64
	for j := 2; j < len(spec.Vehicles); j++ {
		j := j
		grid.Upsert(j, spec.Vehicles[j].Start)
		c := rt.Craft(spec.Vehicles[j].ID)
		c.SetLegHook(func(int) {
			pos := c.Autopilot().Vehicle().Position()
			if tr == nil {
				grid.Upsert(j, pos)
				if _, d, ok := grid.Nearest(pos, j); ok {
					nnSum += d
				}
				return
			}
			t0 := time.Now()
			grid.Upsert(j, pos)
			t1 := time.Now()
			_, d, ok := grid.Nearest(pos, j)
			t2 := time.Now()
			if ok {
				nnSum += d
			}
			tr.add("spatial.upsert", runSpan, i, t0, t1)
			tr.add("spatial.nearest", runSpan, i, t1, t2)
			w.upserts++
			w.upsertNS += float64(t1.Sub(t0))
			w.nearestNS += float64(t2.Sub(t1))
		})
	}
	if tr != nil {
		rt.Link().SetTracer(w.capture.add)
	}
	runSpan = tr.begin("scenario.run", root, i)
	res, err := rt.Run()
	tr.end(runSpan)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		st := rt.Stats()
		w.traced = append(w.traced, fleetTraced{
			wallMS: msSince(start), linkMS: linkMS,
			stepped: st.SubTicksStepped, elided: st.SubTicksElided,
			events: st.EventsProcessed, peakPending: st.PeakPendingEvents,
		})
		w.exchanges += rt.Link().MAC().Exchanges
	}
	fp := newFingerprint()
	fp.u64(nl.ScenarioResultFingerprint(res))
	fp.float(nnSum)
	return fp.sum(), checkFleet(spec, res)
}

// checkFleet checks one run against its Spec: every scripted kill landed,
// and the traffic window recorded its samples and carried data (a single
// second can fade to nothing; the whole window cannot).
func checkFleet(spec nl.ScenarioSpec, res nl.ScenarioResult) error {
	failed := 0
	for _, v := range res.Vehicles {
		if v.Failed {
			failed++
		}
	}
	if failed != len(spec.Chaos) {
		return fmt.Errorf("check: %d vehicles failed, %d kills scripted", failed, len(spec.Chaos))
	}
	if len(res.Traffic) != 1 || len(res.Traffic[0].Samples) < int(fleetTrafficS) {
		return fmt.Errorf("check: traffic window produced too few samples")
	}
	var mb float64
	for _, s := range res.Traffic[0].Samples {
		if math.IsNaN(s.ThroughputMb) || s.ThroughputMb < 0 {
			return fmt.Errorf("check: traffic window at %.1f s carried %v Mb/s", s.TimeS, s.ThroughputMb)
		}
		mb += s.ThroughputMb
	}
	if !(mb > 0) {
		return fmt.Errorf("check: the traffic window carried no data")
	}
	return nil
}

// postCheck runs the smallest Spec of the cycle under the lockstep
// reference oracle, outside the timed window: the event-driven core must
// reproduce it bit for bit.
func (w *fleetWorkload) postCheck() (int, int, []string) {
	var fps [2]uint64
	for k, lockstep := range []bool{false, true} {
		rt, err := nl.LinkScenarioWithOptions(w.progs[0], nl.ScenarioOptions{Lockstep: lockstep})
		if err != nil {
			return 1, 1, []string{fmt.Sprintf("check failed: lockstep link: %v", err)}
		}
		res, err := rt.Run()
		if err != nil {
			return 1, 1, []string{fmt.Sprintf("check failed: lockstep run: %v", err)}
		}
		fps[k] = nl.ScenarioResultFingerprint(res)
	}
	if fps[0] != fps[1] {
		return 1, 1, []string{fmt.Sprintf("check failed: %s event-driven %016x, lockstep %016x",
			w.specs[0].Name, fps[0], fps[1])}
	}
	return 1, 0, []string{fmt.Sprintf("check: %s matches the lockstep reference (%016x)", w.specs[0].Name, fps[0])}
}

func (w *fleetWorkload) layers(seed int64, m map[string]float64) ([]estimate, error) {
	n := float64(len(w.traced))
	if n == 0 {
		return nil, fmt.Errorf("fleet_scale: no traced ops")
	}
	var wall, linkMS, stepped, elided, events, peak float64
	for _, t := range w.traced {
		wall += t.wallMS
		linkMS += t.linkMS
		stepped += float64(t.stepped)
		elided += float64(t.elided)
		events += float64(t.events)
		peak += float64(t.peakPending)
	}
	m["scenario.resolve_ms"] = mean(w.resolveMS)
	m["scenario.link_ms"] = linkMS / n
	m["scenario.subticks_stepped"] = stepped / n
	m["scenario.elided_frac"] = frac(elided, stepped+elided)
	m["sim.events_per_op"] = events / n
	m["sim.peak_pending"] = peak / n
	m["link.exchanges_per_op"] = float64(w.exchanges) / n
	if w.upserts > 0 {
		m["spatial.upsert_ns"] = w.upsertNS / float64(w.upserts)
		m["spatial.nearest_ns"] = w.nearestNS / float64(w.upserts)
	}
	stepNS, err := autopilotReplay(fleetSpeedMPS)
	if err != nil {
		return nil, err
	}
	m["autopilot.step_ns"] = stepNS
	m["autopilot.busy_share"] = stepped * stepNS / 1e6 / wall
	dispatchNS := dispatchReplay(seed, int(peak/n))
	m["sim.dispatch_ns"] = dispatchNS
	if err := linkLayers(m, seed, &w.capture, refBatchBytes, false); err != nil {
		return nil, err
	}
	return []estimate{
		{"autopilot (sub-ticks × step)", stepped / n * stepNS / 1e6},
		{"sim (events × dispatch)", events / n * dispatchNS / 1e6},
		{"link (exchanges × step)", m["link.exchanges_per_op"] * m["link.step_us"] / 1e3},
		{"spatial (legs × upsert+nearest)", float64(w.upserts) / n * (m["spatial.upsert_ns"] + m["spatial.nearest_ns"]) / 1e6},
		{"scenario.link", linkMS / n},
	}, nil
}
