package main

import (
	"fmt"
	"math"
	"time"

	nl "github.com/nowlater/nowlater"
	"github.com/nowlater/nowlater/internal/scenario"
	"github.com/nowlater/nowlater/internal/trajopt"
	"github.com/nowlater/nowlater/internal/uav"
)

// requestArms is the paired-arm order: each Poisson stream runs the fixed,
// greedy and joint planners back to back, so a cycle is three ops and the
// median op is the middle arm.
var requestArms = []string{scenario.PlannerFixed, scenario.PlannerGreedy, scenario.PlannerJoint}

// requestBatch gives every cycle of three ops its own Poisson stream. The
// joint arm's cost swings with each stream's burstiness, so a run averages
// many streams.
var requestBatch = batchSpec{setup: newRequests, cycle: len(requestArms), opsPerS: 33}

const (
	requestCount   = 30
	requestRate    = 0.1
	requestServers = 3
	requestAreaM   = 800.0
	requestAltM    = 30.0
	requestSpeed   = 10.0
)

// requestWorkload runs one requests Spec per op, every arm's decisions
// served from one shared policy TableCache.
type requestWorkload struct {
	specs     []nl.ScenarioSpec
	progs     []*nl.ScenarioProgram
	tables    *nl.ScenarioTableCache
	resolveMS []float64
	buildMS   float64

	traced []requestTraced
}

type requestTraced struct {
	arm                   string
	prog                  *nl.ScenarioProgram
	wallMS, linkMS, runMS float64
	stepped, elided       int64
	events                uint64
	peakPending           int
}

// requestSpec is one arm of a paired trial: a holding collector at the area
// centre, three servers on a circle around it, and a seeded Poisson stream
// of pickup requests whose per-leg decisions come from the policy table.
func requestSpec(pseed int64, arm string) nl.ScenarioSpec {
	center := nl.Vec3{X: requestAreaM / 2, Y: requestAreaM / 2, Z: requestAltM}
	spec := nl.ScenarioSpec{
		Name: fmt.Sprintf("perfbench/request_service/%d/%s", pseed, arm), Seed: pseed, DurationS: 5,
		Vehicles: []nl.ScenarioVehicleSpec{{ID: "col", Platform: "arducopter", Start: center, Hold: true}},
	}
	for i := 0; i < requestServers; i++ {
		ang := 2 * math.Pi * float64(i) / requestServers
		spec.Vehicles = append(spec.Vehicles, nl.ScenarioVehicleSpec{
			ID: fmt.Sprintf("srv%02d", i), Platform: "arducopter", SpeedMPS: requestSpeed,
			Start: nl.Vec3{X: center.X + requestAreaM/4*math.Cos(ang), Y: center.Y + requestAreaM/4*math.Sin(ang), Z: requestAltM},
		})
	}
	spec.Requests = &scenario.RequestsSpec{
		Collector: "col", Planner: arm,
		Decision: &scenario.DecisionSpec{Kind: "table"},
		Poisson: &scenario.PoissonSpec{
			RatePerS: requestRate, Count: requestCount, Seed: pseed,
			MinSizeMB: 0.5, MaxSizeMB: 2, MinLeadS: 60, MaxLeadS: 150,
			AreaM: requestAreaM, AltM: requestAltM,
		},
	}
	return spec
}

func requestInputs(seed int64, streams int) []nl.ScenarioSpec {
	var specs []nl.ScenarioSpec
	for s := 0; s < streams; s++ {
		pseed := mix(seed, int64(s))
		for _, arm := range requestArms {
			specs = append(specs, requestSpec(pseed, arm))
		}
	}
	return specs
}

// newRequests generates and resolves the streams of n ops and builds the
// shared policy table.
func newRequests(seed int64, n int, tr *tracer) (batchWorkload, error) {
	w := &requestWorkload{specs: requestInputs(seed, n/len(requestArms)), tables: nl.NewScenarioTableCache()}
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
	id := tr.begin("policy.build", -1, -1)
	start := time.Now()
	_, err := w.tables.Engine(scenario.PlatformQuad)
	w.buildMS = msSince(start)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *requestWorkload) op(i int, tr *tracer) (uint64, error) {
	arm := requestArms[i%len(requestArms)]
	root := tr.begin("request_service.op", -1, i)
	defer tr.end(root)
	start := time.Now()
	id := tr.begin("scenario.link", root, i)
	rt, err := nl.LinkScenarioWithOptions(w.progs[i], nl.ScenarioOptions{Tables: w.tables})
	tr.end(id)
	linkMS := msSince(start)
	if err != nil {
		return 0, err
	}
	id = tr.begin("scenario.run."+arm, root, i)
	res, err := rt.Run()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		st := rt.Stats()
		wall := msSince(start)
		w.traced = append(w.traced, requestTraced{
			arm: arm, prog: w.progs[i], wallMS: wall, linkMS: linkMS, runMS: wall - linkMS,
			stepped: st.SubTicksStepped, elided: st.SubTicksElided,
			events: st.EventsProcessed, peakPending: st.PeakPendingEvents,
		})
	}
	return nl.ScenarioResultFingerprint(res), checkRequests(res)
}

// checkRequests: every drawn request is accounted for, and a served request
// completed after it arrived and by its deadline.
func checkRequests(res nl.ScenarioResult) error {
	if len(res.Requests) != requestCount {
		return fmt.Errorf("check: %d request results, %d drawn", len(res.Requests), requestCount)
	}
	for _, r := range res.Requests {
		if r.Served && !(r.CompletionS >= r.ArrivalS && r.CompletionS <= r.DeadlineS) {
			return fmt.Errorf("check: %s served at %v outside [%v, %v]", r.ID, r.CompletionS, r.ArrivalS, r.DeadlineS)
		}
	}
	return nil
}

func (w *requestWorkload) postCheck() (int, int, []string) { return 0, 0, nil }

func (w *requestWorkload) layers(seed int64, m map[string]float64) ([]estimate, error) {
	n := float64(len(w.traced))
	if n == 0 {
		return nil, fmt.Errorf("request_service: no traced ops")
	}
	runByArm := map[string][]float64{}
	var wall, linkMS, runMS, stepped, elided, events, peak float64
	var joint []*nl.ScenarioProgram
	var decisions []nl.Scenario
	for _, t := range w.traced {
		wall += t.wallMS
		linkMS += t.linkMS
		runMS += t.runMS
		runByArm[t.arm] = append(runByArm[t.arm], t.runMS)
		stepped += float64(t.stepped)
		elided += float64(t.elided)
		events += float64(t.events)
		peak += float64(t.peakPending)
		switch t.arm {
		case scenario.PlannerJoint:
			joint = append(joint, t.prog)
		case scenario.PlannerFixed:
			decisions = append(decisions, legDecisions(t.prog)...)
		}
	}
	for _, arm := range requestArms {
		m["scenario.run_ms."+arm] = mean(runByArm[arm])
	}
	m["scenario.resolve_ms"] = mean(w.resolveMS)
	m["scenario.link_ms"] = linkMS / n
	m["scenario.subticks_stepped"] = stepped / n
	m["scenario.elided_frac"] = frac(elided, stepped+elided)
	m["sim.events_per_op"] = events / n
	m["sim.peak_pending"] = peak / n

	planMS, err := planReplay(joint)
	if err != nil {
		return nil, err
	}
	m["trajopt.plan_ms"] = planMS
	optUS, err := optimizeReplay(decisions)
	if err != nil {
		return nil, err
	}
	m["core.optimize_us"] = optUS
	stepNS, err := autopilotReplay(requestSpeed)
	if err != nil {
		return nil, err
	}
	m["autopilot.step_ns"] = stepNS
	m["autopilot.busy_share"] = stepped * stepNS / 1e6 / wall

	ts := w.tables.Stats()
	m["policy.builds"] = float64(ts.Builds)
	m["policy.hits"] = float64(ts.Hits)
	m["policy.build_ms"] = w.buildMS
	eng, err := w.tables.Engine(scenario.PlatformQuad)
	if err != nil {
		return nil, err
	}
	es := eng.Stats()
	m["policy.cache_hit_ratio"] = es.CacheHitRatio()
	m["policy.exact_fallbacks"] = float64(es.ExactFallbacks())
	m["policy.degraded"] = float64(es.Degraded)
	autopilotMS := stepped / n * stepNS / 1e6
	return []estimate{
		{"scenario.link", linkMS / n},
		{"autopilot (sub-ticks × step)", autopilotMS},
		{"scenario.run rest (run − autopilot)", runMS/n - autopilotMS},
	}, nil
}

// planInstance is the joint planner's first full replan on a stream: the
// servers idle at their start positions and the stream's first requests
// pending at the arrival of the last of them.
func planInstance(p *nl.ScenarioProgram) *trajopt.Instance {
	rp := p.Requests
	inst := &trajopt.Instance{Collector: p.Vehicles[rp.Collector].Spec.Start}
	platform := uav.Arducopter()
	for _, h := range rp.Servers {
		inst.Vehicles = append(inst.Vehicles, trajopt.Vehicle{
			Pos: p.Vehicles[h].Spec.Start, SpeedMPS: requestSpeed,
			PowerMoveFrac: platform.PowerFraction(requestSpeed), PowerHoverFrac: platform.PowerFraction(0),
			EnergyS: math.Inf(1), Model: nl.QuadrocopterBaseline(),
		})
	}
	for _, r := range rp.Requests[:min(6, len(rp.Requests))] {
		inst.Requests = append(inst.Requests, trajopt.Request{
			Origin: r.Origin, SizeMB: r.SizeMB, ArrivalS: r.ArrivalS, DeadlineS: r.DeadlineS,
		})
	}
	return inst
}

// legDecisions is every request's now-or-later instance: the fixed
// planner's per-leg decision.
func legDecisions(p *nl.ScenarioProgram) []nl.Scenario {
	col := p.Vehicles[p.Requests.Collector].Spec.Start
	var out []nl.Scenario
	for _, r := range p.Requests.Requests {
		sc := nl.QuadrocopterBaseline()
		sc.D0M = math.Max(r.Origin.Dist(col), 1)
		sc.SpeedMPS = requestSpeed
		sc.MdataBytes = r.SizeMB * 1e6
		out = append(out, sc)
	}
	return out
}
