package main

import (
	"fmt"
	"math"
	"time"

	nl "github.com/nowlater/nowlater"
	"github.com/nowlater/nowlater/internal/fleet"
	"github.com/nowlater/nowlater/internal/link"
	"github.com/nowlater/nowlater/internal/mac"
)

// sarIntensities is the chaos-intensity grid. Each intensity runs the
// naive then the resilient posture on one mission seed, so a cycle is ten
// ops covering every (intensity, posture) pair once.
var sarIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// sarBatch gives every (naive, resilient) pair of ops its own mission
// seed, so a run's ops are distinct missions.
var sarBatch = batchSpec{setup: newSAR, cycle: 2 * len(sarIntensities), opsPerS: 6.5}

// sarDeadlineS bounds each delivery attempt (the fleet compiler default).
const sarDeadlineS = 600

type sarOp struct {
	Intensity float64        `json:"intensity"`
	Spec      nl.MissionSpec `json:"spec"`
}

// sarWorkload runs one fleet mission per op: scouts scan their sectors,
// decide at d0, ship, and transfer each sensed batch to a two-relay tier.
type sarWorkload struct {
	ops    []sarOp
	traced []sarTraced
}

type sarTraced struct {
	op     sarOp
	report nl.MissionReport
	wallMS float64
}

func sarInputs(seed int64, n int) []sarOp {
	ops := make([]sarOp, n)
	for i := range ops {
		pair := i / 2
		in := sarIntensities[pair%len(sarIntensities)]
		ops[i] = sarOp{Intensity: in, Spec: sarSpec(mix(seed, int64(pair)), i%2 == 1, in)}
	}
	return ops
}

// sarSpec is the survivability mission: three scouts on 40×40 m sectors
// feeding two relays. Chaos scales with intensity: telemetry loss over the
// whole mission, a deep fade then a hard outage across the transfer band,
// and from 0.5 up the loss of relay-1 inside its first transfer.
func sarSpec(seed int64, resilient bool, intensity float64) nl.MissionSpec {
	scout := func(id string, start, origin nl.Vec3) nl.MissionVehicle {
		return nl.MissionVehicle{
			ID: id, Platform: "arducopter", Role: nl.RoleScout, Start: start, SectorOrigin: origin,
			SectorWM: 40, SectorHM: 40, AltitudeM: 10, MaxScanLanes: 2,
		}
	}
	var chaos []string
	if intensity > 0 {
		chaos = []string{
			fmt.Sprintf("telemetry loss %g 0 3600", 0.5*intensity),
			fmt.Sprintf("link fade * %g 100 130", 10*intensity),
			fmt.Sprintf("link outage * 135 %g", 135+8*intensity),
		}
		if intensity >= 0.5 {
			chaos = append(chaos, "vehicle fail relay-1 99")
		}
	}
	return nl.MissionSpec{
		Name: "perfbench/sar_mission", Seed: seed, MaxSeconds: 3600,
		Vehicles: []nl.MissionVehicle{
			scout("scout-1", nl.Vec3{X: 170, Z: 10}, nl.Vec3{X: 160, Y: 10}),
			scout("scout-2", nl.Vec3{X: -150, Y: 50, Z: 10}, nl.Vec3{X: -160, Y: 40}),
			scout("scout-3", nl.Vec3{Y: 170, Z: 10}, nl.Vec3{X: -20, Y: 160}),
			{ID: "relay-1", Platform: "arducopter", Role: nl.RoleRelay, Start: nl.Vec3{Z: 10}},
			{ID: "relay-2", Platform: "arducopter", Role: nl.RoleRelay, Start: nl.Vec3{X: -60, Y: -60, Z: 10}},
		},
		Resilient: resilient, StaleAfterS: 10, TransferDeadlineS: sarDeadlineS, Chaos: chaos,
	}
}

// newSAR generates n missions and compiles every one once, so a malformed
// input fails set-up rather than a timed op.
func newSAR(seed int64, n int, tr *tracer) (batchWorkload, error) {
	w := &sarWorkload{ops: sarInputs(seed, n)}
	for _, in := range w.ops {
		id := tr.begin("fleet.from_spec", -1, -1)
		_, err := nl.FleetFromSpec(in.Spec)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *sarWorkload) op(i int, tr *tracer) (uint64, error) {
	in := w.ops[i]
	root := tr.begin("sar_mission.op", -1, i)
	defer tr.end(root)
	start := time.Now()
	id := tr.begin("fleet.from_spec", root, i)
	m, err := nl.FleetFromSpec(in.Spec)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("fleet.run", root, i)
	rep, err := m.Run(in.Spec.MaxSeconds)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		w.traced = append(w.traced, sarTraced{op: in, report: rep, wallMS: msSince(start)})
	}
	return sarFingerprint(rep), checkSAR(in, rep)
}

// checkSAR: no scout delivers more than it sensed, and with no faults
// every scout that survived delivers its whole batch.
func checkSAR(in sarOp, rep nl.MissionReport) error {
	const eps = 1e-9
	var sensed float64
	for _, d := range rep.Deliveries {
		sensed += d.MdataMB
		if d.DeliveredMB > d.MdataMB+eps {
			return fmt.Errorf("check: %s delivered %.6f MB of %.6f sensed", d.ScoutID, d.DeliveredMB, d.MdataMB)
		}
		if in.Intensity == 0 && !d.Failed && d.MdataMB > 0 && d.DeliveredMB < 0.99*d.MdataMB {
			return fmt.Errorf("check: fault-free %s delivered %.4f of %.4f MB", d.ScoutID, d.DeliveredMB, d.MdataMB)
		}
	}
	if rep.DeliveredMB > sensed+eps {
		return fmt.Errorf("check: mission delivered %.6f MB of %.6f sensed", rep.DeliveredMB, sensed)
	}
	return nil
}

func sarFingerprint(rep nl.MissionReport) uint64 {
	fp := newFingerprint()
	for _, d := range rep.Deliveries {
		fp.str(d.ScoutID)
		fp.str(d.RelayID)
		fp.float(d.MdataMB)
		fp.float(d.D0M)
		fp.float(d.DoptM)
		fp.float(d.ScanDoneS)
		fp.float(d.DeliveredS)
		fp.float(d.DeliveredMB)
		fp.bool(d.Failed)
	}
	fp.float(rep.TotalMB)
	fp.float(rep.DeliveredMB)
	fp.float(rep.MakespanS)
	return fp.sum()
}

func (w *sarWorkload) postCheck() (int, int, []string) { return 0, 0, nil }

// layers replays every delivered batch of the first traced cycle through
// the transport layer and derives the link-stack replays from the
// exchanges those transfers made.
func (w *sarWorkload) layers(seed int64, m map[string]float64) ([]estimate, error) {
	traced := w.traced[:min(len(w.traced), 2*len(sarIntensities))]
	n := float64(len(traced))
	if n == 0 {
		return nil, fmt.Errorf("sar_mission: no traced ops")
	}
	var capture linkCapture
	var wallMS, replayMS float64
	var transfers, exchanges int
	var batchBytes []float64
	var decisions []nl.Scenario
	for k, t := range traced {
		wallMS += t.wallMS
		for _, d := range t.report.Deliveries {
			if d.DeliveredMB <= 0 {
				continue
			}
			ms, ex, err := replayTransfer(t.op.Spec, d, &capture)
			if err != nil {
				return nil, fmt.Errorf("sar_mission: replaying op %d %s: %w", k, d.ScoutID, err)
			}
			replayMS += ms
			exchanges += ex
			transfers++
			batchBytes = append(batchBytes, d.DeliveredMB*1e6)
			sc := nl.QuadrocopterBaseline()
			sc.D0M, sc.MdataBytes = d.D0M, d.MdataMB*1e6
			decisions = append(decisions, sc)
		}
	}
	if transfers == 0 {
		return nil, fmt.Errorf("sar_mission: traced ops delivered nothing")
	}
	m["transport.transfer_ms"] = replayMS / float64(transfers)
	m["transport.share_of_op"] = replayMS / wallMS
	m["fleet.self_ms"] = (wallMS - replayMS) / n
	m["link.exchanges_per_op"] = float64(exchanges) / n
	optUS, err := optimizeReplay(decisions)
	if err != nil {
		return nil, err
	}
	m["core.optimize_us"] = optUS
	if err := linkLayers(m, seed, &capture, int(mean(batchBytes)), true); err != nil {
		return nil, err
	}
	exPerOp := m["link.exchanges_per_op"]
	macMS := exPerOp * m["mac.transact_us_deep"] / 1e3
	radioMS := exPerOp * (m["channel.sample_ns"] + m["phy.per_ns"] + m["rate.minstrel_ns"]) / 1e6
	return []estimate{
		{"mac (exchanges × transact_us_deep)", macMS},
		{"channel+phy+rate (exchanges × per-call)", radioMS},
		{"transport+link rest (replayed transfer − mac − radio)", replayMS/n - macMS - radioMS},
		{"fleet.self (op wall − replayed transfers)", m["fleet.self_ms"]},
	}, nil
}

// replayTransfer re-issues one delivered batch to the transport layer: a
// fresh link with the mission's seed and label, the scout hovering at its
// planned transmit distance, through TransferBatch (naive posture) or
// ResilientTransfer (resilient). The replay starts a fault-free link at
// clock zero, so it prices the transfer without the mission's chaos windows.
func replayTransfer(spec nl.MissionSpec, d fleet.Delivery, c *linkCapture) (ms float64, exchanges int, err error) {
	cfg := nl.DefaultLinkConfig()
	cfg.Seed = spec.Seed
	cfg.Label = "fleet/" + d.ScoutID
	l, err := nl.NewLink(cfg, nil)
	if err != nil {
		return 0, 0, err
	}
	l.SetTracer(func(now float64, g link.Geometry, ex mac.Exchange) {
		exchanges++
		c.add(now, g, ex)
	})
	g := nl.Geometry{DistanceM: math.Max(d.DoptM, 1), AltitudeM: 10}
	geom := func(float64) nl.Geometry { return g }
	bytes := int(math.Round(d.DeliveredMB * 1e6))
	start := time.Now()
	if spec.Resilient {
		rc := nl.DefaultResilientConfig(bytes, sarDeadlineS)
		rc.MaxAttempts = 6
		rc.Seed = spec.Seed
		rc.Label = "fleet/resilient/" + d.ScoutID
		_, err = nl.ResilientTransfer(l, rc, geom)
	} else {
		_, err = nl.TransferBatch(l, bytes, sarDeadlineS, geom)
	}
	return msSince(start), exchanges, err
}
