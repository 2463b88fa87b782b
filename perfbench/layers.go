package main

import (
	"fmt"
	"math/rand"
	"time"

	nl "github.com/nowlater/nowlater"
	"github.com/nowlater/nowlater/internal/autopilot"
	"github.com/nowlater/nowlater/internal/channel"
	"github.com/nowlater/nowlater/internal/geo"
	"github.com/nowlater/nowlater/internal/link"
	"github.com/nowlater/nowlater/internal/mac"
	"github.com/nowlater/nowlater/internal/phy"
	"github.com/nowlater/nowlater/internal/rate"
	"github.com/nowlater/nowlater/internal/sim"
	"github.com/nowlater/nowlater/internal/stats"
	"github.com/nowlater/nowlater/internal/trajopt"
	"github.com/nowlater/nowlater/internal/uav"
)

// Layers reached only through another layer are measured by re-issuing the
// ops' own inputs to that layer's public function. Each replay repeats its
// inputs until minReplay has elapsed, so short per-call times still span
// enough clock to be steady.
const minReplay = 20 * time.Millisecond

// captureCap bounds the exchanges a run keeps for the link-stack replays.
const captureCap = 20000

// refBatchBytes is one sar scout's sensed batch (40×40 m sector, two scan
// lanes): the deep-queue depth for workloads whose ops carry no batch.
const refBatchBytes = 9_000_000

// sink keeps replayed pure calls from being optimized away.
var sink float64

// nsPerCall repeats pass, which makes n calls, until minReplay has elapsed
// and returns the mean nanoseconds per call.
func nsPerCall(n int, pass func()) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < minReplay {
		pass()
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

type exchangeSample struct {
	g  link.Geometry
	ex mac.Exchange
}

// linkCapture keeps the first captureCap exchanges a link tracer reports.
type linkCapture struct{ samples []exchangeSample }

func (c *linkCapture) add(_ float64, g link.Geometry, ex mac.Exchange) {
	if len(c.samples) < captureCap {
		c.samples = append(c.samples, exchangeSample{g: g, ex: ex})
	}
}

// linkLayers replays captured exchanges through the MAC (deep and shallow
// queues), a whole link, the channel, the PHY error model and Minstrel.
// deepBytes is the deep queue's batch; stepDeep runs link.step_us on the
// deep queue instead of the shallow one.
func linkLayers(m map[string]float64, seed int64, c *linkCapture, deepBytes int, stepDeep bool) error {
	if len(c.samples) == 0 {
		return fmt.Errorf("no link exchanges captured")
	}
	kf, err := kFactors(c)
	if err != nil {
		return err
	}
	deep, alloc, err := macReplay(c, kf, deepBytes)
	if err != nil {
		return err
	}
	shallow, _, err := macReplay(c, kf, 0)
	if err != nil {
		return err
	}
	m["mac.transact_us_deep"] = deep / 1e3
	m["mac.alloc_b_per_exchange"] = alloc
	m["mac.transact_us_shallow"] = shallow / 1e3
	stepBytes := 0
	if stepDeep {
		stepBytes = deepBytes
	}
	stepNS, err := stepReplay(seed, c, stepBytes)
	if err != nil {
		return err
	}
	m["link.step_us"] = stepNS / 1e3
	if m["channel.sample_ns"], err = channelReplay(seed, c); err != nil {
		return err
	}
	m["phy.per_ns"] = phyReplay(c, kf)
	m["rate.minstrel_ns"] = minstrelReplay(seed, c)
	return nil
}

// kFactors recomputes each captured exchange's Rician K-factor, which the
// MAC and PHY take but an Exchange does not carry.
func kFactors(c *linkCapture) ([]float64, error) {
	ch, err := channel.New(channel.DefaultParams(), stats.NewRNG(1))
	if err != nil {
		return nil, err
	}
	kf := make([]float64, len(c.samples))
	for i, s := range c.samples {
		kf[i] = ch.KFactorDB(s.g.DistanceM, s.g.RelSpeedMPS)
	}
	return kf, nil
}

// macReplay re-issues the captured channel states and rates to a fresh MAC
// whose queue is deep (deepBytes > 0: a whole batch enqueued up front, as a
// mission transfer does, and again whenever it drains) or shallow (refilled
// to 128 MPDUs whenever it falls under 64, as a saturation window does). It
// returns nanoseconds and heap bytes per Transact.
func macReplay(c *linkCapture, kf []float64, deepBytes int) (ns, allocB float64, err error) {
	pc := phy.DefaultConfig()
	p := mac.DefaultParams()
	m, err := mac.New(p, pc, phy.NewErrorModel(pc), stats.NewRNG(1))
	if err != nil {
		return 0, 0, err
	}
	calls := 0
	before := readCounters()
	ns = nsPerCall(len(c.samples), func() {
		for i, s := range c.samples {
			switch q := m.QueuedMPDUs(); {
			case deepBytes > 0 && q == 0:
				m.Enqueue(deepBytes)
			case deepBytes == 0 && q < 64:
				m.Enqueue(128 * p.MPDUPayloadBytes)
			}
			m.Transact(s.ex.SNRDB, kf[i], s.g.RelSpeedMPS, s.ex.MCS, s.ex.STBC)
		}
		calls += len(c.samples)
	})
	return ns, readCounters().sub(before).allocBytes / float64(calls), nil
}

// stepReplay drives a fresh link through the captured geometries, one Step
// each, with the queue kept deep (deepBytes > 0) or shallow.
func stepReplay(seed int64, c *linkCapture, deepBytes int) (float64, error) {
	cfg := link.DefaultConfig()
	cfg.Seed, cfg.Label = seed, "perfbench/link"
	l, err := link.New(cfg, nil)
	if err != nil {
		return 0, err
	}
	return nsPerCall(len(c.samples), func() {
		for _, s := range c.samples {
			switch q := l.MAC().QueuedMPDUs(); {
			case deepBytes > 0 && q == 0:
				l.Enqueue(deepBytes)
			case deepBytes == 0 && q < 64:
				l.Enqueue(128 * cfg.MAC.MPDUPayloadBytes)
			}
			l.Step(s.g)
		}
	}), nil
}

// channelReplay draws one channel sample per captured geometry on a clock
// advanced by each exchange's airtime.
func channelReplay(seed int64, c *linkCapture) (float64, error) {
	ch, err := channel.New(channel.DefaultParams(), stats.NewRNG(seed))
	if err != nil {
		return 0, err
	}
	now := 0.0
	return nsPerCall(len(c.samples), func() {
		for _, s := range c.samples {
			sink += ch.Sample(now, s.g.DistanceM, s.g.AltitudeM, s.g.RelSpeedMPS).SNRDB
			now += s.ex.AirtimeSeconds
		}
	}), nil
}

func phyReplay(c *linkCapture, kf []float64) float64 {
	pc := phy.DefaultConfig()
	em := phy.NewErrorModel(pc)
	p := mac.DefaultParams()
	bits := (p.MPDUPayloadBytes + p.MPDUOverheadBytes) * 8
	return nsPerCall(len(c.samples), func() {
		for i, s := range c.samples {
			sink += em.SubframePER(s.ex.SNRDB, s.ex.MCS, bits, kf[i], s.ex.STBC)
		}
	})
}

// minstrelReplay feeds the captured outcomes to a fresh Minstrel: one
// Select and one Observe per exchange.
func minstrelReplay(seed int64, c *linkCapture) float64 {
	r := rate.NewMinstrel(rate.DefaultMinstrelParams(), phy.DefaultConfig(), stats.NewRNG(seed))
	now := 0.0
	return nsPerCall(len(c.samples), func() {
		for _, s := range c.samples {
			mcs, _ := r.Select(now)
			sink += float64(mcs)
			r.Observe(now, s.ex.MCS, s.ex.Attempted, s.ex.Delivered)
			now += s.ex.AirtimeSeconds
		}
	})
}

// autopilotReplay times Autopilot.Step at the control tick on a quad
// flying a long leg at speed, a fresh vehicle per pass so the battery
// never runs out mid-replay.
func autopilotReplay(speed float64) (float64, error) {
	const steps = 5000
	var err error
	ns := nsPerCall(steps, func() {
		v, verr := uav.NewVehicle("perfbench", uav.Arducopter(), geo.Vec3{Z: 30})
		if verr != nil {
			err = verr
			return
		}
		ap, aerr := autopilot.New(v)
		if aerr != nil {
			err = aerr
			return
		}
		ap.GoTo(geo.Vec3{X: 1e5, Z: 30}, speed, nil)
		for k := 0; k < steps; k++ {
			ap.Step(nl.ControlTickS)
		}
	})
	return ns, err
}

// dispatchReplay times sim.Engine dispatch with depth events pending, each
// firing rescheduling itself a random delay ahead, as crafts' arrival
// checks do.
func dispatchReplay(seed int64, depth int) float64 {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	var fire func()
	fire = func() { _, _ = e.After(rng.Float64(), fire) }
	for k := 0; k < max(depth, 1); k++ {
		_, _ = e.Schedule(rng.Float64(), fire)
	}
	const batch = 1000
	return nsPerCall(batch, func() {
		for k := 0; k < batch; k++ {
			e.Step()
		}
	})
}

// optimizeReplay times the exact core optimizer on decision instances.
func optimizeReplay(scs []nl.Scenario) (float64, error) {
	if len(scs) == 0 {
		return 0, fmt.Errorf("no decisions to replay")
	}
	var err error
	ns := nsPerCall(len(scs), func() {
		for _, sc := range scs {
			opt, e := sc.Optimize()
			if e != nil {
				err = e
			}
			sink += opt.DoptM
		}
	})
	return ns / 1e3, err
}

// planReplay times the receding-horizon controller's first full replan on
// each stream, on a fresh Instance per call (instances cache candidates).
func planReplay(progs []*nl.ScenarioProgram) (float64, error) {
	if len(progs) == 0 {
		return 0, fmt.Errorf("no request streams to plan")
	}
	ctrl, err := trajopt.NewController(trajopt.ControllerConfig{})
	if err != nil {
		return 0, err
	}
	ns := nsPerCall(len(progs), func() {
		for _, p := range progs {
			inst := planInstance(p)
			if _, e := ctrl.Plan(inst.Requests[len(inst.Requests)-1].ArrivalS, inst); e != nil {
				err = e
			}
		}
	})
	return ns / 1e6, err
}

// decideReplay times Engine.Decide per serving path: repeats on a warmed
// cache, and fresh in-grid and out-of-grid queries on an uncached engine so
// every call takes the table or the exact path.
func decideReplay(table *nl.PolicyTable, byClass [3][]nl.PolicyQuery) ([3]float64, error) {
	var out [3]float64
	cached, err := nl.NewPolicyEngine(table, 0)
	if err != nil {
		return out, err
	}
	plain, err := nl.NewPolicyEngine(table, -1)
	if err != nil {
		return out, err
	}
	for _, q := range byClass[classCache] {
		if _, err := cached.Decide(q); err != nil {
			return out, err
		}
	}
	for class, eng := range []*nl.PolicyEngine{cached, plain, plain} {
		qs := byClass[class]
		if len(qs) == 0 {
			return out, fmt.Errorf("no class-%d queries to replay", class)
		}
		out[class] = nsPerCall(len(qs), func() {
			for _, q := range qs {
				d, e := eng.Decide(q)
				if e != nil {
					err = e
				}
				sink += d.DoptM
			}
		}) / 1e3
	}
	return out, err
}

// zeroUnreached reports 0 for every per-layer metric a workload's own ops
// never reach, so every workload prints the same metric set.
func zeroUnreached(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}
