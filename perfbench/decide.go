package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	nl "github.com/nowlater/nowlater"
	"github.com/nowlater/nowlater/internal/nlwire"
)

const (
	// decideRefRate is the reference offered rate, well below saturation:
	// latency and failures are reported at it.
	decideRefRate = 1000.0
	// decideLimitMS is the latency limit: a rate counts toward max_rate_rps
	// only when its op_ms_tail meets it. It sits above the ~20 ms stalls a
	// shared host injects now and then, and far below the latency a growing
	// backlog reaches within one probe.
	decideLimitMS = 50.0
	// decideProbe is how long each max_rate_rps probe offers its rate, and
	// decideWindow the slice of the reference phase each tail is taken over.
	decideProbe  = 500 * time.Millisecond
	decideWindow = time.Second
	// The query mix: repeats of a hot set (LRU cache hits), out-of-grid
	// queries (exact core fallback), and fresh in-grid queries (table
	// interpolation) for the rest. The out-of-grid share is nowlaterload's
	// default -exact-frac. Nothing in the repository fixes the repeat share
	// or the hot-set size: both are assumptions, and manifest.json records
	// how much the figures move with the repeat share.
	decideHot           = 64
	decideRepeatFrac    = 0.35
	decideOutOfGridFrac = 0.10
	// decideGrace is how long after a phase's last due time requests still
	// queued at the generator are abandoned unsent.
	decideGrace = 2 * time.Second
	// decideChecks is how many reference-phase answers are re-solved exactly
	// and re-sent to a traced server.
	decideChecks = 200
	// servedDoptTol is the policy table's stated accuracy: a served dopt
	// within 1e-3 relative of the exact optimizer's.
	servedDoptTol = 1e-3
	// decideBisections refine max_rate_rps between the last ladder rate met
	// and the first missed.
	decideBisections = 3
)

// decideRates is the fixed rate ladder max_rate_rps steps through (req/s).
var decideRates = []float64{500, 750, 1000, 1500, 2000, 3000, 4000, 6000, 8000, 12000, 16000, 24000, 32000, 48000, 64000, 96000, 128000}

// Query classes of the decide_service mix, by the serving path they take.
const (
	classCache = iota
	classTable
	classExact
)

// queryGen draws the decide_service query mix from a seed.
type queryGen struct {
	rng  *rand.Rand
	grid nl.PolicyGrid
	hot  []nl.PolicyQuery
}

func newQueryGen(seed int64, grid nl.PolicyGrid, hot []nl.PolicyQuery) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), grid: grid, hot: hot}
}

// hotSet is the seed's repeated queries.
func hotSet(seed int64, grid nl.PolicyGrid) []nl.PolicyQuery {
	g := newQueryGen(mix(seed, 7), grid, nil)
	hot := make([]nl.PolicyQuery, decideHot)
	for i := range hot {
		hot[i] = g.draw(false)
	}
	return hot
}

func (g *queryGen) logUniform(lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + g.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// draw returns a query inside the grid hull, or beyond its v·Mdata axis,
// splitting the load into a random (speed, Mdata) pair.
func (g *queryGen) draw(outOfGrid bool) nl.PolicyQuery {
	d0, load, rho := g.grid.D0M, g.grid.LoadMBmps, g.grid.Rho
	lo, hi := load[0], load[len(load)-1]
	if outOfGrid {
		lo, hi = 1.1*hi, 3*hi
	}
	l := g.logUniform(lo, hi)
	v := g.logUniform(1, 25)
	return nl.PolicyQuery{
		D0M:      d0[0] + g.rng.Float64()*(d0[len(d0)-1]-d0[0]),
		SpeedMPS: v,
		MdataMB:  l / v,
		Rho:      g.logUniform(rho[1]/2, rho[len(rho)-1]),
	}
}

func (g *queryGen) next() (nl.PolicyQuery, int) {
	switch r := g.rng.Float64(); {
	case r < decideRepeatFrac:
		return g.hot[g.rng.Intn(len(g.hot))], classCache
	case r < decideRepeatFrac+decideOutOfGridFrac:
		return g.draw(true), classExact
	default:
		return g.draw(false), classTable
	}
}

// decideInputs is what the seed generates for the reference phase: the hot
// set, the first second's due times and its queries.
func decideInputs(seed int64) any {
	grid := nl.AirplanePolicyConfig().Grid
	hot := hotSet(seed, grid)
	qseed := mix(seed, 2)
	due := schedule(rand.New(rand.NewSource(qseed)), decideRefRate, time.Second)
	gen := newQueryGen(mix(qseed, 1), grid, hot)
	queries := make([]nl.PolicyQuery, len(due))
	for i := range queries {
		queries[i], _ = gen.next()
	}
	return map[string]any{"hot": hot, "due_ns": due, "queries": queries}
}

// decideService is one in-process decision server on a loopback port and
// the client that drives it with at most nproc connections.
type decideService struct {
	table  *nl.PolicyTable
	hot    []nl.PolicyQuery
	engine *nl.PolicyEngine
	adm    *nl.Admission
	brk    *nl.Breaker
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

// Headers carrying the op index and parent span to the traced handler.
const (
	headerOp     = "X-Perfbench-Op"
	headerParent = "X-Perfbench-Parent"
)

// startService serves a fresh engine over table, wired like nowlaterd
// (admission control, exact-fallback breaker, 5 s request timeout), and
// sends every hot query once so repeats hit the cache. With a tracer, the
// handler is wrapped to record one span per request.
func startService(table *nl.PolicyTable, hot []nl.PolicyQuery, tr *tracer) (*decideService, error) {
	eng, err := nl.NewPolicyEngine(table, 0)
	if err != nil {
		return nil, err
	}
	s := &decideService{
		table: table, hot: hot, engine: eng,
		adm:  nl.NewAdmission(nl.DefaultAdmissionConfig()),
		brk:  nl.NewBreaker(nl.DefaultBreakerConfig()),
		done: make(chan error, 1),
	}
	srv := nl.NewDecisionServer(nl.DecisionServerConfig{
		Engine: eng, ReqTimeout: 5 * time.Second, Admission: s.adm, Breaker: s.brk,
	})
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + nlwire.PathDecide
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	conns := runtime.NumCPU()
	s.client = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	for _, q := range hot {
		if _, err := s.decide(q, -1, -1); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), s.stop())
		}
	}
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *decideService) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent := -1, -1
		if v, err := strconv.Atoi(r.Header.Get(headerOp)); err == nil {
			op = v
		}
		if v, err := strconv.Atoi(r.Header.Get(headerParent)); err == nil {
			parent = v
		}
		id := tr.begin("nlserver.handler", parent, op)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// decide posts one query and decodes the answer; a non-200 status is an
// error carrying the server's message.
func (s *decideService) decide(q nl.PolicyQuery, op, parent int) (nl.ServiceDecision, error) {
	var d nl.ServiceDecision
	body, err := json.Marshal(nl.ServiceQuery{D0M: q.D0M, SpeedMPS: q.SpeedMPS, MdataMB: q.MdataMB, Rho: q.Rho})
	if err != nil {
		return d, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return d, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent >= 0 {
		req.Header.Set(headerOp, strconv.Itoa(op))
		req.Header.Set(headerParent, strconv.Itoa(parent))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return d, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("status %d: %s", resp.StatusCode, d.Error)
	}
	return d, nil
}

// phaseResult is one open-loop phase at a fixed offered rate.
type phaseResult struct {
	rate    float64
	recs    []record
	queries []nl.PolicyQuery
	classes []int
	answers []nl.ServiceDecision
}

// phase offers Poisson arrivals at rate for dur; qseed fixes both the
// schedule and the queries, so two phases with one qseed send the same
// requests at the same offsets.
func (s *decideService) phase(rate float64, dur time.Duration, qseed int64, tr *tracer) phaseResult {
	due := schedule(rand.New(rand.NewSource(qseed)), rate, dur)
	gen := newQueryGen(mix(qseed, 1), s.table.Config().Grid, s.hot)
	p := phaseResult{
		rate: rate, queries: make([]nl.PolicyQuery, len(due)), classes: make([]int, len(due)),
		answers: make([]nl.ServiceDecision, len(due)),
	}
	for i := range due {
		p.queries[i], p.classes[i] = gen.next()
	}
	start := time.Now()
	p.recs = openLoop(start, due, runtime.NumCPU(), decideGrace, func(i int) bool {
		op := tr.beginAt("decide.op", -1, i, start.Add(due[i]))
		rt := tr.begin("http.roundtrip", op, i)
		d, err := s.decide(p.queries[i], i, rt)
		tr.end(rt)
		tr.end(op)
		p.answers[i] = d
		return err == nil && !d.Degraded
	})
	return p
}

// latencies returns the answered requests' latencies from their due times,
// in due order, and how many scheduled requests were not answered.
func (p phaseResult) latencies() (lat []float64, failed int) {
	for _, r := range p.recs {
		if !r.ok {
			failed++
			continue
		}
		lat = append(lat, float64(r.done-r.due)/1e6)
	}
	return lat, failed
}

// wallS is the phase's span from its start to the last answer.
func (p phaseResult) wallS() float64 {
	var last time.Duration
	for _, r := range p.recs {
		last = max(last, r.done)
	}
	return last.Seconds()
}

// windowTail is op_ms_tail for the reference phase: the tail of each
// decideWindow of due times, and the median of those tails, so one host
// stall moves one window rather than the whole run's figure.
func (p phaseResult) windowTail() (value, level float64) {
	var windows [][]float64
	for _, r := range p.recs {
		if !r.ok {
			continue
		}
		k := int(r.due / decideWindow)
		for len(windows) <= k {
			windows = append(windows, nil)
		}
		windows[k] = append(windows[k], float64(r.done-r.due)/1e6)
	}
	var tails, levels []float64
	for _, w := range windows {
		if len(w) > tailBeyond {
			v, l := tail(w)
			tails = append(tails, v)
			levels = append(levels, l)
		}
	}
	return median(tails), median(levels)
}

// meets reports whether the phase met the latency limit with no failures
// and no growing backlog: the last quarter's median latency stays under
// half the limit.
func (p phaseResult) meets(limitMS float64) bool {
	lat, failed := p.latencies()
	if failed > 0 || len(lat) < 4 {
		return false
	}
	if t, _ := tail(lat); t > limitMS {
		return false
	}
	return median(lat[len(lat)*3/4:]) <= limitMS/2
}

// maxRate steps through the fixed ladder until a rate misses the limit,
// then bisects (geometrically) between the last rate met and the first
// missed. A missed probe is offered once more before it counts, so one
// host stall does not end the search.
func (s *decideService) maxRate(seed int64) (float64, []string) {
	var notes []string
	probe := func(k int, rate float64) bool {
		for try := 0; try < 2; try++ {
			p := s.phase(rate, decideProbe, mix(seed, int64(100+2*k+try)), nil)
			lat, failed := p.latencies()
			t, _ := tail(lat)
			ok := p.meets(decideLimitMS)
			notes = append(notes, fmt.Sprintf("max_rate probe %8.1f req/s: tail %.3f ms, %d/%d answered, met=%v",
				rate, t, len(lat), len(lat)+failed, ok))
			if ok {
				return true
			}
		}
		return false
	}
	best, missed := 0.0, 0.0
	for k, r := range decideRates {
		if !probe(k, r) {
			missed = r
			break
		}
		best = r
	}
	if best > 0 && missed > 0 {
		lo, hi := best, missed
		for k := 0; k < decideBisections; k++ {
			mid := math.Sqrt(lo * hi)
			if probe(len(decideRates)+k, mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		best = lo
	}
	return best, notes
}

// setupDecide builds the serving table and starts a warmed service.
func setupDecide(seed int64, tr *tracer) (*decideService, float64, error) {
	id := tr.begin("policy.build", -1, -1)
	start := time.Now()
	table, err := nl.BuildPolicyTable(context.Background(), nl.AirplanePolicyConfig(), nl.PolicyBuildOptions{})
	buildMS := msSince(start)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	svc, err := startService(table, hotSet(seed, table.Config().Grid), nil)
	return svc, buildMS, err
}

func runDecide(cfg runConfig) (report, error) {
	var rep report
	var setups []float64
	var svc *decideService
	for k := 0; k < setupRepeats; k++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return rep, err
			}
		}
		start := time.Now()
		s, _, err := setupDecide(cfg.seed, nil)
		if err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		svc = s
	}
	refDur := time.Duration(0.5 * cfg.seconds * float64(time.Second))
	runtime.GC()
	before := readCounters()
	ref := svc.phase(decideRefRate, refDur, mix(cfg.seed, 2), nil)
	used := readCounters().sub(before)
	// The high-water mark is read before the rate probes, whose overload
	// backlogs would make it a figure of the search, not of serving.
	rss := peakRSSMB()
	maxRate, ladder := svc.maxRate(cfg.seed)
	if err := svc.stop(); err != nil {
		return rep, err
	}

	// Checks, outside the timed window.
	checks, bad, notes := checkAnswers(svc.table.Config(), ref)
	c, b, err := replayTraced(svc.table, svc.hot, ref)
	if err != nil {
		return rep, err
	}
	checks += c
	bad += b

	lat, failed := ref.latencies()
	n := len(ref.recs)
	tailV, level := ref.windowTail()
	rep.metrics = map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       float64(len(lat)) / ref.wallS(),
		"op_ms_p50":       median(lat),
		"op_ms_tail":      tailV,
		"max_rate_rps":    maxRate,
		"alloc_mb_per_op": used.allocBytes / float64(n) / 1e6,
		"peak_rss_mb":     rss,
	}
	rep.ops, rep.setups = n, len(setups)
	rep.attempted, rep.failed = n+checks, failed+bad
	lagP50, lagTail, sent := loadStats(ref.recs)
	rep.notef("reference phase: %.0f req/s offered for %v, %d scheduled, sent ratio %.4f, loadgen lag p50 %.3f ms tail %.3f ms",
		decideRefRate, refDur, n, sent, lagP50, lagTail)
	rep.notef("ops_per_s is answered requests over the reference phase's wall time: it follows the offered %.0f req/s and moves only with failures, so it is not a figure of the server's own",
		decideRefRate)
	rep.notef("query mix: %.2f repeats of a %d-query hot set (an assumption), %.2f out of grid (nowlaterload's default), the rest fresh in grid",
		decideRepeatFrac, decideHot, decideOutOfGridFrac)
	rep.notef("op_ms quartiles %.4g / %.4g / %.4g over %d answered; tail = median over %v windows of p%.2f with %d beyond; limit %.1f ms",
		quantile(lat, .25), median(lat), quantile(lat, .75), len(lat), decideWindow, level, tailBeyond, decideLimitMS)
	rep.notef("setup_s quartiles %.4g / %.4g / %.4g over %d set-ups",
		quantile(setups, .25), median(setups), quantile(setups, .75), len(setups))
	rep.notes = append(rep.notes, ladder...)
	rep.notes = append(rep.notes, notes...)
	rep.notef("failed_ratio %.4g (%d failed of %d attempted: %d requests + %d checks)",
		frac(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted, n, checks)
	return rep, nil
}

// checkAnswers re-solves a sample of answered queries with the exact
// optimizer: the served dopt must meet the table's stated accuracy.
func checkAnswers(cfg nl.PolicyConfig, p phaseResult) (checks, failed int, notes []string) {
	for i, r := range p.recs {
		if checks == decideChecks {
			break
		}
		if !r.ok {
			continue
		}
		checks++
		want, err := cfg.Scenario(p.queries[i]).Optimize()
		got := p.answers[i].DoptM
		if err != nil || math.Abs(got-want.DoptM)/math.Max(want.DoptM, 1) > servedDoptTol {
			failed++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("check failed: query %+v served dopt %v, exact %v (%v)",
					p.queries[i], got, want.DoptM, err))
			}
		}
	}
	return checks, failed, notes
}

// replayTraced re-sends the first answered queries of a phase, one at a
// time, to a fresh traced service over the same table: tracing must not
// change any answer.
func replayTraced(table *nl.PolicyTable, hot []nl.PolicyQuery, p phaseResult) (checks, failed int, err error) {
	svc, err := startService(table, hot, newTracer())
	if err != nil {
		return 0, 0, err
	}
	for i, r := range p.recs {
		if checks == decideChecks {
			break
		}
		if !r.ok {
			continue
		}
		checks++
		d, err := svc.decide(p.queries[i], i, -1)
		if err != nil || decisionFingerprint(d) != decisionFingerprint(p.answers[i]) {
			failed++
		}
	}
	return checks, failed, svc.stop()
}

func decisionFingerprint(d nl.ServiceDecision) uint64 {
	fp := newFingerprint()
	fp.float(d.DoptM)
	fp.float(d.Utility)
	fp.float(d.CommDelayS)
	fp.float(d.Survival)
	fp.bool(d.TransmitImmediately)
	fp.bool(d.Degraded)
	return fp.sum()
}

// traceDecide runs the reference phase twice on fresh engines over one
// table, untraced then traced, and attributes the traced requests' time to
// the generator queue, the client and loopback, and the server handler.
func traceDecide(cfg runConfig, tr *tracer) (report, error) {
	var rep report
	id := tr.begin("policy.build", -1, -1)
	start := time.Now()
	table, err := nl.BuildPolicyTable(context.Background(), nl.AirplanePolicyConfig(), nl.PolicyBuildOptions{})
	buildMS := msSince(start)
	tr.end(id)
	if err != nil {
		return rep, err
	}
	hot := hotSet(cfg.seed, table.Config().Grid)
	dur := time.Duration(0.3 * cfg.seconds * float64(time.Second))
	qseed := mix(cfg.seed, 2)

	plainSvc, err := startService(table, hot, nil)
	if err != nil {
		return rep, err
	}
	runtime.GC()
	before := readCounters()
	plain := plainSvc.phase(decideRefRate, dur, qseed, nil)
	used := readCounters().sub(before)
	if err := plainSvc.stop(); err != nil {
		return rep, err
	}

	svc, err := startService(table, hot, tr)
	if err != nil {
		return rep, err
	}
	traced := svc.phase(decideRefRate, dur, qseed, tr)
	es, as, bs := svc.engine.Stats(), svc.adm.Stats(), svc.brk.Stats()
	if err := svc.stop(); err != nil {
		return rep, err
	}

	bad := 0
	for i := range plain.recs {
		if plain.recs[i].ok != traced.recs[i].ok ||
			decisionFingerprint(plain.answers[i]) != decisionFingerprint(traced.answers[i]) {
			bad++
		}
	}
	plainLat, plainFailed := plain.latencies()
	tracedLat, tracedFailed := traced.latencies()

	var byClass [3][]nl.PolicyQuery
	var exact []nl.Scenario
	for i, q := range traced.queries {
		byClass[traced.classes[i]] = append(byClass[traced.classes[i]], q)
		if traced.classes[i] == classExact {
			exact = append(exact, table.Config().Scenario(q))
		}
	}
	dec, err := decideReplay(table, byClass)
	if err != nil {
		return rep, err
	}
	optUS, err := optimizeReplay(exact)
	if err != nil {
		return rep, err
	}

	spans := tr.snapshot()
	handlerNS := meanSpanNS(spans, "nlserver.handler")
	rttNS := meanSpanNS(spans, "http.roundtrip")
	opNS := meanSpanNS(spans, "decide.op")
	n := float64(len(plain.recs))
	m := map[string]float64{
		"nlserver.handler_us":           handlerNS / 1e3,
		"nlserver.rtt_minus_handler_us": (rttNS - handlerNS) / 1e3,
		"policy.decide_us.cache":        dec[classCache],
		"policy.decide_us.table":        dec[classTable],
		"policy.decide_us.exact":        dec[classExact],
		"core.optimize_us":              optUS,
		"policy.build_ms":               buildMS,
		"policy.builds":                 1,
		"policy.cache_hit_ratio":        es.CacheHitRatio(),
		"policy.exact_fallbacks":        float64(es.ExactFallbacks()),
		"policy.degraded":               float64(es.Degraded),
		"overload.admitted":             float64(as.Admitted),
		"overload.shed":                 float64(as.Shed()),
		"overload.breaker_denied":       float64(bs.Denied),
		"runtime.gc_cycles_per_op":      used.gcCycles / n,
		"runtime.gc_cpu_frac":           frac(used.gcCPU, used.totalCPU),
		"trace.op_wall_ms":              mean(plainLat),
		"trace.overhead_ms":             mean(tracedLat) - mean(plainLat),
	}
	est := []estimate{
		{"loadgen queue (due → sent)", (opNS - rttNS) / 1e6},
		{"client + loopback (round trip − handler)", (rttNS - handlerNS) / 1e6},
		{"nlserver.handler", handlerNS / 1e6},
	}
	m["trace.layer_sum_ms"] = addEstimates(&rep, est, mean(tracedLat))
	zeroUnreached(m)
	rep.metrics = m
	rep.ops, rep.setups = len(plain.recs), 1
	rep.attempted = 2 * len(plain.recs)
	rep.failed = plainFailed + tracedFailed + bad
	for _, p := range []phaseResult{plain, traced} {
		lagP50, lagTail, sent := loadStats(p.recs)
		rep.notef("loadgen: %d scheduled at %.0f req/s, sent ratio %.4f, lag p50 %.3f ms tail %.3f ms",
			len(p.recs), p.rate, sent, lagP50, lagTail)
	}
	rep.notef("tracing overhead %.4f ms/op (traced %.4f, untraced %.4f); %d answers differ between the runs",
		m["trace.overhead_ms"], mean(tracedLat), mean(plainLat), bad)
	return rep, nil
}

// meanSpanNS is the mean duration of the named spans that belong to an op.
func meanSpanNS(spans []span, name string) float64 {
	var sum, n float64
	for _, s := range spans {
		if s.Name == name && s.Op >= 0 {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return frac(sum, n)
}
