package main

import (
	"math/rand"
	"sync"
	"time"
)

// The open-loop generator for decide_service. Due times come from the seed
// on an absolute clock, and every latency is timed from the due time, so a
// stalled server shows up as queueing on the requests behind the stall
// instead of as a quietly lowered send rate.

// schedule draws Poisson due times at rate per second over [0, dur): due
// time k is the sum of k exponential gaps, fixed before the phase starts,
// so a late generator never shifts the requests after it.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// record is one scheduled request's timeline, as offsets from the phase
// start: when it was due, when the generator handed it to the senders,
// when a sender put it on the wire, and when the answer came back.
type record struct {
	due, dispatched, sent, done time.Duration
	// wasSent is false for a request abandoned in the queue; ok reports a
	// correct answer.
	wasSent, ok bool
}

// openLoop sends request i at start+due[i] whatever happened to earlier
// requests, over at most workers concurrent senders. A request due while
// every sender is busy waits in the queue, and that wait is part of its
// latency. Requests still queued grace after the last due time are
// abandoned unsent. openLoop returns when every request is answered or
// abandoned.
func openLoop(start time.Time, due []time.Duration, workers int, grace time.Duration, send func(i int) bool) []record {
	recs := make([]record, len(due))
	if len(due) == 0 {
		return recs
	}
	deadline := due[len(due)-1] + grace
	// Sized to the whole schedule, so dispatch never blocks on busy senders.
	jobs := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if time.Since(start) > deadline {
					continue
				}
				recs[i].sent = time.Since(start)
				recs[i].wasSent = true
				recs[i].ok = send(i)
				recs[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		recs[i].due = d
		recs[i].dispatched = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recs
}

// loadStats is the generator's own timeliness: lag is dispatch minus due
// (how late the generator ran, in ms, as a median and a tail), and the
// sent ratio is requests sent over requests scheduled.
func loadStats(recs []record) (lagP50, lagTail, sentRatio float64) {
	if len(recs) == 0 {
		return 0, 0, 0
	}
	lag := make([]float64, len(recs))
	sent := 0
	for i, r := range recs {
		lag[i] = float64(r.dispatched-r.due) / 1e6
		if r.wasSent {
			sent++
		}
	}
	lagTail, _ = tail(lag)
	return median(lag), lagTail, float64(sent) / float64(len(recs))
}
