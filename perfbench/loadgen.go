package main

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// drainTimeout bounds the wait for transactions still in flight when a
// phase's schedule ends; any that have not finished by then count as
// failed (timed out).
const drainTimeout = 10 * time.Second

var errTimedOut = errors.New("still in flight when the phase drained")

// phase is one measured stretch of load.
type phase struct {
	results     []txnResult
	lags        []time.Duration // open loop: send instant minus due instant
	inflightMax int
	start       time.Time
	dur         time.Duration
}

// lagP99 is how late the open loop's sends ran, at the 99th percentile.
func (p phase) lagP99() time.Duration {
	lags := slices.Clone(p.lags)
	slices.Sort(lags)
	return quantile(lags, 0.99)
}

// openLoop offers specs at a fixed rate: specs[i] is due at start+i/rate
// and is timed from that instant whether or not the generator managed to
// send it then. At most maxInflight transactions run at once; a send that
// has to wait for a slot is late, and its lateness is charged to it, so a
// stall shows in every transaction it delays. With trace set, every other
// transaction records spans, so the untraced rest measures the overhead.
func openLoop(r *runner, specs []txnSpec, seq0 uint64, rate float64, maxInflight int, trace bool) phase {
	n := len(specs)
	interval := time.Duration(float64(time.Second) / rate)
	done := make(chan txnResult, n) // one send per transaction: never blocks
	sem := make(chan struct{}, maxInflight)
	p := phase{lags: make([]time.Duration, 0, n), start: time.Now()}
	for i := 0; i < n; i++ {
		due := p.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		p.lags = append(p.lags, time.Since(due))
		p.inflightMax = max(p.inflightMax, len(sem))
		go func(i int, due time.Time) {
			res := r.run(seq0+uint64(i), specs[i], due, trace && i%2 == 0)
			<-sem
			done <- res
		}(i, due)
	}
	p.dur = time.Duration(n) * interval
	p.results = collect(done, n)
	return p
}

// collect gathers n results, giving up on stragglers after drainTimeout.
func collect(done <-chan txnResult, n int) []txnResult {
	out := make([]txnResult, 0, n)
	timeout := time.After(drainTimeout)
	for len(out) < n {
		select {
		case res := <-done:
			out = append(out, res)
		case <-timeout:
			for len(out) < n {
				out = append(out, txnResult{err: errTimedOut})
			}
		}
	}
	return out
}

// closedLoop keeps `workers` transactions in flight for dur, each worker
// sending its next transaction as soon as the previous one returns.
// Results are those that finished inside the window; the few that
// straddle its end are left out, and the phase's duration runs to the last
// result kept.
func closedLoop(r *runner, next func() txnSpec, seq0 uint64, workers int, dur time.Duration) phase {
	var (
		mu  sync.Mutex
		seq = seq0
		wg  sync.WaitGroup
		out []txnResult
	)
	p := phase{start: time.Now(), inflightMax: workers}
	deadline := p.start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []txnResult
			for time.Now().Before(deadline) {
				mu.Lock()
				spec, s := next(), seq
				seq++
				mu.Unlock()
				res := r.run(s, spec, time.Now(), false)
				if res.end.After(deadline) {
					break
				}
				mine = append(mine, res)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.results = out
	for i := range out {
		p.dur = max(p.dur, out[i].end.Sub(p.start))
	}
	return p
}
