package main

import (
	"math"
	"slices"
	"time"
)

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// windows is how many equal stretches of the closed loop capacity is
// taken over. It reports the median across them, so one stretch disturbed
// by a neighbour on a shared machine does not decide it.
const windows = 5

// summary is a phase reduced to what the end-to-end metrics need.
type summary struct {
	ro, upd      []time.Duration // sorted latencies of committed transactions
	committedWin [windows]int    // commits per window, by completion instant
	attempted    int
	failed       int // non-abort error, retries exhausted, or timed out
	late         int // committed later than the workload's latency limit
	roAborts     int
	updAttempts  int
	updAborts    int
	committed    int
}

func summarize(p phase, limit time.Duration) summary {
	var s summary
	window := func(t time.Time) int {
		return min(max(int(int64(t.Sub(p.start))*windows/int64(max(p.dur, 1))), 0), windows-1)
	}
	for i := range p.results {
		r := &p.results[i]
		s.attempted++
		s.updAttempts += r.attempts
		s.updAborts += r.aborts
		switch {
		case r.roAbort:
			s.roAborts++
		case r.err != nil:
			s.failed++
		default:
			s.committed++
			lat := r.latency()
			if lat > limit {
				s.late++
			}
			s.committedWin[window(r.end)]++
			if r.ro {
				s.ro = append(s.ro, lat)
			} else {
				s.upd = append(s.upd, lat)
			}
		}
	}
	slices.Sort(s.ro)
	slices.Sort(s.upd)
	return s
}

// rates is each window's commits per second.
func (s summary) rates(dur time.Duration) []float64 {
	var out []float64
	for _, n := range s.committedWin {
		out = append(out, float64(n)/(dur.Seconds()/windows))
	}
	return out
}

// throughput is the median over the windows of commits per second.
func (s summary) throughput(dur time.Duration) float64 { return median(s.rates(dur)) }

func (s summary) failedPct() float64 { return pct(s.failed, s.attempted) }

// sloMissPct counts a failed transaction as missing the limit too.
func (s summary) sloMissPct() float64 { return pct(s.failed+s.late, s.attempted) }

func (s summary) updAbortPct() float64 { return pct(s.updAborts, s.updAttempts) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
