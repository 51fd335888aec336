package main

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// stallStore serves every call instantly from behind one lock, except that
// call number stallAt holds the lock for stall.
type stallStore struct {
	mu      sync.Mutex
	calls   int
	stallAt int
	stall   time.Duration
}

func (s *stallStore) serve() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls == s.stallAt {
		time.Sleep(s.stall)
	}
}

func (s *stallStore) snapshot(_ int, keys []string, _ *tracer) ([]kv.ReadResult, error) {
	s.serve()
	return make([]kv.ReadResult, len(keys)), nil
}

func (s *stallStore) rmw(_ int, keys []string, _ []byte, _ *tracer) ([]kv.ReadResult, bool, error) {
	s.serve()
	return make([]kv.ReadResult, len(keys)), true, nil
}

// A stall must be charged to every transaction due while it lasted, also
// when the generator itself could not send them (one slot in flight): the
// latency runs from the due instant, not from the late send.
func TestOpenLoopChargesStallToQueuedTransactions(t *testing.T) {
	const (
		rate  = 1000.0
		n     = 300
		stall = 100 * time.Millisecond
	)
	for _, inflight := range []int{1, 64} {
		st := &stallStore{stallAt: 50, stall: stall}
		r := &runner{st: st, hist: checker.NewClientHistory()}
		specs := make([]txnSpec, n)
		for i := range specs {
			specs[i] = txnSpec{ro: i%2 == 0, keys: []string{"a"}}
		}
		p := openLoop(r, specs, 0, rate, inflight, false)
		if len(p.results) != n {
			t.Fatalf("inflight %d: %d results, want %d", inflight, len(p.results), n)
		}
		var delayed, early int
		for i := range p.results {
			res := &p.results[i]
			if res.latency() >= stall/2 {
				delayed++
			}
			if res.seq < 40 && res.latency() >= stall/2 {
				early++
			}
		}
		// The transactions due in the first half of the stall each wait at
		// least half of it: about 50 of them.
		if delayed < 40 {
			t.Errorf("inflight %d: %d transactions show the stall, want >= 40", inflight, delayed)
		}
		if early > 0 {
			t.Errorf("inflight %d: %d transactions due before the stall show it", inflight, early)
		}
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	draw := func(w *workload, seed int64) []txnSpec {
		g := newGenerator(w, seed)
		out := make([]txnSpec, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	same := func(a, b []txnSpec) bool {
		return slices.EqualFunc(a, b, func(x, y txnSpec) bool { return x.ro == y.ro && slices.Equal(x.keys, y.keys) })
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := draw(w, 7), draw(w, 7), draw(w, 8)
		if !same(a, b) {
			t.Errorf("%s: seed 7 drew two different streams", w.name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same stream", w.name)
		}
		for _, s := range a {
			want := w.updKeys
			if s.ro {
				want = w.roKeys
			}
			if len(s.keys) != want || len(slices.Compact(slices.Sorted(slices.Values(s.keys)))) != want {
				t.Fatalf("%s: spec %v: want %d distinct keys", w.name, s, want)
			}
		}
	}
}

// The skewed workload's hottest key takes about a tenth of all picks; the
// uniform ones spread evenly.
func TestGeneratorSkew(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g := newGenerator(w, 1)
		const picks = 200000
		hits := make([]int, w.keys)
		for j := 0; j < picks; j++ {
			hits[g.pick()]++
		}
		top := float64(slices.Max(hits)) / picks
		lo, hi := 0.0, 0.002
		if w.zipfS > 0 {
			lo, hi = 0.07, 0.15
		}
		if top < lo || top > hi {
			t.Errorf("%s: hottest key share %.4f, want [%.3f, %.3f]", w.name, top, lo, hi)
		}
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}, {1, 1000 * time.Microsecond}, {0.0001, time.Microsecond}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The correctness hook must flag known-bad histories, so that a reported
// 0 means the checker looked and found nothing.
func TestCheckFlagsFracturedReadAndLostUpdate(t *testing.T) {
	at := time.Unix(1000, 0)
	tick := func(i int) time.Time { return at.Add(time.Duration(i) * time.Millisecond) }
	id := func(seq uint64) wire.TxnID { return wire.TxnID{Node: loadNode, Seq: seq} }
	keys := []string{"x", "y"}
	// writer reads both keys at genesis and writes a token to each.
	writer := func(seq uint64, start int) checker.ClientTxnObs {
		return checker.ClientTxnObs{
			ID: id(seq), Outcome: checker.OutcomeCommitted, Writes: keys,
			Reads: readObs(keys, []kv.ReadResult{{}, {}}), Start: tick(start), End: tick(start + 1),
		}
	}
	// reader observes x and y as the given values.
	reader := func(seq uint64, x, y []byte) checker.ClientTxnObs {
		return checker.ClientTxnObs{
			ID: id(seq), Outcome: checker.OutcomeCommitted, ReadOnly: true,
			Reads: readObs(keys, []kv.ReadResult{{Val: x, Exists: x != nil}, {Val: y, Exists: y != nil}}),
			Start: tick(10), End: tick(11),
		}
	}
	cases := []struct {
		name     string
		txns     []checker.ClientTxnObs
		roAborts int
		correct  bool
	}{
		{"clean", []checker.ClientTxnObs{writer(1, 0), reader(2, token(id(1)), token(id(1)))}, 0, true},
		{"fractured read", []checker.ClientTxnObs{writer(1, 0), reader(2, token(id(1)), nil)}, 0, false},
		{"lost update", []checker.ClientTxnObs{writer(1, 0), writer(3, 0)}, 0, false},
		{"corrupt value", []checker.ClientTxnObs{writer(1, 0), reader(2, []byte("garbage"), token(id(1)))}, 0, false},
		{"read-only abort", []checker.ClientTxnObs{writer(1, 0)}, 1, false},
	}
	for _, c := range cases {
		h := checker.NewClientHistory()
		for _, obs := range c.txns {
			h.Add(obs)
		}
		v := checkHistory(h, c.roAborts)
		if v.correct() != c.correct {
			t.Errorf("%s: correct=%v (anomalies %d, err %v), want %v", c.name, v.correct(), v.anomalies, v.err, c.correct)
		}
		if wantAnomaly := !c.correct && c.roAborts == 0; (v.anomalies > 0) != wantAnomaly {
			t.Errorf("%s: anomalies=%d, want an anomaly: %v", c.name, v.anomalies, wantAnomaly)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, id := range []wire.TxnID{{Node: loadNode, Seq: 1}, {Node: preloadNode, Seq: 1 << 40}} {
		got, ok := parseToken(token(id))
		if !ok || got != id {
			t.Errorf("parseToken(token(%v)) = %v, %v", id, got, ok)
		}
	}
	if _, ok := parseToken([]byte("t1.x|")); ok {
		t.Error("malformed token parsed")
	}
}
