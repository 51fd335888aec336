package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// workload is one named traffic mix. Rates sit well below each mix's knee
// on a 2-core machine, so an open-loop run measures service time plus
// ordinary queueing, not an overload spiral (see NOTES.md for the sizing).
type workload struct {
	name string
	why  string
	// tcp runs 3 sss-server processes on loopback driven through the
	// client package; false runs an in-process sss.New cluster.
	tcp bool
	// durable gives every server a -data-dir (group-committed WAL).
	durable bool
	nodes   int
	repl    int
	keys    int
	// zipfS skews key picks by rank^-zipfS; 0 draws keys uniformly.
	zipfS   float64
	roFrac  float64
	roKeys  int
	updKeys int
	// rate is the offered load of the open-loop phase, in txn/s.
	rate float64
	// limit is the latency limit behind slo_miss_pct.
	limit time.Duration
	// outstanding is the closed-loop phase's number of transactions in
	// flight; it yields capacity_txn_s.
	outstanding int
}

var workloads = []workload{
	{
		name: "ro-heavy-tcp",
		why:  "3 sss-server, repl 2, no WAL, 10k uniform keys, 80% 8-key SnapshotRead RO at 1000 txn/s (limit 10 ms): client, clientproto, mvstore reads and transport dominate",
		tcp:  true, nodes: 3, repl: 2, keys: 10000,
		roFrac: 0.8, roKeys: 8, updKeys: 2,
		rate: 1000, limit: 10 * time.Millisecond, outstanding: 16,
	},
	{
		name: "update-wal-tcp",
		why:  "same cluster with group-committed WAL, 80% 2-key RMW at 600 txn/s (limit 25 ms): commit stages, commitlog/lockmgr and wal dominate; shows a read gain that costs writes",
		tcp:  true, durable: true, nodes: 3, repl: 2, keys: 10000,
		roFrac: 0.2, roKeys: 2, updKeys: 2,
		rate: 600, limit: 25 * time.Millisecond, outstanding: 16,
	},
	{
		name:  "hot-inproc",
		why:   "in-proc sss.New, 3 nodes, 20us net, 5k Zipf-1.01 keys, 50% RO 2-key at 1000 txn/s (limit 50 ms): snapshot-queuing and lock conflicts dominate, no client/TCP/WAL work",
		nodes: 3, repl: 2, keys: 5000, zipfS: 1.01,
		roFrac: 0.5, roKeys: 2, updKeys: 2,
		rate: 1000, limit: 50 * time.Millisecond, outstanding: 4,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// keyName is the store key of key index i.
func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// txnSpec is one generated transaction: its kind and its distinct keys.
type txnSpec struct {
	ro   bool
	keys []string
}

// generator draws the transaction stream of one workload from a seed. The
// program only ever sees the keys it yields. It deliberately does not use
// internal/ycsb's Zipfian, which maps θ=0.99 to rand.Zipf s=1.99 and puts
// ~60% of picks on one key (see NOTES.md).
type generator struct {
	w     *workload
	rng   *rand.Rand
	names []string
	cdf   []float64 // cumulative rank probabilities; nil = uniform
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	g.names = make([]string, w.keys)
	for i := range g.names {
		g.names[i] = keyName(i)
	}
	if w.zipfS > 0 {
		g.cdf = make([]float64, w.keys)
		sum := 0.0
		for i := range g.cdf {
			sum += math.Pow(float64(i+1), -w.zipfS)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

// pick returns one key index.
func (g *generator) pick() int {
	if g.cdf == nil {
		return g.rng.Intn(g.w.keys)
	}
	i := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	if i >= len(g.cdf) {
		i = len(g.cdf) - 1
	}
	return i
}

func (g *generator) next() txnSpec {
	ro := g.rng.Float64() < g.w.roFrac
	n := g.w.updKeys
	if ro {
		n = g.w.roKeys
	}
	spec := txnSpec{ro: ro, keys: make([]string, 0, n)}
	var seen [16]int
	for len(spec.keys) < n {
		k := g.pick()
		dup := false
		for _, s := range seen[:len(spec.keys)] {
			dup = dup || s == k
		}
		if !dup {
			seen[len(spec.keys)] = k
			spec.keys = append(spec.keys, g.names[k])
		}
	}
	return spec
}
