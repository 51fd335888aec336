package main

import (
	"runtime"
	"slices"
	"time"

	"github.com/sss-paper/sss/internal/obs"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// counterDelta reads the program's counters as deltas over a phase.
type counterDelta struct{ a, b *obs.Page }

func (d counterDelta) n(name string) float64 { return d.b.Counters[name] - d.a.Counters[name] }

// meanUS is a server histogram's exact mean over the phase (sum/count),
// never one of its power-of-two bucket bounds.
func (d counterDelta) meanUS(hist string) float64 {
	hb, ha := d.b.Hists[hist], d.a.Hists[hist]
	if hb == nil {
		return 0
	}
	sum, count := hb.Sum, float64(hb.Count)
	if ha != nil {
		sum, count = sum-ha.Sum, count-float64(ha.Count)
	}
	return ratio(sum*1e6, count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanStats is what the trace of a phase yields: the mean duration of the
// calls into each layer function, and the load generator's own self time
// per transaction (root span minus the calls it made).
type spanStats struct {
	meanUS     map[string]float64
	selfMeanUS float64
}

func traceStats(results []txnResult) spanStats {
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	var self time.Duration
	var traced int
	for i := range results {
		r := &results[i]
		if r.end.IsZero() {
			continue
		}
		traced++
		inner := time.Duration(0)
		for _, s := range r.spans {
			d := s.end.Sub(s.start)
			inner += d
			// A read-only commit in-proc only ends the snapshot; the
			// commit mean is the update commit path.
			if r.ro && (s.name == "engine.commit" || s.name == "client.commit") {
				continue
			}
			sum[s.name] += d
			cnt[s.name]++
		}
		self += r.end.Sub(r.start) - inner
	}
	st := spanStats{meanUS: map[string]float64{}, selfMeanUS: ratio(us(self), float64(traced))}
	for name, d := range sum {
		st.meanUS[name] = us(d) / float64(cnt[name])
	}
	return st
}

// splitTraced separates a traced phase's traced and untraced transactions.
func splitTraced(p phase) (on, off phase) {
	on, off = p, p
	on.results, off.results = nil, nil
	for _, r := range p.results {
		if r.traced {
			on.results = append(on.results, r)
		} else {
			off.results = append(off.results, r)
		}
	}
	return on, off
}

// overheadPct compares the median latency of the traced and the untraced
// committed transactions of one phase, in percent.
func overheadPct(on, off summary) float64 {
	all := func(s summary) []time.Duration {
		l := append(slices.Clone(s.ro), s.upd...)
		slices.Sort(l)
		return l
	}
	base := float64(quantile(all(off), 0.5))
	return 100 * ratio(float64(quantile(all(on), 0.5))-base, base)
}

// usage is the program's counters and resource use at one instant.
type usage struct {
	ctr     *obs.Page
	cpu     time.Duration
	mallocs uint64 // this process's heap allocations
}

func readUsage(tg target) (usage, error) {
	ctr, err := tg.counters()
	if err != nil {
		return usage{}, err
	}
	cpu, err := tg.cpu()
	if err != nil {
		return usage{}, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{ctr, cpu, mem.Mallocs}, nil
}

// layerInput is everything a phase leaves for the per-layer metrics.
type layerInput struct {
	p             phase
	s             summary
	untraced      summary // the phase's untraced transactions only
	capacity      float64
	before, after usage
	rssMB         float64
	spans         spanStats
	v             verdict
	overheadPc    float64
}

// layerMetrics derives the per-layer numbers, named after the repo's
// modules. Counts are per committed transaction (as the load generator saw
// them) or per committed update (the servers' commit counter). A layer the
// workload does not reach reports 0.
func layerMetrics(in layerInput) []metric {
	d, s := counterDelta{in.before.ctr, in.after.ctr}, in.s
	txns := float64(s.committed)
	commits := d.n("sss_commits_total")
	sp := in.spans.meanUS
	return []metric{
		{"loadgen.lag_p99_ms", ms(in.p.lagP99()), "ms"},
		{"loadgen.inflight_max", float64(in.p.inflightMax), "count"},
		{"loadgen.self_mean_us", in.spans.selfMeanUS, "us"},

		{"client.begin_mean_us", sp["client.begin"], "us"},
		{"client.snapshot_read_mean_us", sp["client.snapshot_read"], "us"},
		{"client.multiread_mean_us", sp["client.multiread"], "us"},
		{"client.commit_mean_us", sp["client.commit"], "us"},
		{"client.requests_per_flush", ratio(d.n("load_client_batch_requests_total"), d.n("load_client_batch_flushes_total")), "1/flush"},

		{"clientproto.requests_per_txn", ratio(d.n("sss_client_requests_total"), txns), "1/txn"},
		{"clientproto.requests_per_flush", ratio(d.n("sss_client_batch_requests_total"), d.n("sss_client_batch_flushes_total")), "1/flush"},
		{"clientproto.client_ack_mean_us", d.meanUS("sss_stage_client_ack_seconds"), "us"},

		{"engine.begin_mean_us", sp["engine.begin"], "us"},
		{"engine.read_mean_us", sp["engine.read"], "us"},
		{"engine.commit_mean_us", sp["engine.commit"], "us"},
		{"engine.internal_mean_us", d.meanUS("sss_internal_latency_seconds"), "us"},
		{"engine.precommit_wait_mean_us", d.meanUS("sss_pre_commit_wait_seconds"), "us"},
		{"engine.vote_mean_us", d.meanUS("sss_stage_vote_seconds"), "us"},
		{"engine.decide_mean_us", d.meanUS("sss_stage_decide_seconds"), "us"},
		{"engine.freeze_mean_us", d.meanUS("sss_stage_freeze_seconds"), "us"},
		{"engine.purge_mean_us", d.meanUS("sss_stage_purge_seconds"), "us"},
		{"engine.precommit_holds_per_commit", ratio(d.n("sss_pre_commit_hold_total"), commits), "1/commit"},
		{"engine.external_waits_per_commit", ratio(d.n("sss_external_waits_total"), commits), "1/commit"},
		{"engine.standalone_drains_per_commit", ratio(d.n("sss_commit_rounds_drain_rounds_total"), commits), "1/commit"},
		{"engine.freezes_per_batch", ratio(d.n("sss_commit_rounds_freeze_batch_txns_total"), d.n("sss_commit_rounds_freeze_batches_total")), "1/batch"},
		{"engine.drain_timeouts", d.n("sss_drain_timeouts_total"), "count"},

		{"mvstore.sq_waits_per_commit", ratio(d.n("sss_contention_sq_waits_total"), commits), "1/commit"},
		{"commitlog.log_waits_per_commit", ratio(d.n("sss_contention_log_waits_total"), commits), "1/commit"},

		{"transport.envelopes_per_txn", ratio(d.n("sss_transport_envelopes_total"), txns), "1/txn"},
		{"transport.flushes_per_txn", ratio(d.n("sss_transport_flushes_total"), txns), "1/txn"},
		{"transport.envelopes_per_flush", ratio(d.n("sss_transport_envelopes_total"), d.n("sss_transport_flushes_total")), "1/flush"},
		{"transport.spills_per_txn", ratio(d.n("sss_transport_spills_total"), txns), "1/txn"},

		{"wal.syncs_per_commit", ratio(d.n("sss_wal_syncs_total"), commits), "1/commit"},
		{"wal.bytes_per_commit", ratio(d.n("sss_wal_bytes_total"), commits), "B/commit"},
		{"wal.sync_mean_us", d.meanUS("sss_sync_latency_seconds"), "us"},
		{"wal.records_per_sync", ratio(d.n("sss_wal_synced_records_total"), d.n("sss_wal_syncs_total")), "1/sync"},

		{"proc.cpu_us_per_txn", ratio(us(in.after.cpu-in.before.cpu), txns), "us/txn"},
		{"proc.allocs_per_txn", ratio(float64(in.after.mallocs-in.before.mallocs), txns), "1/txn"},
		{"proc.rss_mb", in.rssMB, "MiB"},

		{"txn.capacity_txn_s", in.capacity, "txn/s"},
		{"txn.upd_p99_ms", ms(quantile(in.untraced.upd, 0.99)), "ms"},
		{"txn.ro_p99_ms", ms(quantile(in.untraced.ro, 0.99)), "ms"},
		{"txn.upd_abort_pct", s.updAbortPct(), "%"},
		{"txn.failed_pct", s.failedPct(), "%"},
		{"txn.slo_miss_pct", s.sloMissPct(), "%"},
		{"check.ro_aborts", float64(in.v.roAborts), "count"},
		{"check.anomalies", float64(in.v.anomalies), "count"},
		{"trace.overhead_pct", in.overheadPc, "%"},
	}
}
