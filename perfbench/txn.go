package main

import (
	"errors"
	"math/rand/v2"
	"time"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/kv"
)

// maxAttempts bounds how often an aborted update is retried with the same
// keys; an update still aborted after that counts as failed. Each retry
// first backs off for a random time below retryBackoff<<min(attempt, 6), so
// conflicting retries on a hot key spread out instead of colliding again.
// An update on the hottest key of hot-inproc takes up to ~13 attempts (a
// few per run, over 30-70 ms); the bound sits far above that, so only a
// livelock exhausts it, and it caps one update's retries at about 1 s.
const (
	maxAttempts  = 100
	retryBackoff = 100 * time.Microsecond
)

var errRetriesExhausted = errors.New("update aborted on every attempt")

// span is one timed call into the program.
type span struct {
	name       string
	start, end time.Time
}

// tracer collects one transaction's child spans. A nil tracer records
// nothing, so an untraced run pays one nil check per call.
type tracer struct{ spans []span }

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, start time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{name, start, time.Now()})
	}
}

// store is what the load generator drives: one transaction attempt per
// call, on the route (client connection or node) the caller names.
type store interface {
	// snapshot runs one read-only transaction over keys.
	snapshot(route int, keys []string, tr *tracer) ([]kv.ReadResult, error)
	// rmw runs one read-modify-write attempt: read every key, write val to
	// each, commit. atCommit reports that err came from Commit itself, so
	// the attempt may have committed unless err is kv.ErrAborted.
	rmw(route int, keys []string, val []byte, tr *tracer) (reads []kv.ReadResult, atCommit bool, err error)
}

// kvStore drives any kv.Store: client.Client over TCP, or sss.Node
// in-proc. Span names carry the layer the calls enter.
type kvStore struct {
	routes                                                []kv.Store
	nBegin, nRead, nMultiRead, nSnapshot, nWrite, nCommit string
}

func newKVStore(layer string, routes []kv.Store) *kvStore {
	return &kvStore{
		routes: routes,
		nBegin: layer + ".begin", nRead: layer + ".read", nMultiRead: layer + ".multiread",
		nSnapshot: layer + ".snapshot_read", nWrite: layer + ".write", nCommit: layer + ".commit",
	}
}

func (s *kvStore) snapshot(route int, keys []string, tr *tracer) ([]kv.ReadResult, error) {
	st := s.routes[route%len(s.routes)]
	if sr, ok := st.(kv.SnapshotReader); ok {
		t0 := tr.begin()
		res, err := sr.SnapshotRead(keys)
		tr.end(s.nSnapshot, t0)
		return res, err
	}
	t0 := tr.begin()
	tx := st.Begin(true)
	tr.end(s.nBegin, t0)
	res, err := s.read(tx, keys, tr)
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	t0 = tr.begin()
	err = tx.Commit()
	tr.end(s.nCommit, t0)
	return res, err
}

func (s *kvStore) read(tx kv.Txn, keys []string, tr *tracer) ([]kv.ReadResult, error) {
	if mr, ok := tx.(kv.MultiReader); ok {
		t0 := tr.begin()
		res, err := mr.MultiRead(keys)
		tr.end(s.nMultiRead, t0)
		return res, err
	}
	res := make([]kv.ReadResult, len(keys))
	for i, k := range keys {
		t0 := tr.begin()
		v, ok, err := tx.Read(k)
		tr.end(s.nRead, t0)
		if err != nil {
			return nil, err
		}
		res[i] = kv.ReadResult{Val: v, Exists: ok}
	}
	return res, nil
}

func (s *kvStore) rmw(route int, keys []string, val []byte, tr *tracer) ([]kv.ReadResult, bool, error) {
	t0 := tr.begin()
	tx := s.routes[route%len(s.routes)].Begin(false)
	tr.end(s.nBegin, t0)
	res, err := s.read(tx, keys, tr)
	if err != nil {
		_ = tx.Abort()
		return nil, false, err
	}
	for _, k := range keys {
		t0 := tr.begin()
		err := tx.Write(k, val)
		tr.end(s.nWrite, t0)
		if err != nil {
			_ = tx.Abort()
			return res, false, err
		}
	}
	t0 = tr.begin()
	err = tx.Commit()
	tr.end(s.nCommit, t0)
	return res, true, err
}

// txnResult is one generated transaction as the load generator saw it.
type txnResult struct {
	seq    uint64 // generator sequence number: the root span's key
	ro     bool
	traced bool
	// due is when the schedule meant to send it; latency runs from there,
	// so generator lateness and queueing are charged to the transaction.
	due        time.Time
	start, end time.Time
	attempts   int // update attempts made
	aborts     int // update attempts that aborted
	roAbort    bool
	err        error // non-abort failure, or every attempt aborted
	spans      []span
}

func (r *txnResult) latency() time.Duration { return r.end.Sub(r.due) }

func (r *txnResult) committed() bool { return r.err == nil && !r.roAbort }

// runner executes generated transactions and records every attempt into
// the client history the correctness check runs on.
type runner struct {
	st   store
	hist *checker.ClientHistory
	ids  ids
}

func (r *runner) run(seq uint64, spec txnSpec, due time.Time, trace bool) txnResult {
	var tr *tracer
	if trace {
		tr = &tracer{}
	}
	res := txnResult{seq: seq, ro: spec.ro, traced: trace, due: due, start: time.Now()}
	route := int(seq)
	if spec.ro {
		vals, err := r.st.snapshot(route, spec.keys, tr)
		res.end = time.Now()
		switch {
		case err == nil:
			r.hist.Add(checker.ClientTxnObs{
				ID: r.ids.next(), Outcome: checker.OutcomeCommitted, ReadOnly: true,
				Reads: readObs(spec.keys, vals), Start: res.start, End: res.end,
			})
		case errors.Is(err, kv.ErrAborted):
			res.roAbort = true
		default:
			res.err = err
		}
	} else {
		res.err = errRetriesExhausted
		for res.attempts < maxAttempts {
			res.attempts++
			id := r.ids.next()
			obs := checker.ClientTxnObs{ID: id, Writes: spec.keys, Start: time.Now()}
			vals, atCommit, err := r.st.rmw(route, spec.keys, token(id), tr)
			obs.End = time.Now()
			obs.Reads = readObs(spec.keys, vals)
			switch {
			case err == nil:
				obs.Outcome = checker.OutcomeCommitted
			case errors.Is(err, kv.ErrAborted):
				obs.Outcome = checker.OutcomeAborted
				res.aborts++
			case atCommit:
				obs.Outcome = checker.OutcomeUnknown
			default:
				// Commit was never sent, so the attempt cannot have committed.
				obs.Outcome = checker.OutcomeAborted
			}
			r.hist.Add(obs)
			if obs.Outcome == checker.OutcomeCommitted || !errors.Is(err, kv.ErrAborted) {
				res.err = err
				break
			}
			if res.attempts < maxAttempts {
				time.Sleep(rand.N(retryBackoff << min(res.attempts, 6)))
			}
		}
		res.end = time.Now()
	}
	if tr != nil {
		res.spans = tr.spans
	}
	return res
}
