package main

import (
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// The correctness check follows the client-history discipline of
// internal/checker: every written value is a token naming its writing
// attempt, and every update reads each key it writes, so the checker can
// chain per-key version orders from client observations alone.

const (
	// loadNode tags generated attempts, preloadNode the preload
	// transactions, so the two identity spaces never collide.
	loadNode    = 1
	preloadNode = 1 << 20
	valueSize   = 24
)

// corruptWriter stands for a value that is not a token. It is never a
// recorded transaction, so the checker reports the read as a phantom.
var corruptWriter = wire.TxnID{Node: -1, Seq: 1}

// ids hands out unique attempt identities.
type ids struct{ seq atomic.Uint64 }

func (g *ids) next() wire.TxnID { return wire.TxnID{Node: loadNode, Seq: g.seq.Add(1)} }

func token(id wire.TxnID) []byte {
	b := make([]byte, 0, valueSize)
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(id.Node), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, id.Seq, 10)
	b = append(b, '|')
	for len(b) < valueSize {
		b = append(b, 'x')
	}
	return b
}

func parseToken(val []byte) (wire.TxnID, bool) {
	s := string(val)
	end := strings.IndexByte(s, '|')
	if !strings.HasPrefix(s, "t") || end < 0 {
		return wire.TxnID{}, false
	}
	node, seq, ok := strings.Cut(s[1:end], ".")
	if !ok {
		return wire.TxnID{}, false
	}
	n, err1 := strconv.ParseInt(node, 10, 32)
	q, err2 := strconv.ParseUint(seq, 10, 64)
	if err1 != nil || err2 != nil {
		return wire.TxnID{}, false
	}
	return wire.TxnID{Node: wire.NodeID(n), Seq: q}, true
}

// readObs maps read results to the writers the checker chains on; a
// missing key reads the genesis version.
func readObs(keys []string, res []kv.ReadResult) []checker.ReadObs {
	out := make([]checker.ReadObs, 0, len(res))
	for i, r := range res {
		w := wire.TxnID{}
		if r.Exists {
			if p, ok := parseToken(r.Val); ok {
				w = p
			} else {
				w = corruptWriter
			}
		}
		out = append(out, checker.ReadObs{Key: keys[i], Writer: w})
	}
	return out
}

// verdict is the run's correctness result: the checker's violations
// (Check stops at the first, so this is 0 or 1) and read-only aborts,
// which SSS promises never happen. Either one marks the run incorrect.
type verdict struct {
	anomalies int
	roAborts  int
	err       error
}

func (v verdict) correct() bool { return v.anomalies == 0 && v.roAborts == 0 }

func checkHistory(h *checker.ClientHistory, roAborts int) verdict {
	v := verdict{roAborts: roAborts, err: h.Check()}
	if v.err != nil {
		v.anomalies = 1
	}
	return v
}
