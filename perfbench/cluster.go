package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	sss "github.com/sss-paper/sss"
	"github.com/sss-paper/sss/client"
	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/harness"
	"github.com/sss-paper/sss/internal/obs"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

const (
	// requestTimeout bounds one client request; a transaction that hits
	// it counts as failed.
	requestTimeout = 5 * time.Second
	// preloadChunk keys go into one preload transaction.
	preloadChunk = 250
	// netLatency is the in-proc simulated one-way network latency.
	netLatency = 20 * time.Microsecond
)

// target is a booted, preloaded cluster under test.
type target interface {
	store
	// counters snapshots every counter the program exports, summed over
	// the nodes, under the names of the /metrics exposition.
	counters() (*obs.Page, error)
	// cpu is the CPU time the cluster has used so far: the server
	// processes over TCP, this process in-proc.
	cpu() (time.Duration, error)
	rssMB() (float64, error)
	close() error
}

// clientConns is how many client connections carry the TCP load: at most
// one per CPU and at most two, so on a 2-core machine two of the three
// nodes coordinate and the third is a replica only.
func clientConns() int { return min(runtime.NumCPU(), 2) }

type tcpTarget struct {
	*kvStore
	c       *harness.Cluster
	dir     string
	clients []*client.Client
	pids    []int
	http    *http.Client
}

// startTCP boots sss-server processes on loopback and preloads every key
// through the client protocol, recording the preload into h.
func startTCP(w *workload, bin, dir string, h *checker.ClientHistory) (*tcpTarget, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := harness.Start(harness.Config{
		Nodes: w.nodes, Replication: w.repl, BinPath: bin, Dir: dir, Durable: w.durable,
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	t := &tcpTarget{c: c, dir: dir, http: &http.Client{Timeout: 5 * time.Second}}
	var routes []kv.Store
	for _, addr := range c.ClientAddrs()[:clientConns()] {
		cl, err := client.Dial(addr, client.Options{Conns: 1, RequestTimeout: requestTimeout})
		if err != nil {
			_ = t.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		t.clients = append(t.clients, cl)
		routes = append(routes, cl)
	}
	t.kvStore = newKVStore("client", routes)
	if t.pids, err = childPIDs("sss-server"); err == nil && len(t.pids) != w.nodes {
		err = fmt.Errorf("found %d sss-server processes, want %d", len(t.pids), w.nodes)
	}
	if err == nil {
		err = preloadTCP(t.kvStore, w.keys, h)
	}
	if err != nil {
		_ = t.close()
		return nil, err
	}
	return t, nil
}

// preloadTCP writes a token to every key, a chunk per transaction, with a
// few chunks in flight so set-up is not one round trip per key in series.
func preloadTCP(s *kvStore, keys int, h *checker.ClientHistory) error {
	chunks := (keys + preloadChunk - 1) / preloadChunk
	var (
		wg   sync.WaitGroup
		next = make(chan int, chunks) // filled once, before the workers start
		errs = make(chan error, chunks)
	)
	for c := 0; c < chunks; c++ {
		next <- c
	}
	close(next)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				var names []string
				for k := c * preloadChunk; k < min((c+1)*preloadChunk, keys); k++ {
					names = append(names, keyName(k))
				}
				id := wire.TxnID{Node: preloadNode, Seq: uint64(c + 1)}
				rec := checker.ClientTxnObs{ID: id, Writes: names, Start: time.Now()}
				res, _, err := s.rmw(c, names, token(id), nil)
				if err != nil {
					errs <- fmt.Errorf("preload chunk %d: %w", c, err)
					return
				}
				rec.End, rec.Outcome, rec.Reads = time.Now(), checker.OutcomeCommitted, readObs(names, res)
				h.Add(rec)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (t *tcpTarget) counters() (*obs.Page, error) {
	var pages []*obs.Page
	for _, addr := range t.c.MetricsAddrs() {
		p, err := obs.Fetch(t.http, addr)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", addr, err)
		}
		pages = append(pages, p)
	}
	page := obs.MergePages(pages)
	// The load side's own client batching, next to the servers' series.
	for _, cl := range t.clients {
		page.Counters["load_client_batch_requests_total"] += float64(cl.Metrics().BatchRequests.Load())
		page.Counters["load_client_batch_flushes_total"] += float64(cl.Metrics().BatchFlushes.Load())
	}
	return page, nil
}

func (t *tcpTarget) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, pid := range t.pids {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

func (t *tcpTarget) rssMB() (float64, error) {
	var sum float64
	for _, pid := range t.pids {
		mb, err := procRSSMB(pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// close stops the clients and the servers, waits for the processes to
// exit, and removes the cluster's directory.
func (t *tcpTarget) close() error {
	var errs []error
	for _, cl := range t.clients {
		errs = append(errs, cl.Close())
	}
	errs = append(errs, t.c.Stop(), os.RemoveAll(t.dir))
	return errors.Join(errs...)
}

type inprocTarget struct {
	*kvStore
	c    *sss.Cluster
	regs []*obs.Registry
}

// startInproc builds an in-process cluster on the simulated network and
// preloads every key directly, recording the preload as one transaction.
func startInproc(w *workload, seed int64, h *checker.ClientHistory) (*inprocTarget, error) {
	c, err := sss.New(sss.Options{
		Nodes: w.nodes, ReplicationDegree: w.repl, NetworkLatency: netLatency, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	t := &inprocTarget{c: c}
	var routes []kv.Store
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		routes = append(routes, n)
		reg := obs.NewRegistry()
		reg.Register("", sss.HarnessNode(n).Stats())
		if i == 0 {
			reg.Register("transport", c.TransportMetrics())
		}
		t.regs = append(t.regs, reg)
	}
	t.kvStore = newKVStore("engine", routes)

	id := wire.TxnID{Node: preloadNode, Seq: 1}
	rec := checker.ClientTxnObs{ID: id, Outcome: checker.OutcomeCommitted, Start: time.Now()}
	val := token(id)
	for k := 0; k < w.keys; k++ {
		name := keyName(k)
		c.Preload(name, val)
		rec.Reads = append(rec.Reads, checker.ReadObs{Key: name})
		rec.Writes = append(rec.Writes, name)
	}
	rec.End = time.Now()
	h.Add(rec)
	return t, nil
}

func (t *inprocTarget) counters() (*obs.Page, error) {
	var pages []*obs.Page
	for _, reg := range t.regs {
		var buf bytes.Buffer
		if err := reg.Render(&buf); err != nil {
			return nil, err
		}
		p, err := obs.ParsePage(&buf)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return obs.MergePages(pages), nil
}

func (t *inprocTarget) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (t *inprocTarget) rssMB() (float64, error) { return procRSSMB(os.Getpid()) }

func (t *inprocTarget) close() error { return t.c.Close() }
