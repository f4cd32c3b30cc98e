package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/cryptopool"
	"sbft/internal/kvstore"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// clientTimeout is the request timeout cmd/sbft-client ships with.
const clientTimeout = 4 * time.Second

// replicaNode is one replica of the deployment, wired as cmd/sbft-node
// wires it with -data (except for snapshot persistence, see deploy).
type replicaNode struct {
	id     int
	shell  *transport.Shell
	rep    *core.Replica
	app    *apps.KVApp
	pool   *cryptopool.Pool
	ledger *storage.Ledger
	down   bool
}

// deployment is a 4-replica (f=1, c=0) SBFT group plus two client
// sessions, all in this process over loopback TCP.
type deployment struct {
	w        workload
	seed     uint64
	cfg      core.Config
	dir      string
	epoch    time.Time
	tr       *tracer // nil on end-to-end runs
	replicas []*replicaNode
	sessions []*session
	written  []atomic.Uint32

	mu         sync.Mutex
	violations []string
}

func (d *deployment) now() int64 { return int64(time.Since(d.epoch)) }

func (d *deployment) violate(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.violations) < 20 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

// deploy assembles and starts the deployment from the constructors
// cmd/sbft-node uses, then connects the sessions and preloads the working
// set. Snapshots persist on the synchronous path: sbft-node's async
// snapshot sink lives in its package main and is not reused here.
func deploy(w workload, seed uint64, dir string, epoch time.Time, tr *tracer) (d *deployment, err error) {
	d = &deployment{w: w, seed: seed, cfg: core.DefaultConfig(1, 0), dir: dir, epoch: epoch, tr: tr}
	if w.reader {
		d.written = make([]atomic.Uint32, w.keys)
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	suite, keys, err := dealSuite(d.cfg, w.bls, seed)
	if err != nil {
		return d, err
	}
	n := d.cfg.N()
	peers := make(map[int]string, n)
	for id := 1; id <= n; id++ {
		sh, err := transport.NewShell(id, "127.0.0.1:0", peers)
		if err != nil {
			return d, err
		}
		d.replicas = append(d.replicas, &replicaNode{id: id, shell: sh})
		peers[id] = sh.Addr()
	}
	for _, r := range d.replicas {
		if err := d.startReplica(r, suite, keys[r.id-1]); err != nil {
			return d, err
		}
	}
	for s := 1; s <= 2; s++ {
		sess, err := d.startSession(s, suite, peers)
		if err != nil {
			return d, err
		}
		d.sessions = append(d.sessions, sess)
	}
	return d, d.preload()
}

// dealSuite deals the σ/τ/π threshold keys. BLS dealing randomness comes
// from the seed, so a seed names the same keys on every run.
func dealSuite(cfg core.Config, bls bool, seed uint64) (core.CryptoSuite, []core.ReplicaKeys, error) {
	if !bls {
		return core.InsecureSuite(cfg, fmt.Sprintf("wallbench-%d", seed))
	}
	var key [32]byte
	copy(key[:], fmt.Sprintf("wallbench-bls-%d", seed))
	return core.DealSuite(cfg, threshbls.Dealer{Rand: rand.NewChaCha8(key)})
}

func (d *deployment) startReplica(r *replicaNode, suite core.CryptoSuite, keys core.ReplicaKeys) error {
	led, err := storage.Open(filepath.Join(d.dir, fmt.Sprintf("r%d", r.id)), storage.Options{Sync: true})
	if err != nil {
		return err
	}
	r.ledger = led
	r.app = apps.NewKVApp()
	var (
		env       core.Env         = r.shell
		app       core.Application = r.app
		store     core.BlockStore  = led
		node      transport.Node
		poolSuite = suite
		do        = r.shell.Do
	)
	var lp *loop
	if d.tr != nil {
		lp = d.tr.loop(r.id)
		env = tracedEnv{r.shell, lp}
		app = tracedApp{r.app, lp}
		store = tracedStore{led, lp}
		keys = traceKeys(keys, lp)
		poolSuite = traceSuite(suite, d.tr.detached(r.id))
		suite = traceSuite(suite, lp)
		do = lp.wrapDo(r.shell.Do)
	}
	rep, err := core.NewReplica(r.id, d.cfg, suite, keys, app, env, store)
	if err != nil {
		return err
	}
	r.rep = rep
	r.pool = cryptopool.New(poolSuite, runtime.NumCPU(), do)
	if lp != nil {
		rep.SetCryptoSink(tracedSink{r.pool, lp})
		node = tracedNode{rep, lp, kDeliver}
	} else {
		rep.SetCryptoSink(r.pool)
		node = rep
	}
	r.shell.Start(node)
	return nil
}

// crash stops a replica abruptly: its shell closes, so it neither
// receives nor sends again.
func (d *deployment) crash(id int) {
	r := d.replicas[id-1]
	r.down = true
	r.shell.Close()
}

func (d *deployment) live() []*replicaNode {
	var out []*replicaNode
	for _, r := range d.replicas {
		if !r.down {
			out = append(out, r)
		}
	}
	return out
}

// close stops everything the deployment started and removes its data.
func (d *deployment) close() {
	for _, s := range d.sessions {
		s.shell.Close()
	}
	for _, r := range d.replicas {
		if r.pool != nil {
			r.pool.Close()
		}
		r.shell.Close()
		if r.ledger != nil {
			r.ledger.Close()
		}
	}
	os.RemoveAll(d.dir)
}

// metrics snapshots every live replica's protocol counters.
func (d *deployment) metrics() map[int]core.Metrics {
	out := make(map[int]core.Metrics)
	for _, r := range d.live() {
		var m core.Metrics
		r.shell.Do(func() { m = r.rep.Metrics })
		out[r.id] = m
	}
	return out
}

// audit checks the replicated state once load has stopped: every live
// replica must reach one execution frontier and agree on the application
// digest there.
func (d *deployment) audit(timeout time.Duration) {
	live := d.live()
	deadline := time.Now().Add(timeout)
	for {
		var seqs []uint64
		var digests [][]byte
		for _, r := range live {
			var s uint64
			var dg []byte
			r.shell.Do(func() { s, dg = r.rep.LastExecuted(), r.app.Digest() })
			seqs = append(seqs, s)
			digests = append(digests, dg)
		}
		same := true
		for i := range seqs {
			if seqs[i] != seqs[0] {
				same = false
			}
		}
		if same {
			for i := range digests {
				if !bytes.Equal(digests[i], digests[0]) {
					d.violate("replica %d digest differs from replica %d at seq %d", live[i].id, live[0].id, seqs[0])
				}
			}
			return
		}
		if time.Now().After(deadline) {
			d.violate("live replicas did not reach a common frontier: LastExecuted %v", seqs)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// session is one closed-loop client: it submits its next request from the
// completion callback of the previous one, so it has at most one
// outstanding, like the measurement clients of §IX.
type session struct {
	d      *deployment
	n      int
	shell  *transport.Shell
	client *core.Client
	gen    *generator

	stop atomic.Bool
	// Owned by the session's event loop.
	queue   []request // fixed requests (preload) before the generator
	onIdle  func()
	cur     request
	curRec  record
	recs    []record
	lastVer map[int]uint32 // reader: last version seen per key
}

func (d *deployment) startSession(n int, suite core.CryptoSuite, peers map[int]string) (*session, error) {
	id := core.ClientBase + n
	book := make(map[int]string, len(peers))
	for k, v := range peers {
		book[k] = v
	}
	sh, err := transport.NewShell(id, "127.0.0.1:0", book)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, n: n, shell: sh, gen: newGenerator(d.w, d.seed, n, d.written), lastVer: make(map[int]uint32)}
	var (
		env    core.Env = sh
		verify          = apps.VerifyKV
		node   transport.Node
		lp     *loop
	)
	if d.tr != nil {
		lp = d.tr.loop(id)
		env = tracedEnv{sh, lp}
		suite = traceSuite(suite, lp)
		verify = traceVerifier(apps.VerifyKV, lp)
	}
	cl, err := core.NewClient(id, d.cfg, suite, env, verify)
	if err != nil {
		sh.Close()
		return nil, err
	}
	cl.RequestTimeout = clientTimeout
	cl.SetReadKey(kvstore.ReadKey)
	cl.SetOnResult(s.onResult)
	cl.SetOnReadResult(s.onReadResult)
	s.client = cl
	node = cl
	if lp != nil {
		node = tracedNode{cl, lp, kClientDeliver}
	}
	sh.Start(node)
	sh.AnnounceAll()
	return s, nil
}

// preload writes the working set through the protocol, both sessions in
// parallel, and waits for it.
func (d *deployment) preload() error {
	idle := make(chan struct{}, len(d.sessions))
	for _, s := range d.sessions {
		reqs := preloadOps(d.seed, d.w.keys, s.n)
		s.shell.Do(func() {
			s.queue = reqs
			s.onIdle = func() { idle <- struct{}{} }
			s.submitNext()
		})
	}
	timeout := time.After(60 * time.Second)
	for range d.sessions {
		select {
		case <-idle:
		case <-timeout:
			return fmt.Errorf("preload did not finish within 60s")
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.violations) > 0 {
		return fmt.Errorf("preload: %s", strings.Join(d.violations, "; "))
	}
	return nil
}

// run starts the closed loop on every session.
func (d *deployment) run() {
	for _, s := range d.sessions {
		s.stop.Store(false)
		s.shell.Do(func() {
			s.onIdle = nil
			s.submitNext()
		})
	}
}

// drain stops every session from issuing new requests and waits, up to
// timeout, for the outstanding ones to complete.
func (d *deployment) drain(timeout time.Duration) {
	for _, s := range d.sessions {
		s.stop.Store(true)
	}
	deadline := time.Now().Add(timeout)
	for _, s := range d.sessions {
		for {
			var busy bool
			s.shell.Do(func() { busy = s.client.Busy() })
			if !busy || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// records returns every request the sessions issued.
func (d *deployment) records() []record {
	var out []record
	for _, s := range d.sessions {
		s.shell.Do(func() {
			out = append(out, s.recs...)
			if s.client.Busy() {
				out = append(out, s.curRec)
			}
		})
	}
	return out
}

// submitNext issues the session's next request; it runs on the session's
// event loop.
func (s *session) submitNext() {
	if s.stop.Load() {
		return
	}
	var r request
	switch {
	case len(s.queue) > 0:
		r, s.queue = s.queue[0], s.queue[1:]
	case s.onIdle != nil:
		fn := s.onIdle
		s.onIdle = nil
		fn()
		return
	default:
		r = s.gen.request()
	}
	s.cur = r
	s.curRec = record{submit: s.d.now(), ops: r.ops, read: r.read}
	var err error
	if r.read {
		err = s.client.SubmitRead(r.op)
	} else {
		err = s.client.Submit(r.op)
	}
	if err != nil {
		// A refused submission is a failed attempt; try again shortly.
		s.curRec.failed = true
		s.curRec.done = s.curRec.submit
		s.recs = append(s.recs, s.curRec)
		s.d.violate("session %d: submit refused: %v", s.n, err)
		s.shell.After(time.Millisecond, s.submitNext)
	}
}

func (s *session) finish(rec record) {
	rec.done = s.d.now()
	s.recs = append(s.recs, rec)
	if s.d.tr != nil {
		s.d.tr.result(s.client.ID(), rec)
	}
	s.submitNext()
}

func (s *session) onResult(res core.Result) {
	rec := s.curRec
	rec.seq, rec.retried, rec.fastAck = res.Seq, res.Retried, res.FastAck
	if string(res.Val) != expectedWrite(s.cur) {
		rec.failed = true
		s.d.violate("session %d: write at seq %d returned %q, want %q", s.n, res.Seq, res.Val, expectedWrite(s.cur))
	}
	s.finish(rec)
}

func (s *session) onReadResult(res core.ReadResult) {
	rec := s.curRec
	rec.seq, rec.ordered, rec.failovers = res.Seq, res.Ordered, res.Failovers
	k := s.cur.key
	writer, ver, ok := parseValue(s.d.seed, k, res.Val)
	switch {
	case !res.Found || !ok:
		rec.failed = true
		s.d.violate("read of %s returned a value never written (found=%v)", keyName(k), res.Found)
	case writer == 0 && ver != 0, writer != 0 && writer != 1:
		rec.failed = true
		s.d.violate("read of %s returned writer %d version %d", keyName(k), writer, ver)
	case ver > s.d.written[k].Load():
		rec.failed = true
		s.d.violate("read of %s returned version %d before it was written", keyName(k), ver)
	case ver < s.lastVer[k]:
		rec.failed = true
		s.d.violate("read of %s went back from version %d to %d", keyName(k), s.lastVer[k], ver)
	default:
		s.lastVer[k] = ver
	}
	s.finish(rec)
}
