package node

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/kvstore"
	"sbft/internal/transport"
)

const testSeed = "node-test"

// group is a 4-replica (f=1, c=0) loopback deployment built by New. The
// replicas' peers book omits clients, as a deployed peers file does:
// replies reach a client only through the route its hello announces.
type group struct {
	cfg   core.Config
	suite core.CryptoSuite
	dir   string // "" for a bare group
	peers map[int]string
	nodes []*Node
}

// newGroup builds and starts a group. A durable group gets the -data
// wiring: a ledger and a 2-worker crypto pool per replica. Otherwise
// replicas keep no storage and verify shares inline, as sbft-node runs
// without -data or -crypto-workers.
func newGroup(t *testing.T, durable bool) *group {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	suite, _, err := core.InsecureSuite(cfg, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	g := &group{cfg: cfg, suite: suite, peers: make(map[int]string), nodes: make([]*Node, cfg.N()+1)}
	if durable {
		g.dir = t.TempDir()
	}
	for id := 1; id <= cfg.N(); id++ {
		g.nodes[id] = g.newNode(t, id, "127.0.0.1:0")
		g.peers[id] = g.nodes[id].Addr()
	}
	for _, n := range g.nodes[1:] {
		n.Start()
	}
	return g
}

// newNode builds (without starting) replica id, on the group's data
// directory for that id if it is durable.
func (g *group) newNode(t *testing.T, id int, listen string) *Node {
	t.Helper()
	cfg := Config{ID: id, Listen: listen, Peers: g.peers, Core: g.cfg, Seed: testSeed}
	if g.dir != "" {
		cfg.DataDir, cfg.CryptoWorkers = filepath.Join(g.dir, fmt.Sprint(id)), 2
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop() })
	return n
}

// await waits until replica id has executed seq.
func (g *group) await(t *testing.T, id int, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var le uint64
		g.nodes[id].Do(func(r *core.Replica) { le = r.LastExecuted() })
		if le >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck at %d < %d", id, le, seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// session is one client session with id core.ClientBase on a fresh
// listen address, announced to every replica.
type session struct {
	shell   *transport.Shell
	client  *core.Client
	results chan core.Result
}

func (g *group) connect(t *testing.T) *session {
	t.Helper()
	sh, err := transport.NewShell(core.ClientBase, "127.0.0.1:0", g.peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	c, err := core.NewClient(core.ClientBase, g.cfg, g.suite, sh, apps.VerifyKV)
	if err != nil {
		t.Fatal(err)
	}
	c.RequestTimeout = 2 * time.Second
	s := &session{shell: sh, client: c, results: make(chan core.Result, 1)}
	c.SetOnResult(func(res core.Result) { s.results <- res })
	sh.Start(c)
	sh.AnnounceAll()
	return s
}

// run drives ops as a closed loop, one outstanding at a time, and returns
// their results in order.
func (s *session) run(t *testing.T, ops [][]byte) []core.Result {
	t.Helper()
	var out []core.Result
	for i, op := range ops {
		s.shell.Do(func() {
			if err := s.client.Submit(op); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
		select {
		case res := <-s.results:
			out = append(out, res)
		case <-time.After(20 * time.Second):
			t.Fatalf("op %d of %d did not complete over TCP", i, len(ops))
		}
	}
	return out
}

// puts returns Put(k<i>, v<i>) for i in [from, to).
func puts(from, to int) [][]byte {
	var ops [][]byte
	for i := from; i < to; i++ {
		ops = append(ops, kvstore.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
	}
	return ops
}

// TestTCPClusterEndToEndConvergence commits puts and then gets over
// loopback TCP, checks every result, and asserts every replica converges
// to the same execution frontier, execution state digest and durable log.
func TestTCPClusterEndToEndConvergence(t *testing.T) {
	g := newGroup(t, true)
	const keys = 6
	ops := puts(0, keys)
	for i := 0; i < keys; i++ {
		ops = append(ops, kvstore.Get(fmt.Sprintf("k%d", i)))
	}
	var maxSeq uint64
	for i, res := range g.connect(t).run(t, ops) {
		want := "OK"
		if i >= keys {
			want = fmt.Sprintf("v%d", i-keys)
		}
		if string(res.Val) != want {
			t.Errorf("op %d returned %q, want %q", i, res.Val, want)
		}
		maxSeq = max(maxSeq, res.Seq)
	}

	n := g.cfg.N()
	les := make([]uint64, n+1)
	digests := make([][]byte, n+1)
	for id := 1; id <= n; id++ {
		g.await(t, id, maxSeq)
		g.nodes[id].Do(func(r *core.Replica) { les[id], digests[id] = r.LastExecuted(), r.ExecutionStateDigest() })
	}
	minLE := les[1]
	for id := 2; id <= n; id++ {
		if les[id] == les[1] && !bytes.Equal(digests[id], digests[1]) {
			t.Fatalf("replica %d digest differs from replica 1 at frontier %d", id, les[id])
		}
		minLE = min(minLE, les[id])
	}
	// Durable logs must agree block for block over the common prefix.
	for seq := uint64(1); seq <= minLE; seq++ {
		first, err := g.nodes[1].ledger.Get(seq)
		if err != nil {
			t.Fatalf("replica 1 block %d: %v", seq, err)
		}
		for id := 2; id <= n; id++ {
			b, err := g.nodes[id].ledger.Get(seq)
			if err != nil {
				t.Fatalf("replica %d block %d: %v", id, seq, err)
			}
			if !bytes.Equal(first, b) {
				t.Fatalf("durable logs diverge at block %d (replica 1 vs %d)", seq, id)
			}
		}
	}
}

// TestClientDialBackWithoutPeersEntry pins the deployment shape where the
// replicas' peers book does not list the client: replies flow only through
// the listen address announced in the hello handshake. Before that fix
// this shape committed its first block and then hung forever, every reply
// dropped as "unknown peer".
func TestClientDialBackWithoutPeersEntry(t *testing.T) {
	newGroup(t, true).connect(t).run(t, puts(0, 8))
}

// TestTCPClusterSurvivesShellFaults: one replica's outbound codec drops 30%
// of messages and delays the rest by up to 15ms for a window, then heals.
// The protocol's retry, re-transmit and collector layers must still commit
// every operation. The group is bare: no storage, shares verified inline.
func TestTCPClusterSurvivesShellFaults(t *testing.T) {
	g := newGroup(t, false)
	g.nodes[2].shell.SetFaults(transport.ShellFaults{Drop: 0.3, MaxDelay: 15 * time.Millisecond, Seed: 7})
	healer := time.AfterFunc(3*time.Second, func() { g.nodes[2].shell.SetFaults(transport.ShellFaults{}) })
	defer healer.Stop()
	g.connect(t).run(t, puts(0, 10))
}

// TestRestartedReplicaReplaysLog stops a replica and builds it again with
// New on the same address and data directory: before it serves, it has
// replayed its durable log to its pre-stop frontier; it then rejoins view
// 0 and executes new operations with the group.
func TestRestartedReplicaReplaysLog(t *testing.T) {
	g := newGroup(t, true)
	s := g.connect(t)
	res := s.run(t, puts(0, 8))
	frontier := res[len(res)-1].Seq
	g.await(t, 3, frontier)
	g.nodes[3].Stop()

	n := g.newNode(t, 3, g.peers[3])
	if le := n.replica.LastExecuted(); le < frontier {
		t.Fatalf("restarted replica replayed to %d, want ≥ %d", le, frontier)
	}
	g.nodes[3] = n
	n.Start()
	res = s.run(t, puts(8, 16))
	g.await(t, 3, res[len(res)-1].Seq)
	var view uint64
	n.Do(func(r *core.Replica) { view = r.View() })
	if view != 0 {
		t.Fatalf("restarted replica in view %d, want 0", view)
	}
}

// TestRepeatClientSessions runs two sequential sessions with the same
// client id. The second must complete without a retry: its timestamps
// start above the first session's (NewClient seeds them from the wall
// clock), and replicas drop their cached route to the first session's
// address when the second announces a new one.
func TestRepeatClientSessions(t *testing.T) {
	g := newGroup(t, true)
	first := g.connect(t)
	first.run(t, puts(0, 4))
	first.shell.Close()
	for i, res := range g.connect(t).run(t, puts(4, 8)) {
		if res.Retried {
			t.Errorf("second session op %d retried", i)
		}
	}
}

// TestStopWithPoolWorkInFlight stops a replica while crypto-pool jobs are
// queued behind a busy event loop: their completions reach the shell only
// after it has closed, and Stop must still return.
func TestStopWithPoolWorkInFlight(t *testing.T) {
	g := newGroup(t, true)
	n, release := g.nodes[1], make(chan struct{})
	go n.Do(func(*core.Replica) { <-release })
	for i := 0; i < 8; i++ {
		n.pool.VerifyShares(nil, func([][]threshsig.Share) {})
	}
	stopped := make(chan struct{})
	go func() { n.Stop(); close(stopped) }()
	time.Sleep(50 * time.Millisecond) // let Close begin before the loop frees up
	close(release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
}
