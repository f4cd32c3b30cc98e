// Package node assembles one SBFT replica process over TCP: the single
// place that deals the key suite, binds the transport shell, opens the
// durable ledger and replays it, and installs the asynchronous snapshot
// sink and the crypto verification pool. cmd/sbft-node, the sbft-chaos
// live smoke and the multi-replica TCP tests all build replicas here, so
// the configuration that ships is the one that is tested.
package node

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/cryptopool"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// Config describes one replica process.
type Config struct {
	ID     int            // replica id, 1..Core.N()
	Listen string         // TCP listen address
	Peers  map[int]string // replica id → address; read by the shell, not copied
	Core   core.Config
	Seed   string // shared key seed (stand-in for the §III dealer)
	// DataDir, when set, holds the durable block log and certified
	// snapshots; the replica replays it on start (empty ledger = fresh).
	DataDir string
	// CryptoWorkers is the share-verification pool width; 0 verifies
	// inline on the event loop.
	CryptoWorkers int
}

// Node is one assembled replica: a KV-app core.Replica hosted by a
// transport.Shell.
type Node struct {
	shell   *transport.Shell
	replica *core.Replica
	ledger  *storage.Ledger
	sink    *snapSink
	pool    *cryptopool.Pool
}

// New binds the listener and builds the replica. With a DataDir the
// replica is rebuilt from its durable log (core.NewRecoveredReplica), so a
// restarted process resumes at its execution frontier. The node does not
// serve until Start.
func New(cfg Config) (*Node, error) {
	if cfg.ID < 1 || cfg.ID > cfg.Core.N() {
		return nil, fmt.Errorf("node: id %d out of range [1,%d]", cfg.ID, cfg.Core.N())
	}
	suite, keys, err := core.InsecureSuite(cfg.Core, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("node: dealing keys: %w", err)
	}
	shell, err := transport.NewShell(cfg.ID, cfg.Listen, cfg.Peers)
	if err != nil {
		return nil, err
	}
	n := &Node{shell: shell}
	app := apps.NewKVApp()
	if cfg.DataDir == "" {
		n.replica, err = core.NewReplica(cfg.ID, cfg.Core, suite, keys[cfg.ID-1], app, shell, nil)
	} else if n.ledger, err = storage.Open(cfg.DataDir, storage.Options{Sync: true}); err == nil {
		n.replica, err = core.NewRecoveredReplica(cfg.ID, cfg.Core, suite, keys[cfg.ID-1], app, shell, n.ledger)
	}
	if err != nil {
		n.Stop()
		return nil, fmt.Errorf("node: replica %d: %w", cfg.ID, err)
	}
	if n.ledger != nil {
		n.sink = newSnapSink(n.ledger, shell.Do)
		n.replica.SetSnapshotSink(n.sink)
	}
	if cfg.CryptoWorkers > 0 {
		n.pool = cryptopool.New(suite, cfg.CryptoWorkers, shell.Do)
		n.replica.SetCryptoSink(n.pool)
	}
	return n, nil
}

// Addr reports the bound listen address.
func (n *Node) Addr() string { return n.shell.Addr() }

// Start begins serving.
func (n *Node) Start() { n.shell.Start(n.replica) }

// Do runs fn with the replica on its event loop and waits for it. It
// returns without calling fn once the node is stopped.
func (n *Node) Do(fn func(*core.Replica)) { n.shell.Do(func() { fn(n.replica) }) }

// Stop closes the shell, then the crypto pool, then flushes queued
// snapshot writes and closes the ledger. The shell goes first: once its
// event loop has exited, nothing hands the pool or the sink new work. Stop
// is idempotent.
func (n *Node) Stop() error {
	n.shell.Close()
	if n.pool != nil {
		n.pool.Close()
	}
	if n.sink != nil {
		n.sink.Close()
	}
	if n.ledger != nil {
		return n.ledger.Close()
	}
	return nil
}

// LoadPeers reads a peers file: one "id host:port" line per replica;
// blank lines and #-comments are skipped.
func LoadPeers(path string) (map[int]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	peers := make(map[int]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed peers line %q", line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad id in %q: %w", line, err)
		}
		peers[id] = fields[1]
	}
	return peers, sc.Err()
}

// snapJob is one queued snapshot persistence task.
type snapJob struct {
	cs       *core.CertifiedSnapshot
	keepFrom uint64
	done     func(error)
}

// snapSink is the deployment's core.SnapshotSink: certified snapshots are
// encoded and fsynced by a worker goroutine so the replica's event loop
// never stalls on checkpoint persistence (the paper's "off the critical
// path" replica role, applied to the win/2-interval store write).
// Completions are routed back onto the event loop through Shell.Do, per
// the SnapshotSink contract.
type snapSink struct {
	led  *storage.Ledger
	do   func(func())
	jobs chan snapJob
	wg   sync.WaitGroup
	once sync.Once
}

func newSnapSink(led *storage.Ledger, do func(func())) *snapSink {
	// A few snapshots may queue behind a slow fsync; beyond that the next
	// checkpoint supersedes them anyway.
	s := &snapSink{led: led, do: do, jobs: make(chan snapJob, 4)}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *snapSink) loop() {
	defer s.wg.Done()
	for j := range s.jobs {
		err := core.PersistCertified(s.led, j.cs, j.keepFrom)
		s.do(func() { j.done(err) })
	}
}

// PersistSnapshot implements core.SnapshotSink. It runs on the event loop
// and only enqueues; a saturated worker skips the snapshot.
func (s *snapSink) PersistSnapshot(cs *core.CertifiedSnapshot, keepFrom uint64, done func(error)) {
	select {
	case s.jobs <- snapJob{cs: cs, keepFrom: keepFrom, done: done}:
	default:
		done(fmt.Errorf("snapshot persist queue full"))
	}
}

// Close flushes queued persists (a graceful shutdown keeps the latest
// stable snapshot; only a hard crash can lose the in-flight write, which
// restart recovery tolerates by re-arming from the previous one). It must
// run after the event loop has exited, so no PersistSnapshot races it.
func (s *snapSink) Close() {
	s.once.Do(func() {
		close(s.jobs)
		s.wg.Wait()
	})
}
