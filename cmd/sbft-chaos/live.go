package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/transport"
)

// runLiveReads is the real-transport smoke for the reads mix: it boots a
// 4-node (f=1, c=0) deployment over loopback TCP with the wiring
// sbft-node ships (internal/node: durable ledgers in a temporary
// directory, the async snapshot sink, a crypto pool per replica) — real
// sockets, real goroutines, real wall-clock timers, none of the
// simulator's determinism — populates keys through consensus, then
// drives a mix of certified single-replica reads and further writes. It
// fails if any operation hangs, any certified read returns a value that
// consensus never committed, or every read fell back to ordering (the
// consensus-free path never worked at all).
func runLiveReads(writes, reads int, timeout time.Duration) error {
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	// Certified reads serve from checkpoint snapshots; the default win/2
	// interval (128) would never checkpoint inside this small smoke.
	cfg.CheckpointInterval = 4
	const seed = "chaos-live"
	suite, _, err := core.InsecureSuite(cfg, seed)
	if err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp("", "sbft-live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	replicaPeers := make(map[int]string)
	nodes := make([]*node.Node, 0, cfg.N())
	for id := 1; id <= cfg.N(); id++ {
		n, err := node.New(node.Config{ID: id, Listen: "127.0.0.1:0", Peers: replicaPeers, Core: cfg, Seed: seed,
			DataDir: filepath.Join(dataDir, fmt.Sprint(id)), CryptoWorkers: runtime.NumCPU()})
		if err != nil {
			return err
		}
		defer n.Stop()
		nodes = append(nodes, n)
		replicaPeers[id] = n.Addr()
	}
	for _, n := range nodes {
		n.Start()
	}

	clientShell, err := transport.NewShell(core.ClientBase, "127.0.0.1:0", replicaPeers)
	if err != nil {
		return err
	}
	defer clientShell.Close()
	client, err := core.NewClient(core.ClientBase, cfg, suite, clientShell, apps.VerifyKV)
	if err != nil {
		return err
	}
	client.RequestTimeout = 2 * time.Second
	client.SetReadKey(kvstore.ReadKey)
	clientShell.Start(client)
	clientShell.AnnounceAll()

	key := func(i int) string { return fmt.Sprintf("live/%d", i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

	// Phase 1: commit the write set through consensus.
	var mu sync.Mutex
	done := make(chan error, 1)
	finish := func(err error) {
		select {
		case done <- err:
		default:
		}
	}
	wrote := 0
	client.SetOnResult(func(res core.Result) {
		mu.Lock()
		defer mu.Unlock()
		wrote++
		if wrote >= writes {
			finish(nil)
			return
		}
		if err := client.Submit(kvstore.Put(key(wrote), val(wrote))); err != nil {
			finish(err)
		}
	})
	clientShell.Do(func() {
		if err := client.Submit(kvstore.Put(key(0), val(0))); err != nil {
			finish(err)
		}
	})
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("write phase: %w", err)
		}
	case <-time.After(timeout):
		return fmt.Errorf("write phase hung: %d/%d writes committed over TCP", wrote, writes)
	}

	// Phase 2: certified reads over the committed keys, interleaved with
	// fresh writes so the certified frontier keeps moving.
	readDone := make(chan error, 1)
	finishRead := func(err error) {
		select {
		case readDone <- err:
		default:
		}
	}
	completed, ordered, failovers := 0, 0, 0
	var salt uint64
	nextRead := func() error {
		salt++
		return client.SubmitRead(kvstore.GetUnique(key(int(salt)%writes), salt))
	}
	// The client allows one outstanding request of either kind, so the
	// interleaved writes chain the next read from their own completion.
	client.SetOnResult(func(res core.Result) {
		mu.Lock()
		defer mu.Unlock()
		if err := nextRead(); err != nil {
			finishRead(err)
		}
	})
	client.SetOnReadResult(func(res core.ReadResult) {
		mu.Lock()
		defer mu.Unlock()
		i := int(salt) % writes
		if !res.Ordered {
			if !res.Found {
				finishRead(fmt.Errorf("certified read of %q found nothing", res.Key))
				return
			}
			if !bytes.Equal(res.Val, val(i)) {
				finishRead(fmt.Errorf("certified read of %q returned %q, consensus committed %q", res.Key, res.Val, val(i)))
				return
			}
		} else {
			ordered++
		}
		failovers += res.Failovers
		completed++
		if completed >= reads {
			finishRead(nil)
			return
		}
		if completed%4 == 0 {
			// Interleave a write (same value it already holds, so later
			// reads verify unchanged): the read path must tolerate a moving
			// certified frontier.
			if err := client.Submit(kvstore.Put(key(completed%writes), val(completed%writes))); err != nil {
				finishRead(err)
			}
			return
		}
		if err := nextRead(); err != nil {
			finishRead(err)
		}
	})
	clientShell.Do(func() {
		if err := nextRead(); err != nil {
			finishRead(err)
		}
	})
	select {
	case err := <-readDone:
		if err != nil {
			return fmt.Errorf("read phase: %w", err)
		}
	case <-time.After(timeout):
		return fmt.Errorf("read phase hung: %d/%d reads completed over TCP", completed, reads)
	}
	if ordered >= reads {
		return fmt.Errorf("all %d reads fell back to ordering — the certified read path never served one", reads)
	}
	var retries uint64
	clientShell.Do(func() { retries = client.Retries })
	fmt.Printf("[live] %d writes + %d certified reads over TCP ok (%d request retries, %d ordered fallbacks, %d failovers)\n",
		writes, reads, retries, ordered, failovers)
	return nil
}
