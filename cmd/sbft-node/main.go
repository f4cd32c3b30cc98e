// Command sbft-node runs one SBFT replica over TCP. A deployment is
// described by a peers file with one "id host:port" line per replica;
// all replicas share a deterministic key seed (stand-in for the PKI/dealer
// setup of §III — production deployments deal threshold RSA keys with
// threshrsa.Dealer and distribute them out of band).
//
// Example 4-replica local deployment (f=1, c=0):
//
//	cat > peers.txt <<EOF
//	1 127.0.0.1:7001
//	2 127.0.0.1:7002
//	3 127.0.0.1:7003
//	4 127.0.0.1:7004
//	EOF
//	sbft-node -id 1 -peers peers.txt -f 1 &
//	sbft-node -id 2 -peers peers.txt -f 1 &
//	sbft-node -id 3 -peers peers.txt -f 1 &
//	sbft-node -id 4 -peers peers.txt -f 1 &
//	sbft-client -peers peers.txt -f 1 -n 100
//
// With -data, a replica keeps a durable block log and certified
// snapshots; restarted on the same directory it replays the log and
// resumes at its execution frontier (see internal/node).
//
// The peers file lists replicas only. Clients are not in it: a client
// announces its own listen address in the transport handshake and
// replicas learn the dial-back route from that (see transport.Shell).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"sbft/internal/core"
	"sbft/internal/node"
)

func main() {
	var (
		id            = flag.Int("id", 0, "replica id (1..n)")
		peerFile      = flag.String("peers", "peers.txt", "peers file: one 'id host:port' per line")
		f             = flag.Int("f", 1, "fault threshold f")
		c             = flag.Int("c", 0, "redundant servers c")
		seed          = flag.String("seed", "sbft-demo", "shared key seed (demo PKI)")
		dataDir       = flag.String("data", "", "block store directory, replayed on restart (empty = no persistence)")
		cryptoWorkers = flag.Int("crypto-workers", runtime.NumCPU(), "threshold-crypto verification pool width (0 = verify inline on the event loop)")
	)
	flag.Parse()

	peers, err := node.LoadPeers(*peerFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: loading peers: %v\n", err)
		os.Exit(1)
	}
	addr, ok := peers[*id]
	if !ok {
		fmt.Fprintf(os.Stderr, "sbft-node: id %d not in peers file\n", *id)
		os.Exit(1)
	}
	cfg := core.DefaultConfig(*f, *c)
	n, err := node.New(node.Config{ID: *id, Listen: addr, Peers: peers, Core: cfg, Seed: *seed, DataDir: *dataDir, CryptoWorkers: *cryptoWorkers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: %v\n", err)
		os.Exit(1)
	}
	defer n.Stop()
	n.Start()
	var le uint64
	n.Do(func(r *core.Replica) { le = r.LastExecuted() })
	fmt.Printf("sbft-node: replica %d/%d (f=%d c=%d) listening on %s (executed=%d)\n", *id, cfg.N(), *f, *c, n.Addr(), le)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	var ls, view uint64
	n.Do(func(r *core.Replica) { le, ls, view = r.LastExecuted(), r.LastStable(), r.View() })
	fmt.Printf("sbft-node: shutting down (view=%d executed=%d stable=%d)\n", view, le, ls)
}
