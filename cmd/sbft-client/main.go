// Command sbft-client drives a TCP SBFT deployment with key-value
// operations and reports latency/throughput. The default mode is a
// closed loop (-n sequential operations); -openloop <rate> switches to
// real-time Poisson arrivals multiplexed over -slots TCP clients,
// sharing internal/load's shed accounting so live runs can find the
// saturation knee. See cmd/sbft-node for a complete local deployment
// walkthrough.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/transport"
)

func main() {
	var (
		peerFile = flag.String("peers", "peers.txt", "peers file")
		f        = flag.Int("f", 1, "fault threshold f")
		c        = flag.Int("c", 0, "redundant servers c")
		seed     = flag.String("seed", "sbft-demo", "shared key seed (must match nodes)")
		n        = flag.Int("n", 100, "operations to send")
		reads    = flag.Int("reads", 0, "certified single-replica reads to issue after the writes")
		listen   = flag.String("listen", "127.0.0.1:0", "client listen address")
		openloop = flag.Float64("openloop", 0, "open-loop mode: Poisson arrivals at this rate (req/s) over a slot pool instead of the closed loop")
		slots    = flag.Int("slots", 8, "open-loop client slot pool size")
		duration = flag.Duration("duration", 10*time.Second, "open-loop measurement window")
		warmup   = flag.Duration("warmup", time.Second, "open-loop warmup before measurement")
	)
	flag.Parse()

	peers, err := node.LoadPeers(*peerFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig(*f, *c)
	if *openloop > 0 {
		if err := runOpenLoop(peers, cfg, *seed, *openloop, *slots, *warmup, *duration, 5*time.Second, *listen); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
			os.Exit(1)
		}
		return
	}
	suite, _, err := core.InsecureSuite(cfg, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		os.Exit(1)
	}

	id := core.ClientBase
	shell, err := transport.NewShell(id, *listen, peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		os.Exit(1)
	}
	defer shell.Close()

	client, err := core.NewClient(id, cfg, suite, shell, apps.VerifyKV)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		os.Exit(1)
	}
	client.RequestTimeout = 4 * time.Second
	client.SetReadKey(kvstore.ReadKey)

	done := make(chan struct{})
	var latencies []time.Duration
	var fastAcks int
	count := 0
	client.SetOnResult(func(res core.Result) {
		latencies = append(latencies, res.Latency)
		if res.FastAck {
			fastAcks++
		}
		count++
		if count >= *n {
			close(done)
			return
		}
		op := kvstore.Put(fmt.Sprintf("bench/%d", count), []byte("value"))
		if err := client.Submit(op); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
			close(done)
		}
	})
	shell.Start(client)
	// Announce the client's dial-back address to every replica up front:
	// replicas otherwise learn it only from the forwarded first request,
	// and any reply sent before that is dropped as "unknown peer", costing
	// a full retry timeout on the first operation.
	shell.AnnounceAll()

	start := time.Now()
	shell.Do(func() {
		if err := client.Submit(kvstore.Put("bench/0", []byte("value"))); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		}
	})
	<-done
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("completed %d ops in %v: %.1f op/s\n", count, elapsed.Round(time.Millisecond),
		float64(count)/elapsed.Seconds())
	if count > 0 {
		fmt.Printf("latency: mean=%v p50=%v p95=%v  single-message acks: %d/%d\n",
			(sum / time.Duration(count)).Round(time.Microsecond),
			latencies[count/2].Round(time.Microsecond),
			latencies[count*95/100].Round(time.Microsecond),
			fastAcks, count)
	}

	if *reads > 0 {
		runReads(client, shell, *reads, *n)
	}
}

// runReads issues a closed loop of certified reads over the keys the
// write phase populated and reports how many completed on the
// consensus-free path (verified value + Merkle proof from one replica)
// versus falling back to ordering.
func runReads(client *core.Client, shell *transport.Shell, reads, keys int) {
	done := make(chan struct{})
	var latencies []time.Duration
	var failovers, ordered int
	count := 0
	salt := uint64(0)
	next := func() error {
		salt++
		return client.SubmitRead(kvstore.GetUnique(fmt.Sprintf("bench/%d", count%keys), salt))
	}
	client.SetOnReadResult(func(res core.ReadResult) {
		latencies = append(latencies, res.Latency)
		failovers += res.Failovers
		if res.Ordered {
			ordered++
		}
		count++
		if count >= reads {
			close(done)
			return
		}
		if err := next(); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
			close(done)
		}
	})
	start := time.Now()
	shell.Do(func() {
		if err := next(); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		}
	})
	<-done
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("completed %d certified reads in %v: %.1f op/s (%d ordered fallbacks, %d failovers)\n",
		count, elapsed.Round(time.Millisecond), float64(count)/elapsed.Seconds(), ordered, failovers)
	if count > 0 {
		fmt.Printf("read latency: mean=%v p50=%v p95=%v\n",
			(sum / time.Duration(count)).Round(time.Microsecond),
			latencies[count/2].Round(time.Microsecond),
			latencies[count*95/100].Round(time.Microsecond))
	}
}
