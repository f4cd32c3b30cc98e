// Command wallbench is the repository's wall-clock benchmark. It runs a
// 4-replica (f=1, c=0) SBFT deployment in one process over loopback TCP,
// built from the constructors cmd/sbft-node uses, drives it with two
// closed-loop client sessions, audits the replicated state, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run beside an untraced one) as one JSON line.
//
//	wallbench --workload put-bls --seed 1 --seconds 36 --trace 0
//
// Build and run it from the repository root with wallbench/run.sh, which
// keeps every build and run artifact inside the checkout. See README.md
// for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sbft/internal/core"
)

const (
	setups     = 9               // set-ups per end-to-end run; setup_s is their median
	warmup     = 2 * time.Second // load before the window opens
	drainLimit = 20 * time.Second
	auditLimit = 10 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for ledgers and span dumps")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wallbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, window, *out)
	} else {
		res, err = traced(w, *seed, window, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(2)
	}
	res.print(w, *seed, window)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is the benchmark's output; its JSON form is the last line of
// standard output.
type result struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	info       map[string]metric // printed, but not in the JSON line
	violations []string
	notes      []string
}

func newResult() result {
	return result{Metrics: map[string]metric{}, info: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *result) setInfo(name string, v float64, unit string, samples int) {
	r.info[name] = metric{Value: v, Unit: unit, samples: samples}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("  %-36s %14.4f %-6s %d\n", n, m.Value, m.Unit, m.samples)
	}
}

func (r result) print(w workload, seed uint64, window time.Duration) {
	fmt.Printf("wallbench %s seed=%d window=%s\n", w.name, seed, window)
	fmt.Printf("  %-36s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	printMetrics(r.Metrics)
	if len(r.info) > 0 {
		fmt.Println("  also measured (not in the JSON line):")
		printMetrics(r.info)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	line, _ := json.Marshal(r) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// pass is one deployment's measured window.
type pass struct {
	w          workload
	start, end int64 // window, ns since the epoch
	crashAt    int64 // 0 unless the workload crashes a replica
	recs       []record
	cpu        time.Duration
	maxRSSMB   float64
	m0, m1     map[int]core.Metrics
	c0, c1     clientCounters
	violations []string
	setupS     []float64

	// Traced passes only.
	spans    []span
	loopWait []float64 // µs
}

func (p *pass) window() time.Duration { return time.Duration(p.end - p.start) }

type clientCounters struct{ backpressure, proofFailures uint64 }

func (d *deployment) clientCounters() clientCounters {
	var c clientCounters
	for _, s := range d.sessions {
		s.shell.Do(func() {
			c.backpressure += s.client.Backpressure
			c.proofFailures += s.client.ReadProofFailures
		})
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPass sets the deployment up n times (keeping the last), warms it up,
// measures one window and audits the result.
func runPass(w workload, seed uint64, window time.Duration, dir string, n int, traced bool) (*pass, error) {
	p := &pass{w: w}
	epoch := time.Now()
	var d *deployment
	for i := 0; i < n; i++ {
		var tr *tracer
		if traced {
			tr = newTracer(epoch)
		}
		t0 := time.Now()
		var err error
		d, err = deploy(w, seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)), epoch, tr)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if i < n-1 {
			d.close()
		}
		// Collect the torn-down set-ups now, not inside the next timing.
		runtime.GC()
	}
	defer d.close()

	d.run()
	time.Sleep(warmup)
	runtime.GC() // every window starts from the same collector phase
	if w.crash {
		d.crash(1) // the view-0 primary
		p.crashAt = d.now()
	}
	p.m0, p.c0 = d.metrics(), d.clientCounters()
	stopProbes := func() {}
	if traced {
		d.tr.on.Store(true)
		stopProbes = p.probe(d)
	}
	cpu0 := cpuTime()
	p.start = d.now()
	time.Sleep(window)
	p.end = d.now()
	p.cpu = cpuTime() - cpu0
	if traced {
		d.tr.on.Store(false)
		stopProbes()
		p.spans = d.tr.snapshot()
	}
	p.m1, p.c1 = d.metrics(), d.clientCounters()
	d.drain(drainLimit)
	d.audit(auditLimit)
	p.recs = d.records()
	p.maxRSSMB = maxRSSMB()
	d.mu.Lock()
	p.violations = append(p.violations, d.violations...)
	d.mu.Unlock()
	return p, nil
}

// probe starts the traced run's pollers: timed Shell.Do calls that measure
// how long work waits for each live replica's event loop. The returned
// function stops them and waits for them.
func (p *pass) probe(d *deployment) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, r := range d.live() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t0 := time.Now()
				r.shell.Do(func() {})
				us := float64(time.Since(t0)) / float64(time.Microsecond)
				mu.Lock()
				p.loopWait = append(p.loopWait, us)
				mu.Unlock()
			}
		}()
	}
	return func() {
		close(stop)
		wg.Wait()
	}
}

// endToEnd is the untraced run: the metrics a user of the system sees.
func endToEnd(w workload, seed uint64, window time.Duration, out string) (result, error) {
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	p, err := runPass(w, seed, window, dir, setups, false)
	if err != nil {
		return result{}, err
	}
	res := newResult()
	p.endToEnd(&res)
	p.extra(&res, res.setInfo)
	if err := writeRecords(filepath.Join(out, "requests-"+w.name+".tsv"), p); err != nil {
		return result{}, fmt.Errorf("writing requests: %w", err)
	}
	return res, nil
}

// writeRecords dumps every request of a pass, with the window it was
// measured in, as tab-separated lines.
func writeRecords(path string, p *pass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# window_ns\t%d\t%d\n", p.start, p.end)
	fmt.Fprintln(w, "submit_ns\tdone_ns\tops\tread\tfailed\tretried\tfast_ack\tordered\tfailovers\tseq")
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	for _, r := range p.recs {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", r.submit, r.done, r.ops,
			b(r.read), b(r.failed), b(r.retried), b(r.fastAck), b(r.ordered), r.failovers, r.seq)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endToEnd fills the end-to-end metrics of a pass into res.
func (p *pass) endToEnd(res *result) {
	t := account(p.recs, p.start, p.end)
	secs := p.window().Seconds()
	failed := t.failedOps + int(p.c1.proofFailures-p.c0.proofFailures)
	res.Correct = len(p.violations) == 0
	res.violations = append(res.violations, p.violations...)
	res.Attempted, res.Failed = max(t.attemptedOps, 1), failed

	res.set("setup_s", median(p.setupS), "s", len(p.setupS))
	res.set("throughput_ops", float64(t.completedOps)/secs, "op/s", t.completedOps)
	all := t.latMs()
	res.set("latency_p50_ms", median(all), "ms", len(all))
	res.set("max_rss_mb", p.maxRSSMB, "MiB", 1)
}

// extra computes the end-to-end metrics that are not in BENCHMARK.json's
// end_to_end list, because they are zero or undefined on some workloads,
// or spread too far from run to run on a shared host to carry a bound.
// put receives each one.
func (p *pass) extra(res *result, put func(name string, v float64, unit string, samples int)) {
	t := account(p.recs, p.start, p.end)
	all := t.latMs()
	put("latency_tail_ms", percentile(all, p.w.tail), "ms", len(all))
	if q := supportedTail(len(all)); q < p.w.tail {
		res.notes = append(res.notes, fmt.Sprintf("latency_tail_ms is p%g but %d samples support only p%g", p.w.tail, len(all), q))
	}
	put("cpu_ms_per_op", ratio(p.cpu.Seconds()*1000, float64(t.completedOps)), "ms", t.completedOps)
	failed := t.failedOps + int(p.c1.proofFailures-p.c0.proofFailures)
	put("error_ratio", ratio(float64(failed), float64(t.attemptedOps)), "ratio", t.attemptedOps)
	put("retry_ratio", ratio(float64(t.retried), float64(t.completed)), "ratio", t.completed)
	put("write_p50_ms", median(t.writeLatMs), "ms", len(t.writeLatMs))
	put("write_tail_ms", percentile(t.writeLatMs, writeTail), "ms", len(t.writeLatMs))
	put("read_p50_ms", median(t.readLatMs), "ms", len(t.readLatMs))
	put("read_tail_ms", percentile(t.readLatMs, readTail), "ms", len(t.readLatMs))
	fo, n := p.failover()
	put("failover_s", fo, "s", n)
}

// failover is the time from the crash to the first completion of a write
// submitted after it (a write already in flight at the crash can still
// finish on the surviving replicas and would hide the outage).
func (p *pass) failover() (float64, int) {
	if p.crashAt == 0 {
		return 0, 0
	}
	first := int64(0)
	for _, r := range p.recs {
		if !r.read && !r.failed && r.submit >= p.crashAt && r.done > 0 && (first == 0 || r.done < first) {
			first = r.done
		}
	}
	if first == 0 {
		return p.window().Seconds(), 0
	}
	return float64(first-p.crashAt) / 1e9, 1
}
