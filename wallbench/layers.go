package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"sbft/internal/core"
)

// traced runs the workload twice on one seed, untraced and then traced,
// each for half the window, and reports the per-layer metrics of the traced pass, the end-to-end
// metrics that do not apply to every workload (from the untraced pass),
// and the tracing overhead between the two.
func traced(w workload, seed uint64, window time.Duration, out string) (result, error) {
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	window /= 2
	plain, err := runPass(w, seed, window, filepath.Join(dir, "plain"), 1, false)
	if err != nil {
		return result{}, err
	}
	tp, err := runPass(w, seed, window, filepath.Join(dir, "traced"), 1, true)
	if err != nil {
		return result{}, err
	}
	res, e2e, te2e := newResult(), newResult(), newResult()
	plain.endToEnd(&e2e)
	tp.endToEnd(&te2e)
	res.Correct = e2e.Correct && te2e.Correct
	res.Attempted, res.Failed = e2e.Attempted, e2e.Failed
	res.violations = append(e2e.violations, te2e.violations...)
	plain.extra(&res, res.set)
	tp.layers(&res)

	base, tr := e2e.Metrics["throughput_ops"], te2e.Metrics["throughput_ops"]
	res.set("trace.throughput_overhead", ratio(base.Value-tr.Value, base.Value), "ratio", base.samples)
	lb, lt := e2e.Metrics["latency_p50_ms"], te2e.Metrics["latency_p50_ms"]
	res.set("trace.latency_p50_overhead", ratio(lt.Value-lb.Value, lb.Value), "ratio", lt.samples)
	res.notes = append(res.notes, fmt.Sprintf("%d spans recorded", len(tp.spans)))

	if msg := fidelity(w, plain, tp, &res); msg != "" {
		res.Correct = false
		res.violations = append(res.violations, "trace fidelity: "+msg)
	}
	if err := writeSpans(filepath.Join(out, "spans-"+w.name+".tsv"), tp.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// pathCounters are the core.Metrics counters whose being nonzero shows
// which code path a replica took: the chunked snapshot capture
// (ChunkedSnapshotter), durable snapshots (SnapshotStore), certified
// reads (KeyReader), commits, checkpoints and view changes. A wrapper
// that hid an optional interface would zero one of them. Counters that
// are nonzero only when a timer happens to fire first (collector
// timeouts, downgrades, gap repairs, execution fallbacks, admission
// rejects) are compared too but reported, not failed, because two runs
// of one seed differ in timing.
var pathCounters = []string{
	"FastCommits", "Executions", "Checkpoints", "CheckpointDirtyChunks",
	"SnapshotPersists", "ReadsServed", "ReadBatches", "ViewChanges",
}

// fidelity compares the nonzero core.Metrics counters of the untraced and
// traced passes and checks that the batch share check ran where it
// exists. It returns a description of the first mismatch, or "".
func fidelity(w workload, plain, tp *pass, res *result) string {
	a, b := nonzero(plain.m1), nonzero(tp.m1)
	for _, name := range pathCounters {
		if a[name] != b[name] {
			return fmt.Sprintf("counter %s nonzero untraced=%v traced=%v", name, a[name], b[name])
		}
	}
	var differ []string
	for name := range a {
		if !b[name] {
			differ = append(differ, name)
		}
	}
	for name := range b {
		if !a[name] {
			differ = append(differ, name)
		}
	}
	if len(differ) > 0 {
		sort.Strings(differ)
		res.notes = append(res.notes, "timing-dependent counters nonzero in only one pass: "+strings.Join(differ, ", "))
	}
	if w.bls && res.Metrics["crypto.batch_verify_us"].samples == 0 {
		return "no BatchVerifyShares call on the BLS suite"
	}
	return ""
}

// nonzero names the counters that are nonzero on any replica.
func nonzero(ms map[int]core.Metrics) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		v := reflect.ValueOf(m)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Uint() != 0 {
				out[v.Type().Field(i).Name] = true
			}
		}
	}
	return out
}

// delta sums a counter's growth over the window across live replicas.
func (p *pass) delta(field func(core.Metrics) uint64) float64 {
	s := 0.0
	for id, m1 := range p.m1 {
		s += float64(field(m1) - field(p.m0[id]))
	}
	return s
}

// layers computes the per-layer metrics of a traced pass from its spans.
func (p *pass) layers(res *result) {
	t := account(p.recs, p.start, p.end)
	ops := float64(t.completedOps)
	window := p.window()

	// Spans that started in the window and ended; children by parent.
	in := make([]bool, len(p.spans))
	children := make([][]int32, len(p.spans))
	for i, s := range p.spans {
		in[i] = s.end != 0 && s.start >= p.start && s.start < p.end
		if s.parent >= 0 && s.end != 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := func(i int) float64 {
		s := p.spans[i]
		cs := make([]interval, 0, len(children[i]))
		for _, c := range children[i] {
			cs = append(cs, interval{p.spans[c].start, p.spans[c].end})
		}
		return float64(selfTime(interval{s.start, s.end}, cs)) / 1e3
	}
	replica := func(s span) bool { return s.node < core.ClientBase }
	// collect returns per-span values (µs unless scaled) of matching spans.
	collect := func(match func(span) bool, val func(int) float64) []float64 {
		var xs []float64
		for i, s := range p.spans {
			if in[i] && match(s) {
				xs = append(xs, val(i))
			}
		}
		return xs
	}
	durUs := func(i int) float64 { return float64(p.spans[i].dur()) / 1e3 }
	kind := func(k uint8) func(span) bool { return func(s span) bool { return s.kind == k } }
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

	// transport
	sends := collect(kind(kSend), durUs)
	wire := collect(kind(kSend), func(i int) float64 { return float64(p.spans[i].aux) })
	res.set("transport.send_us", median(sends), "us", len(sends))
	res.set("transport.msgs_per_op", ratio(float64(len(sends)), ops), "count", len(sends))
	res.set("transport.wire_bytes_per_op", ratio(sum(wire), ops), "B", len(wire))
	res.set("transport.loop_wait_us_p50", median(p.loopWait), "us", len(p.loopWait))
	res.set("transport.loop_wait_us_p99", percentile(p.loopWait, 99), "us", len(p.loopWait))

	// core
	for _, f := range []struct {
		name string
		fam  uint8
	}{{"order", famOrder}, {"checkpoint", famCheckpoint}, {"viewchange", famViewChange}} {
		xs := collect(func(s span) bool { return s.kind == kDeliver && s.fam == f.fam }, self)
		res.set("core.deliver_us."+f.name, median(xs), "us", len(xs))
	}
	timers := collect(func(s span) bool { return s.kind == kTimer && replica(s) }, self)
	res.set("core.timer_us", median(timers), "us", len(timers))
	completions := collect(kind(kCompletion), self)
	res.set("core.completion_us", median(completions), "us", len(completions))
	busy := collect(func(s span) bool {
		return replica(s) && s.parent < 0 && (s.kind == kDeliver || s.kind == kTimer || s.kind == kCompletion)
	}, durUs)
	res.set("core.loop_busy_frac", ratio(sum(busy)/1e6, window.Seconds()*float64(len(p.m1))), "ratio", len(busy))
	blocks := collect(kind(kExecute), func(i int) float64 { return float64(p.spans[i].n) })
	res.set("core.requests_per_block", mean(blocks), "count", len(blocks))
	fast := p.delta(func(m core.Metrics) uint64 { return m.FastCommits })
	slow := p.delta(func(m core.Metrics) uint64 { return m.SlowCommits })
	res.set("core.fast_commit_ratio", ratio(fast, fast+slow), "ratio", int(fast+slow))
	for _, c := range []struct {
		name string
		f    func(core.Metrics) uint64
	}{
		{"core.collector_timeouts", func(m core.Metrics) uint64 { return m.CollectorTimeouts }},
		{"core.fast_path_downgrades", func(m core.Metrics) uint64 { return m.FastPathDowngrades }},
		{"core.exec_fallbacks", func(m core.Metrics) uint64 { return m.ExecFallbacks }},
		{"core.admission_rejects", func(m core.Metrics) uint64 { return m.AdmissionRejects }},
		{"core.checkpoints", func(m core.Metrics) uint64 { return m.Checkpoints }},
		{"core.view_changes", func(m core.Metrics) uint64 { return m.ViewChanges }},
	} {
		v := p.delta(c.f)
		res.set(c.name, v, "count", int(v))
	}
	// A view change runs from the first view-change message a replica
	// sends to the last one delivered. It is taken from the spans: on
	// loopback it completes within a millisecond, faster than polling
	// InViewChange can see.
	first, last, vcSpans := int64(math.MaxInt64), int64(0), 0
	for i, s := range p.spans {
		if in[i] && s.fam == famViewChange && (s.kind == kSend || s.kind == kDeliver) {
			first, last, vcSpans = min(first, s.start), max(last, s.end), vcSpans+1
		}
	}
	vcMs := 0.0
	if vcSpans > 0 {
		vcMs = float64(last-first) / 1e6
	}
	res.set("core.viewchange_ms", vcMs, "ms", vcSpans)

	// crypto
	for _, c := range []struct {
		name string
		k    uint8
	}{{"sign", kSign}, {"verify_share", kVerifyShare}, {"batch_verify", kBatchVerify}, {"combine", kCombine}, {"verify", kVerify}} {
		xs := collect(kind(c.k), durUs)
		res.set("crypto."+c.name+"_us", median(xs), "us", len(xs))
	}
	batch := collect(kind(kBatchVerify), func(i int) float64 { return float64(p.spans[i].aux) })
	res.set("crypto.batch_shares", mean(batch), "count", len(batch))
	cryptoBusy := collect(func(s span) bool { return s.kind >= kSign && s.kind <= kVerify }, durUs)
	res.set("crypto.busy_ms_per_op", ratio(sum(cryptoBusy)/1e3, ops), "ms", len(cryptoBusy))

	// cryptopool
	waits := collect(kind(kSinkJob), self)
	res.set("cryptopool.wait_us", median(waits), "us", len(waits))
	res.set("cryptopool.wait_us_p99", percentile(waits, 99), "us", len(waits))
	inline := collect(kind(kSinkCall), func(i int) float64 { return float64(p.spans[i].aux) })
	res.set("cryptopool.inline_ratio", mean(inline), "ratio", len(inline))
	res.set("cryptopool.jobs_per_op", ratio(float64(len(inline)), ops), "count", len(inline))

	// app
	exec := collect(kind(kExecute), durUs)
	execOps := collect(kind(kExecute), func(i int) float64 { return float64(p.spans[i].aux) })
	res.set("app.execute_us_per_op", ratio(sum(exec), sum(execOps)), "us", int(sum(execOps)))
	prove := collect(kind(kProve), durUs)
	res.set("app.prove_us", median(prove), "us", len(prove))
	snaps := collect(kind(kSnapshot), func(i int) float64 { return durUs(i) / 1e3 })
	res.set("app.snapshot_ms", median(snaps), "ms", len(snaps))
	dirty := p.delta(func(m core.Metrics) uint64 { return m.CheckpointDirtyChunks })
	res.set("app.dirty_chunks_per_checkpoint", ratio(dirty, float64(len(snaps))), "count", len(snaps))

	// storage
	appends := collect(kind(kAppend), durUs)
	res.set("storage.append_us_p50", median(appends), "us", len(appends))
	res.set("storage.append_us_p99", percentile(appends, 99), "us", len(appends))
	res.set("storage.appends_per_op", ratio(float64(len(appends)), ops), "count", len(appends))
	saves := collect(kind(kSnapSave), func(i int) float64 { return durUs(i) / 1e3 })
	res.set("storage.snapshot_save_ms", median(saves), "ms", len(saves))

	// client
	writes, fastAcks := 0, 0
	reads, ordered, failovers := 0, 0, 0
	for _, r := range p.recs {
		if r.submit < p.start || r.submit >= p.end || r.done == 0 || r.done >= p.end || r.failed {
			continue
		}
		if r.read {
			reads++
			failovers += r.failovers
			if r.ordered {
				ordered++
			}
			continue
		}
		writes++
		if r.fastAck {
			fastAcks++
		}
	}
	res.set("client.fast_ack_ratio", ratio(float64(fastAcks), float64(writes)), "ratio", writes)
	cdel := collect(kind(kClientDeliver), self)
	res.set("client.deliver_us", median(cdel), "us", len(cdel))
	pv := collect(kind(kProofVerify), durUs)
	res.set("client.proof_verify_us", median(pv), "us", len(pv))
	bp := float64(p.c1.backpressure - p.c0.backpressure)
	res.set("client.backpressure", bp, "count", int(bp))

	// read: serving is the ReadMsg deliveries plus the batch timers whose
	// flush sent read replies.
	readTimer := map[int32]bool{}
	for i, s := range p.spans {
		if in[i] && s.kind == kSend && s.fam == famRead && s.parent >= 0 && p.spans[s.parent].kind == kTimer && replica(p.spans[s.parent]) {
			readTimer[s.parent] = true
		}
	}
	serve := sum(collect(func(s span) bool { return s.kind == kDeliver && s.fam == famRead }, durUs))
	for i := range readTimer {
		serve += durUs(int(i))
	}
	served := p.delta(func(m core.Metrics) uint64 { return m.ReadsServed })
	res.set("read.serve_us", ratio(serve, served), "us", int(served))
	cv := collect(func(s span) bool { return s.kind == kClientDeliver && s.fam == famRead }, self)
	res.set("read.client_verify_us", median(cv), "us", len(cv))
	batches := p.delta(func(m core.Metrics) uint64 { return m.ReadBatches })
	res.set("read.batch_size", ratio(served, batches), "count", int(batches))
	behind := p.delta(func(m core.Metrics) uint64 { return m.ReadsBehind })
	unavail := p.delta(func(m core.Metrics) uint64 { return m.ReadsUnavailable })
	res.set("read.behind_ratio", ratio(behind, served+behind+unavail), "ratio", int(served+behind+unavail))
	res.set("read.ordered_fallbacks", float64(ordered), "count", reads)
	res.set("read.failovers", float64(failovers), "count", reads)
}
