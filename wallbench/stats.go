package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 < q ≤ 100) of xs by the
// nearest-rank rule: the smallest value with at least q% of the samples at
// or below it. xs need not be sorted; an empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// supportedTail returns the highest percentile of tailLadder that leaves
// at least ten of n samples strictly beyond it, or 0 when even the median
// does not. A tail read from fewer samples than that is one or two
// outliers, not a percentile.
func supportedTail(n int) float64 {
	for _, q := range tailLadder {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= 10 {
			return q
		}
	}
	return 0
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its direct
// children cover. Children may overlap each other (a parent waiting on
// parallel work) and may extend past the parent (asynchronous work the
// parent started); only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// record is one closed-loop request as the issuing session saw it.
type record struct {
	submit, done int64 // ns since the run's epoch; done is 0 while in flight
	ops          int   // KV operations carried (a bundle counts each member)
	read         bool  // certified read (vs. ordered write)
	failed       bool  // refused, erroring or unverifiable
	retried      bool  // the client fell back to the §V-A broadcast
	fastAck      bool  // accepted through the single execute-ack
	ordered      bool  // read completed through the ordering path
	failovers    int   // read replicas tried and rejected first
	seq          uint64
}

// tally is the closed-loop accounting of one measurement window: every
// request submitted inside the window is an attempt, whether it completes,
// fails, is refused or is still outstanding when the window closes.
type tally struct {
	attemptedOps, completedOps, failedOps int
	requests, completed, retried          int
	writeLatMs, readLatMs                 []float64
}

// account tallies the requests submitted in [start, end). Completions
// after end are not counted as completed; they stay attempts.
func account(recs []record, start, end int64) tally {
	var t tally
	for _, r := range recs {
		if r.submit < start || r.submit >= end {
			continue
		}
		t.requests++
		t.attemptedOps += r.ops
		if r.failed {
			t.failedOps += r.ops
			continue
		}
		if r.done == 0 || r.done >= end {
			continue
		}
		t.completed++
		t.completedOps += r.ops
		if r.retried {
			t.retried++
		}
		lat := float64(r.done-r.submit) / float64(time.Millisecond)
		if r.read {
			t.readLatMs = append(t.readLatMs, lat)
		} else {
			t.writeLatMs = append(t.writeLatMs, lat)
		}
	}
	return t
}

// latMs is every completed request's latency, writes and reads.
func (t tally) latMs() []float64 {
	return append(append([]float64(nil), t.writeLatMs...), t.readLatMs...)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
