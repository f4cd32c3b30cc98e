package main

import (
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},    // the median of 10 leaves only 5 beyond
		{20, 50},   // p50 rank 10 leaves 10 beyond
		{39, 50},   // p75 rank 30 leaves 9
		{40, 75},   // p75 rank 30 leaves 10
		{100, 90},  // p90 rank 90 leaves 10
		{199, 90},  // p95 rank 190 leaves 9
		{200, 95},  // p95 rank 190 leaves 10
		{999, 95},  // p99 rank 990 leaves 9
		{1000, 99}, // p99 rank 990 leaves 10
		{5000, 99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested inside a sibling", []interval{{110, 180}, {120, 130}}, 30},
		{"identical", []interval{{120, 140}, {120, 140}}, 80},
		{"spilling past both ends", []interval{{50, 120}, {190, 260}}, 70},
		{"outside the parent", []interval{{0, 50}, {250, 300}}, 100},
		{"covering the parent", []interval{{90, 210}}, 0},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAccountClosedLoop(t *testing.T) {
	ms := int64(time.Millisecond)
	start, end := 1000*ms, 2000*ms
	recs := []record{
		{submit: 900 * ms, done: 1100 * ms, ops: 64},                 // submitted before the window: not an attempt
		{submit: 1100 * ms, done: 1110 * ms, ops: 64},                // a completed bundle counts 64 ops
		{submit: 1110 * ms, done: 1300 * ms, ops: 64, retried: true}, // retried: an attempt and a completion
		{submit: 1300 * ms, done: 1300 * ms, ops: 1, failed: true},   // refused at submission
		{submit: 1310 * ms, done: 1320 * ms, ops: 1, failed: true},   // erroring result
		{submit: 1320 * ms, done: 1330 * ms, ops: 1, read: true},     // certified read
		{submit: 1900 * ms, done: 2100 * ms, ops: 64},                // completes after the window
		{submit: 1950 * ms, ops: 1},                                  // still outstanding
		{submit: 2000 * ms, done: 2010 * ms, ops: 64},                // submitted after the window
	}
	got := account(recs, start, end)
	if got.attemptedOps != 64+64+1+1+1+64+1 {
		t.Errorf("attemptedOps = %d", got.attemptedOps)
	}
	if got.completedOps != 64+64+1 {
		t.Errorf("completedOps = %d", got.completedOps)
	}
	if got.failedOps != 2 {
		t.Errorf("failedOps = %d", got.failedOps)
	}
	if got.requests != 7 || got.completed != 3 || got.retried != 1 {
		t.Errorf("requests/completed/retried = %d/%d/%d, want 7/3/1", got.requests, got.completed, got.retried)
	}
	if len(got.writeLatMs) != 2 || got.writeLatMs[0] != 10 || got.writeLatMs[1] != 190 {
		t.Errorf("write latencies = %v, want [10 190]", got.writeLatMs)
	}
	if len(got.readLatMs) != 1 || got.readLatMs[0] != 10 {
		t.Errorf("read latencies = %v, want [10]", got.readLatMs)
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := value(7, 42, 1, 9)
	w, ver, ok := parseValue(7, 42, v)
	if !ok || w != 1 || ver != 9 {
		t.Fatalf("parseValue = %d, %d, %v", w, ver, ok)
	}
	if _, _, ok := parseValue(7, 43, v); ok {
		t.Error("a value of another key verified")
	}
	if _, _, ok := parseValue(8, 42, v); ok {
		t.Error("a value of another seed verified")
	}
	v[20] ^= 1
	if _, _, ok := parseValue(7, 42, v); ok {
		t.Error("a corrupted value verified")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	w, _ := findWorkload("put-bundle")
	a, b := newGenerator(w, 3, 1, nil), newGenerator(w, 3, 1, nil)
	c := newGenerator(w, 4, 1, nil)
	ra, rb, rc := a.request(), b.request(), c.request()
	if string(ra.op) != string(rb.op) {
		t.Error("one seed gave two request streams")
	}
	if string(ra.op) == string(rc.op) {
		t.Error("two seeds gave one request stream")
	}
	if ra.ops != 64 || expectedWrite(ra) != "OK:64" {
		t.Errorf("bundle request carries %d ops, expects %q", ra.ops, expectedWrite(ra))
	}
}
