package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"sbft/internal/kvstore"
)

// workload is one traffic mix. The settings are the benchmark's inputs;
// every protocol and deployment setting stays at its shipped value.
type workload struct {
	name   string
	bls    bool    // threshold BLS instead of the HMAC stand-in suite
	keys   int     // preloaded working set
	bundle int     // puts per write request (1 = single-op puts)
	reader bool    // session 2 issues certified reads instead of writes
	crash  bool    // close the view-0 primary when the window opens
	tail   float64 // percentile reported as latency_tail_ms
}

// The tail percentile of each workload is fixed so that runs compare. It
// is the highest whose run-to-run spread stayed under 0.25: on read-mix
// every percentile from p90 up spread by 0.3 or more of its median across
// ten 36 s runs on a 2-vCPU host with CPU steal. crash-primary preloads
// the same 16,384 keys as read-mix: with 1,024 its set-up was ~40 ms of
// mostly fsyncs and its peak RSS ~30 MiB, and both moved by a quarter or
// more between batches of runs with the host's I/O and page-size noise.
var workloads = []workload{
	{name: "put-bundle", keys: 16384, bundle: 64, tail: 99},
	{name: "put-bls", bls: true, keys: 1024, bundle: 1, tail: 95},
	{name: "read-mix", keys: 16384, bundle: 1, reader: true, tail: 75},
	{name: "crash-primary", keys: 16384, bundle: 1, crash: true, tail: 90},
}

// Percentiles of the write-only and read-only tails a traced run reports.
const (
	writeTail = 95
	readTail  = 99
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	valueLen      = 32
	preloadBundle = 1024 // puts per preload request
)

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// value is the 32-byte value writer w stores at its version v of key k:
// writer, version, then a seed-keyed hash that lets a reader check that
// the bytes it got were really written. The preload is writer 0 version 0.
func value(seed uint64, key, writer int, version uint32) []byte {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], seed)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(key))
	binary.BigEndian.PutUint32(hdr[12:], version)
	h := sha256.Sum256(append(hdr[:], byte(writer)))
	v := make([]byte, valueLen)
	v[0] = byte(writer)
	binary.BigEndian.PutUint32(v[1:5], version)
	copy(v[5:], h[:valueLen-5])
	return v
}

// parseValue returns the writer and version a value claims, and whether
// its bytes are exactly what that writer stored at that version.
func parseValue(seed uint64, key int, v []byte) (writer int, version uint32, ok bool) {
	if len(v) != valueLen {
		return 0, 0, false
	}
	writer, version = int(v[0]), binary.BigEndian.Uint32(v[1:5])
	return writer, version, string(v) == string(value(seed, key, writer, version))
}

// preloadOps returns the preload requests for session s (1 or 2) of a
// two-session deployment: the working set, split by key parity, in
// bundles of preloadBundle puts.
func preloadOps(seed uint64, keys, s int) []request {
	var out []request
	var cur [][]byte
	flush := func() {
		if len(cur) > 0 {
			out = append(out, request{op: kvstore.Bundle(cur...), ops: len(cur), bundle: true})
			cur = nil
		}
	}
	for k := s - 1; k < keys; k += 2 {
		cur = append(cur, kvstore.Put(keyName(k), value(seed, k, 0, 0)))
		if len(cur) == preloadBundle {
			flush()
		}
	}
	flush()
	return out
}

// request is one client request a session issues.
type request struct {
	op     []byte
	ops    int
	bundle bool
	read   bool
	key    int // read key (reads only)
}

// generator produces one session's request stream. It is driven only from
// its session's event loop; the inputs depend only on the seed and the
// session number.
type generator struct {
	w       workload
	seed    uint64
	session int
	rng     *rand.Rand
	next    map[int]uint32 // this writer's next version per key
	salt    uint64
	// written[k] is the highest version the writer session has submitted
	// for key k; readers of read-mix check their values against it.
	written []atomic.Uint32
}

func newGenerator(w workload, seed uint64, session int, written []atomic.Uint32) *generator {
	return &generator{
		w: w, seed: seed, session: session,
		rng:     rand.New(rand.NewPCG(seed, uint64(session))),
		next:    make(map[int]uint32),
		written: written,
	}
}

func (g *generator) reads() bool { return g.w.reader && g.session == 2 }

func (g *generator) request() request {
	if g.reads() {
		k := g.rng.IntN(g.w.keys)
		g.salt++
		return request{op: kvstore.GetUnique(keyName(k), g.salt), ops: 1, read: true, key: k}
	}
	puts := make([][]byte, g.w.bundle)
	for i := range puts {
		k := g.rng.IntN(g.w.keys)
		g.next[k]++
		v := g.next[k]
		if g.written != nil {
			g.written[k].Store(v)
		}
		puts[i] = kvstore.Put(keyName(k), value(g.seed, k, g.session, v))
	}
	if g.w.bundle == 1 {
		return request{op: puts[0], ops: 1}
	}
	return request{op: kvstore.Bundle(puts...), ops: len(puts), bundle: true}
}

// expectedWrite is the result a write request must return.
func expectedWrite(r request) string {
	if r.bundle {
		return fmt.Sprintf("OK:%d", r.ops)
	}
	return "OK"
}
