// Bucketed canonical snapshots. Keys are distributed over a fixed number
// of hash buckets; each bucket encodes independently (fixed big-endian
// framing, keys sorted within the bucket), and a Tracker mirrors the
// application state so that only buckets touched since the previous
// capture are re-encoded. Capture cost becomes O(writes-since-last-
// checkpoint + buckets), not O(state) — the checkpoint layer hands the
// per-bucket chunks straight to the Merkle commitment, so clean buckets
// also keep their cached leaf hashes.
//
// Canonicality: the bucket of a key is a pure function of the key bytes
// (FNV-1a 64), the bucket count is part of the encoding, and bucket
// contents are key-sorted — identical state yields identical chunks in
// every process. The bucket count is
// adopted from the blob on restore, so a fetched snapshot re-buckets the
// restoring replica identically to the serving one.
//
// Format (concatenation of the chunk list):
//
//	chunk 0 (prelude):  magic "sbftbkt1", lastSeq u64, dlen u64, digest,
//	                    buckets u32
//	chunk 1+b:          count u64, count × ( klen u64, key bytes,
//	                    vlen u64, value bytes )   — keys sorted
package snapcodec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// bucketMagic versions the bucketed canonical snapshot framing.
const bucketMagic = "sbftbkt1"

// DefaultBuckets is the bucket count applications use unless tuned: all
// replicas of a deployment must agree on it (it shapes the certified
// chunk layout). Coarse on purpose — tiny test states stay cheap to
// transfer; large-state deployments and benchmarks raise it so the dirty
// fraction resolves finely.
const DefaultBuckets = 64

// MaxBuckets bounds the bucket count a blob may declare; a guard against
// allocation bombs from malformed (never certified) input.
const MaxBuckets = 1 << 20

// BucketOf maps a key to its bucket among n. Pure function of the key
// bytes: every replica agrees.
func BucketOf(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// Tracker maintains the bucketed encoding of one application's state
// incrementally: the application reports every mutation (Set/Delete),
// and EncodeChunks re-encodes only the buckets touched since the last
// call, returning clean buckets as the identical cached byte slices.
// Returned slices are never mutated afterwards, so snapshot generations
// retained by the checkpoint layer can alias them safely.
type Tracker struct {
	buckets int
	content []map[string][]byte // live mirror, one map per bucket
	enc     [][]byte            // cached encoding per bucket (nil = stale)
}

// NewTracker returns a tracker over the given bucket count (DefaultBuckets
// if n <= 0). All buckets start stale: the first capture encodes
// everything.
func NewTracker(n int) *Tracker {
	if n <= 0 {
		n = DefaultBuckets
	}
	t := &Tracker{
		buckets: n,
		content: make([]map[string][]byte, n),
		enc:     make([][]byte, n),
	}
	for i := range t.content {
		t.content[i] = make(map[string][]byte)
	}
	return t
}

// Buckets reports the bucket count.
func (t *Tracker) Buckets() int { return t.buckets }

// Set records a key write. The value slice is referenced, not copied —
// callers must not mutate it afterwards (the same contract the
// authenticated state map imposes).
func (t *Tracker) Set(key string, val []byte) {
	b := BucketOf(key, t.buckets)
	t.content[b][key] = val
	t.enc[b] = nil
}

// Delete records a key deletion.
func (t *Tracker) Delete(key string) {
	b := BucketOf(key, t.buckets)
	delete(t.content[b], key)
	t.enc[b] = nil
}

// encodeBucket builds the canonical encoding of bucket b.
func (t *Tracker) encodeBucket(b int) []byte {
	m := t.content[b]
	keys := make([]string, 0, len(m))
	n := 8
	for k := range m {
		keys = append(keys, k)
		n += 16 + len(k) + len(m[k])
	}
	sort.Strings(keys)
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(m[k])))
		buf = append(buf, m[k]...)
	}
	return buf
}

// EncodeChunks returns the full chunk list of the bucketed snapshot for
// the given (lastSeq, digest) — the prelude followed by one chunk per
// bucket — re-encoding only buckets mutated since the previous call, and
// reports how many buckets were re-encoded. Clean buckets come back as
// the identical slices of the previous call, which is what lets the
// checkpoint layer reuse their leaf hashes.
func (t *Tracker) EncodeChunks(lastSeq uint64, digest []byte) ([][]byte, int) {
	prelude := make([]byte, 0, len(bucketMagic)+8+8+len(digest)+4)
	prelude = append(prelude, bucketMagic...)
	prelude = binary.BigEndian.AppendUint64(prelude, lastSeq)
	prelude = binary.BigEndian.AppendUint64(prelude, uint64(len(digest)))
	prelude = append(prelude, digest...)
	prelude = binary.BigEndian.AppendUint32(prelude, uint32(t.buckets))

	chunks := make([][]byte, 1+t.buckets)
	chunks[0] = prelude
	reencoded := 0
	for b := 0; b < t.buckets; b++ {
		if t.enc[b] == nil {
			t.enc[b] = t.encodeBucket(b)
			reencoded++
		}
		chunks[1+b] = t.enc[b]
	}
	return chunks, reencoded
}

// Restore rebuilds the tracker from a decoded bucketed snapshot: the
// mirror adopts the blob's bucket count and entries, and the cached
// encodings are seeded from the blob's own chunks — so the first capture
// after a state transfer is already incremental instead of a full
// re-encode.
func (t *Tracker) Restore(st State, buckets int, chunks [][]byte) {
	t.buckets = buckets
	t.content = make([]map[string][]byte, buckets)
	for i := range t.content {
		t.content[i] = make(map[string][]byte)
	}
	for _, e := range st.Entries {
		t.content[BucketOf(e.Key, buckets)][e.Key] = e.Val
	}
	t.enc = make([][]byte, buckets)
	for b := 0; b < buckets && 1+b < len(chunks); b++ {
		t.enc[b] = chunks[1+b]
	}
}

// BucketLookup searches one bucket chunk (the canonical per-bucket
// framing: count u64, then count × (klen u64, key, vlen u64, value)) for
// a key. It returns the value and whether the key is present, and errors
// only on malformed framing — so a VERIFIED chunk authenticates both the
// presence and the absence of the key. The certified read path uses this
// client-side: the chunk's Merkle leaf binds these exact bytes, so a
// replica cannot hide or invent an entry without breaking the proof.
func BucketLookup(chunk []byte, key string) ([]byte, bool, error) {
	rest := chunk
	readU64 := func() (uint64, error) {
		if len(rest) < 8 {
			return 0, fmt.Errorf("snapcodec: truncated bucket chunk")
		}
		v := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		return v, nil
	}
	count, err := readU64()
	if err != nil {
		return nil, false, err
	}
	if count > maxLen/16 || count > uint64(len(rest))/16 {
		return nil, false, fmt.Errorf("snapcodec: %d entries in %d bytes", count, len(rest))
	}
	var val []byte
	found := false
	for i := uint64(0); i < count; i++ {
		klen, err := readU64()
		if err != nil {
			return nil, false, err
		}
		if klen > maxLen || uint64(len(rest)) < klen {
			return nil, false, fmt.Errorf("snapcodec: bad key length %d", klen)
		}
		k := string(rest[:klen])
		rest = rest[klen:]
		vlen, err := readU64()
		if err != nil {
			return nil, false, err
		}
		if vlen > maxLen || uint64(len(rest)) < vlen {
			return nil, false, fmt.Errorf("snapcodec: bad value length %d", vlen)
		}
		if k == key {
			found = true
			if vlen > 0 {
				val = append([]byte(nil), rest[:vlen]...)
			}
		}
		rest = rest[vlen:]
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("snapcodec: %d trailing bucket bytes", len(rest))
	}
	return val, found, nil
}

// DecodeBucketed parses an assembled bucketed snapshot, returning the
// state and the re-split chunk list (prelude + one slice per bucket,
// aliasing data) for seeding a Tracker.
func DecodeBucketed(data []byte) (State, [][]byte, error) {
	if len(data) < len(bucketMagic) || string(data[:len(bucketMagic)]) != bucketMagic {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket magic")
	}
	rest := data[len(bucketMagic):]
	readU64 := func() (uint64, error) {
		if len(rest) < 8 {
			return 0, fmt.Errorf("snapcodec: truncated")
		}
		v := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		return v, nil
	}
	var st State
	var err error
	if st.LastSeq, err = readU64(); err != nil {
		return State{}, nil, err
	}
	dlen, err := readU64()
	if err != nil {
		return State{}, nil, err
	}
	if dlen > maxLen || uint64(len(rest)) < dlen {
		return State{}, nil, fmt.Errorf("snapcodec: bad digest length %d", dlen)
	}
	if dlen > 0 {
		st.Digest = append([]byte(nil), rest[:dlen]...)
		rest = rest[dlen:]
	}
	if len(rest) < 4 {
		return State{}, nil, fmt.Errorf("snapcodec: truncated bucket count")
	}
	buckets := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if buckets <= 0 || buckets > MaxBuckets {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket count %d", buckets)
	}
	chunks := make([][]byte, 1+buckets)
	chunks[0] = data[:len(data)-len(rest)]
	for b := 0; b < buckets; b++ {
		start := rest
		count, err := readU64()
		if err != nil {
			return State{}, nil, err
		}
		if count > maxLen/16 || count > uint64(len(rest))/16 {
			return State{}, nil, fmt.Errorf("snapcodec: %d entries in %d bytes", count, len(rest))
		}
		for i := uint64(0); i < count; i++ {
			klen, err := readU64()
			if err != nil {
				return State{}, nil, err
			}
			if klen > maxLen || uint64(len(rest)) < klen {
				return State{}, nil, fmt.Errorf("snapcodec: bad key length %d", klen)
			}
			key := string(rest[:klen])
			rest = rest[klen:]
			vlen, err := readU64()
			if err != nil {
				return State{}, nil, err
			}
			if vlen > maxLen || uint64(len(rest)) < vlen {
				return State{}, nil, fmt.Errorf("snapcodec: bad value length %d", vlen)
			}
			var val []byte
			if vlen > 0 {
				val = append([]byte(nil), rest[:vlen]...)
				rest = rest[vlen:]
			}
			st.Entries = append(st.Entries, Entry{Key: key, Val: val})
		}
		chunks[1+b] = start[:len(start)-len(rest)]
	}
	if len(rest) != 0 {
		return State{}, nil, fmt.Errorf("snapcodec: %d trailing bytes", len(rest))
	}
	return st, chunks, nil
}
