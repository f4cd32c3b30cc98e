// Package snapcodec is the canonical binary codec for application
// checkpoint snapshots.
//
// The replication layer Merkle-commits snapshot bytes chunk by chunk
// inside the threshold-signed checkpoint digest (§V-F), so every honest
// replica must produce IDENTICAL bytes for identical state — across
// processes, not just within one. encoding/gob cannot promise that: its
// wire format embeds type ids allocated from a process-global counter,
// so two replicas whose processes gob-encoded other types in a different
// order (the primary's transport traffic vs a backup's, say) emit
// different bytes for the very same value. This surfaced in live TCP
// deployments as the primary's checkpoint root permanently disagreeing
// with the backup quorum's — invisible in the simulator, where all
// replicas share one process and one gob registry.
//
// The format (tracker.go) is fixed big-endian framing with no type
// metadata, split into hash buckets so a Tracker can re-encode only the
// buckets written since the previous capture.
package snapcodec

// maxLen bounds any single length field; a sanity guard against
// allocation bombs from malformed input (never certified input — the
// replication layer verifies chunks against the signed root first).
const maxLen = 1 << 31

// Entry is one key-value pair of a decoded snapshot.
type Entry struct {
	Key string
	Val []byte
}

// State is an application's replayable checkpoint state in decoded form:
// the last executed sequence, the application digest at that sequence,
// and the state entries.
type State struct {
	LastSeq uint64
	Digest  []byte
	Entries []Entry
}

// ToMap flattens decoded entries back into a map.
func (st State) ToMap() map[string][]byte {
	m := make(map[string][]byte, len(st.Entries))
	for _, e := range st.Entries {
		m[e.Key] = e.Val
	}
	return m
}
