package cluster

import (
	"bytes"
	"encoding/gob"
	"testing"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/kvstore"
)

// legacyEnvelope reproduces the pre-fix state-transfer wire format: the
// application snapshot plus the last-reply table, shipped together while
// the π checkpoint certificate covered ONLY the application digest. The
// reply table rode along uncertified — the exact gap this PR closes.
type legacyEnvelope struct {
	App     []byte
	Replies map[int]core.ClientReply
}

// TestLegacyEnvelopeExploitableByByzantineSnapshotServer demonstrates the
// pre-fix vulnerability: a Byzantine snapshot server that semantically
// tampers with the last-reply table passes every check the old receiver
// performed (π certificate over the app digest, app restore, restored-
// digest comparison) — so a recovering replica would silently adopt
// poisoned dedup state, suppressing or duplicating client executions. The
// same tampering against the NEW certified chunked encoding fails Merkle
// leaf verification, which is what lets the receiver blame the server.
func TestLegacyEnvelopeExploitableByByzantineSnapshotServer(t *testing.T) {
	const seq = 4
	cfg := core.DefaultConfig(1, 0)
	suite, keys, err := core.InsecureSuite(cfg, "legacy-exploit")
	if err != nil {
		t.Fatal(err)
	}

	// The honest snapshot server's state at checkpoint `seq`: some app
	// state and a last-reply table recording that the client's request
	// ts=3 already executed.
	server := apps.NewKVApp()
	for s := uint64(1); s <= seq; s++ {
		server.ExecuteBlock(s, [][]byte{kvstore.Put("k", []byte{byte(s)})})
	}
	appSnap, err := server.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	appDigest := server.Digest()
	honestReplies := map[int]core.ClientReply{
		core.ClientBase: {Timestamp: 3, Seq: seq, L: 0, Val: []byte("ok")},
	}

	// The old certification boundary: π threshold-signs the APP digest
	// only (f+1 shares suffice).
	var shares []threshsig.Share
	for i := 0; i < cfg.QuorumExec(); i++ {
		sh, err := keys[i].Pi.Sign(core.StateSigDigest(seq, appDigest))
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	pi, err := suite.Pi.Combine(core.StateSigDigest(seq, appDigest), shares)
	if err != nil {
		t.Fatal(err)
	}

	// The Byzantine server tampers semantically: it inflates the client's
	// last-executed timestamp. A victim merging this table would wrongly
	// dedup (suppress) the client's next requests up to ts=1000; lowering
	// or dropping the entry would instead cause duplicate execution.
	tampered := legacyEnvelope{App: appSnap, Replies: map[int]core.ClientReply{
		core.ClientBase: {Timestamp: 1000, Seq: seq, L: 0, Val: []byte("ok")},
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tampered); err != nil {
		t.Fatal(err)
	}

	// Replay the OLD receiver's acceptance checks against the tampered
	// envelope. Every single one passes: the pre-fix path is exploitable.
	var env legacyEnvelope
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&env); err != nil {
		t.Fatalf("old check 1 (decode) rejected: %v", err)
	}
	if err := suite.Pi.Verify(core.StateSigDigest(seq, appDigest), pi); err != nil {
		t.Fatalf("old check 2 (π over app digest) rejected: %v", err)
	}
	victim := apps.NewKVApp()
	if err := victim.Restore(env.App); err != nil {
		t.Fatalf("old check 3 (restore) rejected: %v", err)
	}
	if !bytes.Equal(victim.Digest(), appDigest) {
		t.Fatal("old check 4 (restored digest) rejected")
	}
	if env.Replies[core.ClientBase].Timestamp != 1000 {
		t.Fatal("tampering lost in transit")
	}
	// At this point the old receiver merged env.Replies into its reply
	// cache: dedup state poisoned, no check failed, nobody blamed.

	// The same adversary against the NEW path: the reply table is
	// committed chunk-by-chunk inside the certified root, so serving a
	// table with the inflated timestamp means serving chunk bytes that no
	// longer match the threshold-signed root — caught by leaf
	// verification, attributable to the server.
	encodeTable := func(replies map[int]core.ClientReply) []byte {
		var tb bytes.Buffer
		if err := gob.NewEncoder(&tb).Encode(replies); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes()
	}
	appChunks, _, err := server.SnapshotChunks()
	if err != nil {
		t.Fatal(err)
	}
	honest := core.NewCertifiedSnapshotChunked(seq, appDigest, appChunks, encodeTable(honestReplies), nil)
	tamperedTable := encodeTable(tampered.Replies)
	// The adversary must serve its tampered table bytes under the honest
	// certified root (it cannot forge a new π certificate). Every chunk
	// layout it could choose fails verification.
	evil := core.NewCertifiedSnapshotChunked(seq, appDigest, appChunks, tamperedTable, nil)
	if bytes.Equal(evil.Root(), honest.Root()) {
		t.Fatal("tampered table produced the same certified root")
	}
	idx := len(honest.Chunks) // the last chunk holds the table tail
	proof, err := evil.ProveChunk(len(evil.Chunks))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySnapshotChunk(honest.Root(), honest.Header, idx,
		evil.Chunks[len(evil.Chunks)-1], proof); err == nil {
		t.Fatal("new path accepted a tampered reply-table chunk")
	}

	// And the byte-level corrupter used by FaultByzSnapshot is likewise
	// caught on every chunk it touches.
	for i := 1; i <= len(honest.Chunks); i++ {
		p, err := honest.ProveChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifySnapshotChunk(honest.Root(), honest.Header, i,
			TamperSnapshotChunk(honest.Chunks[i-1]), p); err == nil {
			t.Fatalf("new path accepted corrupter-tampered chunk %d", i)
		}
	}
}
