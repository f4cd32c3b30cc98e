package core

import (
	"bytes"
	"testing"
)

// newCertified commits a flat app snapshot split into SnapshotChunkSize
// app chunks: a fixed chunk shape for tests that do not care about the
// app's own chunking.
func newCertified(seq uint64, appDigest, appSnap, tableBytes []byte) *CertifiedSnapshot {
	return NewCertifiedSnapshotChunked(seq, appDigest, splitChunks(appSnap, SnapshotChunkSize), tableBytes, nil)
}

func testCache() map[int]replyCacheEntry {
	return map[int]replyCacheEntry{
		ClientBase + 2: {timestamp: 5, seq: 9, l: 1, val: []byte("z")},
		ClientBase:     {timestamp: 3, seq: 7, l: 0, val: []byte("a")},
		ClientBase + 1: {timestamp: 9, seq: 8, l: 2, val: bytes.Repeat([]byte("b"), 100)},
	}
}

// TestCertifiedSnapshotRoundTrip covers build → prove → verify → assemble
// → decode for a multi-chunk snapshot.
func TestCertifiedSnapshotRoundTrip(t *testing.T) {
	app := bytes.Repeat([]byte{0xAB}, 3*SnapshotChunkSize+17) // 4 app chunks
	table := encodeReplyTable(testCache())
	cs := newCertified(8, []byte("app-digest"), app, table)

	if got, want := len(cs.Chunks), cs.Header.NumChunks(); got != want {
		t.Fatalf("chunks %d, header says %d", got, want)
	}
	hp, err := cs.ProveHeader()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotHeader(cs.Root(), cs.Header, hp); err != nil {
		t.Fatalf("header verify: %v", err)
	}
	for i := 1; i <= len(cs.Chunks); i++ {
		p, err := cs.ProveChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySnapshotChunk(cs.Root(), cs.Header, i, cs.Chunks[i-1], p); err != nil {
			t.Fatalf("chunk %d verify: %v", i, err)
		}
	}
	gotApp, gotTable, err := AssembleSnapshot(cs.Header, cs.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotApp, app) || !bytes.Equal(gotTable, table) {
		t.Fatal("assembled bytes differ from inputs")
	}

	dec, err := DecodeCertifiedSnapshot(cs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != 8 || !bytes.Equal(dec.Root(), cs.Root()) {
		t.Fatal("decoded snapshot root differs")
	}
}

// TestCertifiedSnapshotDetectsTampering is the heart of the certification
// boundary: any bit flipped in any chunk — including the reply-table
// chunks a Byzantine snapshot server would want to perturb — fails leaf
// verification against the certified root.
func TestCertifiedSnapshotDetectsTampering(t *testing.T) {
	app := bytes.Repeat([]byte{0xCD}, SnapshotChunkSize+100)
	table := encodeReplyTable(testCache())
	cs := newCertified(4, []byte("app-digest"), app, table)

	for i := 1; i <= len(cs.Chunks); i++ {
		p, err := cs.ProveChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		evil := append([]byte(nil), cs.Chunks[i-1]...)
		evil[len(evil)/2] ^= 0x01
		if err := VerifySnapshotChunk(cs.Root(), cs.Header, i, evil, p); err == nil {
			t.Fatalf("tampered chunk %d verified", i)
		}
	}

	// A chunk served at the wrong position must not verify either, even
	// with its own (correct) proof.
	p1, _ := cs.ProveChunk(1)
	if err := VerifySnapshotChunk(cs.Root(), cs.Header, 2, cs.Chunks[0][:len(cs.Chunks[1])], p1); err == nil {
		t.Fatal("chunk accepted at the wrong index")
	}

	// Tampered header: claim a different app digest.
	hp, _ := cs.ProveHeader()
	evilHdr := cs.Header
	evilHdr.AppDigest = []byte("forged")
	if err := VerifySnapshotHeader(cs.Root(), evilHdr, hp); err == nil {
		t.Fatal("tampered header verified")
	}
}

// TestCertifiedSnapshotDeterminism: the same (app bytes, reply table)
// yields the same root regardless of the map's construction order — the
// property that lets independent replicas reach the π quorum.
func TestCertifiedSnapshotDeterminism(t *testing.T) {
	app := bytes.Repeat([]byte{7}, 1000)
	a := newCertified(4, []byte("d"), app, encodeReplyTable(testCache()))
	other := map[int]replyCacheEntry{}
	for c, e := range testCache() { // re-insert in map order (arbitrary)
		other[c] = e
	}
	b := newCertified(4, []byte("d"), app, encodeReplyTable(other))
	if !bytes.Equal(a.Root(), b.Root()) {
		t.Fatal("roots differ for identical state")
	}
	c := newCertified(4, []byte("d"), app, encodeReplyTable(map[int]replyCacheEntry{}))
	if bytes.Equal(a.Root(), c.Root()) {
		t.Fatal("root ignores the reply table")
	}
}

// TestStoredSnapshotRejectsCorruption: the durable blob re-validates shape
// on load.
func TestStoredSnapshotRejectsCorruption(t *testing.T) {
	cs := newCertified(4, []byte("d"), bytes.Repeat([]byte{1}, 100), encodeReplyTable(testCache()))
	blob := cs.Encode()
	if _, err := DecodeCertifiedSnapshot(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob decoded")
	}
	if _, err := DecodeCertifiedSnapshot([]byte("garbage")); err == nil {
		t.Fatal("garbage blob decoded")
	}
}

// TestCheckpointDigestDomainSeparation: an execution certificate digest
// can never collide with a checkpoint certificate digest for the same
// (seq, digest) pair, so one certificate family cannot be replayed as the
// other.
func TestCheckpointDigestDomainSeparation(t *testing.T) {
	d := []byte("digest")
	if bytes.Equal(StateSigDigest(4, d), CheckpointSigDigest(4, d)) {
		t.Fatal("state and checkpoint signing digests collide")
	}
}

// noChunksApp declines to capture its state.
type noChunksApp struct{ *fakeApp }

func (noChunksApp) SnapshotChunks() ([][]byte, bool, error) { return nil, false, nil }

// TestCaptureRequiresAppChunks: the app's chunk list is the only snapshot
// format, so an app answering ok=false fails the capture instead of
// falling back to another layout, and a header declaring no app chunks
// is malformed.
func TestCaptureRequiresAppChunks(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "no-chunks")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(1, cfg, suite, keys[0], noChunksApp{&fakeApp{}}, &fakeEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.buildSnapshot(4, []byte{0}); err == nil {
		t.Fatal("capture succeeded without app chunks")
	}
	h := newCertified(4, []byte("d"), []byte("app"), nil).Header
	if !h.valid() {
		t.Fatal("one-chunk header rejected")
	}
	h.AppChunks = 0
	if h.valid() {
		t.Fatal("header without app chunks accepted")
	}
}
