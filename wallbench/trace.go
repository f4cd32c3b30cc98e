package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/kvstore"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// The traced run wraps each layer's public interface from outside the
// program and records a span around every call. Spans stay in memory and
// are written out when the run ends.

// Span kinds, named after the layer boundary they time.
const (
	kDeliver       uint8 = iota // core: Replica.Deliver
	kTimer                      // core: Env.After callback on a replica or client
	kCompletion                 // core: crypto completion routed onto the loop
	kSend                       // transport: Env.Send
	kExecute                    // app: ExecuteBlock
	kProve                      // app: ProveOperation
	kSnapshot                   // app: SnapshotChunks
	kAppend                     // storage: Append
	kSnapSave                   // storage: SaveSnapshot
	kSign                       // crypto: Signer.Sign
	kVerifyShare                // crypto: Scheme.VerifyShare
	kBatchVerify                // crypto: BatchVerifyShares
	kCombine                    // crypto: Combine / CombineVerified
	kVerify                     // crypto: Scheme.Verify
	kSinkCall                   // cryptopool: call until return
	kSinkJob                    // cryptopool: call until done runs
	kClientDeliver              // client: Client.Deliver
	kProofVerify                // client: ProofVerifier
	kResult                     // client: Submit until the accepted result
	numKinds
)

var kindNames = [numKinds]string{
	"deliver", "timer", "completion", "send", "execute", "prove", "snapshot",
	"append", "snapshot_save", "sign", "verify_share", "batch_verify", "combine",
	"verify", "sink_call", "sink_job", "client_deliver", "proof_verify", "result",
}

// Message families of Deliver and Send spans.
const (
	famOrder uint8 = iota
	famReply
	famCheckpoint
	famViewChange
	famRead
	famTransfer
	famOther
)

var famNames = []string{"order", "reply", "checkpoint", "viewchange", "read", "transfer", "other"}

func familyOf(msg any) uint8 {
	switch msg.(type) {
	case core.RequestMsg, core.PrePrepareMsg, core.SignShareMsg, core.FullCommitProofMsg,
		core.PrepareMsg, core.CommitMsg, core.FullCommitProofSlowMsg, core.SignStateMsg,
		core.FullExecuteProofMsg:
		return famOrder
	case core.ExecuteAckMsg, core.ReplyMsg, core.BusyMsg:
		return famReply
	case core.CheckpointShareMsg, core.CheckpointCertMsg:
		return famCheckpoint
	case core.ViewChangeMsg, core.NewViewMsg:
		return famViewChange
	case core.ReadMsg, core.ReadReplyMsg:
		return famRead
	case core.FetchCommitMsg, core.CommitInfoMsg, core.FetchStateMsg, core.SnapshotMetaMsg,
		core.FetchSnapshotChunkMsg, core.SnapshotChunkMsg:
		return famTransfer
	}
	return famOther
}

// seqOf is the block sequence a message names, or 0.
func seqOf(msg any) uint64 {
	switch m := msg.(type) {
	case core.PrePrepareMsg:
		return m.Seq
	case core.SignShareMsg:
		return m.Seq
	case core.FullCommitProofMsg:
		return m.Seq
	case core.PrepareMsg:
		return m.Seq
	case core.CommitMsg:
		return m.Seq
	case core.FullCommitProofSlowMsg:
		return m.Seq
	case core.SignStateMsg:
		return m.Seq
	case core.FullExecuteProofMsg:
		return m.Seq
	case core.ExecuteAckMsg:
		return m.Seq
	case core.ReplyMsg:
		return m.Seq
	case core.CheckpointShareMsg:
		return m.Seq
	case core.CheckpointCertMsg:
		return m.Seq
	case core.ReadReplyMsg:
		return m.Seq
	}
	return 0
}

// span is one timed call. parent indexes the span that caused it: the
// open Deliver, timer or completion span on the same event loop, or for
// crypto run by pool workers, the cryptopool job it belongs to.
type span struct {
	start, end int64 // ns since the run's epoch; end is 0 while open
	seq        uint64
	aux        int64 // kind-specific: wire bytes, shares, ops, inline flag
	n          int32 // kind-specific: requests in an executed block
	parent     int32
	node       int32
	kind, fam  uint8
}

func (s span) dur() int64 { return s.end - s.start }

// jobKey identifies the cryptopool job a worker's crypto call serves: the
// job hands its digest slice unchanged to the scheme, so the slice's
// backing array, the scheme and the operation name the job.
type jobKey struct {
	digest  *byte
	scheme  uint8
	combine bool
}

func keyOf(digest []byte, scheme uint8, combine bool) jobKey {
	k := jobKey{scheme: scheme, combine: combine}
	if len(digest) > 0 {
		k.digest = &digest[0]
	}
	return k
}

// tracer collects the spans of one traced run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	jobs  map[jobKey]int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, jobs: make(map[jobKey]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its index, or -1 while recording is off.
func (t *tracer) add(s span) int32 {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(i int32, end int64) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

func (t *tracer) setAux(i int32, aux int64) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].aux = aux
	t.mu.Unlock()
}

func (t *tracer) setN(i int32, n int32) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].n = n
	t.mu.Unlock()
}

// result records a completed client request, joinable with replica spans
// through its block seq.
func (t *tracer) result(client int, r record) {
	t.add(span{start: r.submit, end: r.done, seq: r.seq, aux: int64(r.ops), parent: -1, node: int32(client), kind: kResult})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tkind\tfamily\tnode\tparent\tseq\tstart_ns\tend_ns\taux\tn")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", i, kindNames[s.kind], famNames[s.fam], s.node, s.parent, s.seq, s.start, s.end, s.aux, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanner opens and closes spans for one recording context.
type spanner interface {
	begin(kind, fam uint8, seq uint64, aux int64, job jobKey) int32
	end(i int32)
}

// loop records spans made on one node's event loop. It is used only from
// that loop's goroutine, so its stack of open spans needs no lock.
type loop struct {
	t     *tracer
	node  int32
	stack []int32
}

func (t *tracer) loop(node int) *loop { return &loop{t: t, node: int32(node)} }

func (l *loop) begin(kind, fam uint8, seq uint64, aux int64, _ jobKey) int32 {
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	i := l.t.add(span{start: l.t.now(), seq: seq, aux: aux, parent: parent, node: l.node, kind: kind, fam: fam})
	l.stack = append(l.stack, i)
	return i
}

func (l *loop) end(i int32) {
	l.stack = l.stack[:len(l.stack)-1]
	l.t.finish(i, l.t.now())
}

// wrapDo times the completions a cryptopool routes onto the loop.
func (l *loop) wrapDo(do func(func())) func(func()) {
	return func(fn func()) {
		do(func() {
			i := l.begin(kCompletion, famOther, 0, 0, jobKey{})
			fn()
			l.end(i)
		})
	}
}

// detached records crypto calls made by a replica's pool workers; each
// span's parent is the cryptopool job whose digest it was handed.
type detached struct {
	t    *tracer
	node int32
}

func (t *tracer) detached(node int) detached { return detached{t: t, node: int32(node)} }

func (d detached) begin(kind, fam uint8, seq uint64, aux int64, job jobKey) int32 {
	d.t.mu.Lock()
	parent, ok := d.t.jobs[job]
	d.t.mu.Unlock()
	if !ok {
		parent = -1
	}
	return d.t.add(span{start: d.t.now(), seq: seq, aux: aux, parent: parent, node: d.node, kind: kind, fam: fam})
}

func (d detached) end(i int32) { d.t.finish(i, d.t.now()) }

// ---------------------------------------------------------------------------
// transport

// tracedEnv wraps a node's core.Env (its transport.Shell).
type tracedEnv struct {
	inner core.Env
	lp    *loop
}

func (e tracedEnv) Send(to int, msg core.Message) {
	i := e.lp.begin(kSend, familyOf(msg), seqOf(msg), int64(msg.WireSize()), jobKey{})
	e.inner.Send(to, msg)
	e.lp.end(i)
}

func (e tracedEnv) Now() time.Duration { return e.inner.Now() }

func (e tracedEnv) After(d time.Duration, fn func()) func() {
	return e.inner.After(d, func() {
		i := e.lp.begin(kTimer, famOther, 0, 0, jobKey{})
		fn()
		e.lp.end(i)
	})
}

// tracedNode wraps the node a shell delivers to.
type tracedNode struct {
	inner transport.Node
	lp    *loop
	kind  uint8
}

func (n tracedNode) Deliver(from int, msg any) {
	i := n.lp.begin(n.kind, familyOf(msg), seqOf(msg), 0, jobKey{})
	n.inner.Deliver(from, msg)
	n.lp.end(i)
}

// ---------------------------------------------------------------------------
// app

// tracedApp wraps the replica's application. It forwards every optional
// interface the replica type-asserts, so the traced run takes the same
// snapshot, read and cross-shard paths as the untraced one.
type tracedApp struct {
	inner *apps.KVApp
	lp    *loop
}

var (
	_ core.Application        = tracedApp{}
	_ core.ChunkedSnapshotter = tracedApp{}
	_ core.KeyReader          = tracedApp{}
	_ core.TwoPhaser          = tracedApp{}
)

func (a tracedApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	n := 0
	for _, op := range ops {
		n += kvstore.BundleSize(op)
	}
	i := a.lp.begin(kExecute, famOther, seq, int64(n), jobKey{})
	a.lp.t.setN(i, int32(len(ops)))
	defer a.lp.end(i)
	return a.inner.ExecuteBlock(seq, ops)
}

func (a tracedApp) Digest() []byte { return a.inner.Digest() }

func (a tracedApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	i := a.lp.begin(kProve, famOther, seq, 0, jobKey{})
	defer a.lp.end(i)
	return a.inner.ProveOperation(seq, l)
}

func (a tracedApp) Snapshot() ([]byte, error)         { return a.inner.Snapshot() }
func (a tracedApp) Restore(b []byte) error            { return a.inner.Restore(b) }
func (a tracedApp) GarbageCollect(keepFrom uint64)    { a.inner.GarbageCollect(keepFrom) }
func (a tracedApp) ReadKey(op []byte) (string, error) { return a.inner.ReadKey(op) }
func (a tracedApp) TxStats() (p, c, ab uint64)        { return a.inner.TxStats() }

func (a tracedApp) SnapshotChunks() ([][]byte, bool, error) {
	i := a.lp.begin(kSnapshot, famOther, 0, 0, jobKey{})
	defer a.lp.end(i)
	return a.inner.SnapshotChunks()
}

// ---------------------------------------------------------------------------
// storage

// tracedStore wraps the block store, forwarding core.SnapshotStore so
// checkpoints still persist their certified snapshots.
type tracedStore struct {
	inner *storage.Ledger
	lp    *loop
}

var _ core.SnapshotStore = tracedStore{}

func (s tracedStore) Append(seq uint64, payload []byte) error {
	i := s.lp.begin(kAppend, famOther, seq, int64(len(payload)), jobKey{})
	defer s.lp.end(i)
	return s.inner.Append(seq, payload)
}

func (s tracedStore) SaveSnapshot(seq uint64, data []byte) error {
	i := s.lp.begin(kSnapSave, famOther, seq, int64(len(data)), jobKey{})
	defer s.lp.end(i)
	return s.inner.SaveSnapshot(seq, data)
}

func (s tracedStore) LoadSnapshot(seq uint64) ([]byte, error) { return s.inner.LoadSnapshot(seq) }
func (s tracedStore) LatestSnapshot() (uint64, error)         { return s.inner.LatestSnapshot() }
func (s tracedStore) PruneSnapshots(keepFrom uint64) error    { return s.inner.PruneSnapshots(keepFrom) }

// ---------------------------------------------------------------------------
// crypto

// batchVerifier is the optional RLC batch check core.VerifyJobShares
// type-asserts on a scheme.
type batchVerifier interface {
	BatchVerifyShares(digest []byte, shares []threshsig.Share) error
}

type tracedScheme struct {
	inner  threshsig.Scheme
	sp     spanner
	scheme uint8
}

func (s tracedScheme) Threshold() int { return s.inner.Threshold() }
func (s tracedScheme) N() int         { return s.inner.N() }

func (s tracedScheme) VerifyShare(digest []byte, share threshsig.Share) error {
	i := s.sp.begin(kVerifyShare, famOther, 0, 1, keyOf(digest, s.scheme, false))
	defer s.sp.end(i)
	return s.inner.VerifyShare(digest, share)
}

func (s tracedScheme) Combine(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	i := s.sp.begin(kCombine, famOther, 0, int64(len(shares)), keyOf(digest, s.scheme, true))
	defer s.sp.end(i)
	return s.inner.Combine(digest, shares)
}

func (s tracedScheme) CombineVerified(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	i := s.sp.begin(kCombine, famOther, 0, int64(len(shares)), keyOf(digest, s.scheme, true))
	defer s.sp.end(i)
	return s.inner.CombineVerified(digest, shares)
}

func (s tracedScheme) Verify(digest []byte, sig threshsig.Signature) error {
	i := s.sp.begin(kVerify, famOther, 0, 0, jobKey{})
	defer s.sp.end(i)
	return s.inner.Verify(digest, sig)
}

// tracedBatchScheme is tracedScheme over a scheme with the batch check;
// the wrapper offers it exactly when the wrapped scheme does.
type tracedBatchScheme struct{ tracedScheme }

var _ batchVerifier = tracedBatchScheme{}

func (s tracedBatchScheme) BatchVerifyShares(digest []byte, shares []threshsig.Share) error {
	i := s.sp.begin(kBatchVerify, famOther, 0, int64(len(shares)), keyOf(digest, s.scheme, false))
	defer s.sp.end(i)
	return s.inner.(batchVerifier).BatchVerifyShares(digest, shares)
}

func traceScheme(inner threshsig.Scheme, sp spanner, kind core.ShareKind) threshsig.Scheme {
	ts := tracedScheme{inner: inner, sp: sp, scheme: uint8(kind)}
	if _, ok := inner.(batchVerifier); ok {
		return tracedBatchScheme{ts}
	}
	return ts
}

func traceSuite(s core.CryptoSuite, sp spanner) core.CryptoSuite {
	return core.CryptoSuite{
		Sigma: traceScheme(s.Sigma, sp, core.ShareSigma),
		Tau:   traceScheme(s.Tau, sp, core.ShareTau),
		Pi:    traceScheme(s.Pi, sp, core.SharePi),
	}
}

type tracedSigner struct {
	inner threshsig.Signer
	lp    *loop
}

func (s tracedSigner) ID() int { return s.inner.ID() }

func (s tracedSigner) Sign(digest []byte) (threshsig.Share, error) {
	i := s.lp.begin(kSign, famOther, 0, 0, jobKey{})
	defer s.lp.end(i)
	return s.inner.Sign(digest)
}

func traceKeys(k core.ReplicaKeys, lp *loop) core.ReplicaKeys {
	return core.ReplicaKeys{
		Sigma: tracedSigner{k.Sigma, lp},
		Tau:   tracedSigner{k.Tau, lp},
		Pi:    tracedSigner{k.Pi, lp},
	}
}

// ---------------------------------------------------------------------------
// cryptopool

// tracedSink wraps a replica's core.CryptoSink. Each call opens a job span
// that lasts until done runs on the loop; the pool workers' crypto spans
// become its children, so the job's self time is the time it waited.
type tracedSink struct {
	inner core.CryptoSink
	lp    *loop
}

func (s tracedSink) submit(keys []jobKey, shares int, call func(onDone func())) {
	t := s.lp.t
	job := t.add(span{start: t.now(), aux: int64(shares), parent: -1, node: s.lp.node, kind: kSinkJob})
	t.mu.Lock()
	for _, k := range keys {
		t.jobs[k] = job
	}
	t.mu.Unlock()
	returned := false
	c := s.lp.begin(kSinkCall, famOther, 0, 0, jobKey{})
	call(func() {
		if !returned {
			t.setAux(c, 1) // done ran inside the call: the inline fallback
		}
		t.mu.Lock()
		for _, k := range keys {
			if t.jobs[k] == job {
				delete(t.jobs, k)
			}
		}
		t.mu.Unlock()
		t.finish(job, t.now())
	})
	returned = true
	s.lp.end(c)
}

func (s tracedSink) VerifyShares(jobs []core.VerifyJob, done func(ok [][]threshsig.Share)) {
	keys := make([]jobKey, len(jobs))
	shares := 0
	for i, j := range jobs {
		keys[i] = keyOf(j.Digest, uint8(j.Kind), false)
		shares += len(j.Shares)
	}
	s.submit(keys, shares, func(onDone func()) {
		s.inner.VerifyShares(jobs, func(ok [][]threshsig.Share) {
			onDone()
			done(ok)
		})
	})
}

func (s tracedSink) Combine(kind core.ShareKind, digest []byte, shares []threshsig.Share, done func(threshsig.Signature, error)) {
	s.submit([]jobKey{keyOf(digest, uint8(kind), true)}, len(shares), func(onDone func()) {
		s.inner.Combine(kind, digest, shares, func(sig threshsig.Signature, err error) {
			onDone()
			done(sig, err)
		})
	})
}

// ---------------------------------------------------------------------------
// client

func traceVerifier(inner core.ProofVerifier, lp *loop) core.ProofVerifier {
	return func(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
		i := lp.begin(kProofVerify, famOther, seq, 0, jobKey{})
		defer lp.end(i)
		return inner(digest, op, val, seq, l, proof)
	}
}
