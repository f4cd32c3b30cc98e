// Package apps adapts the authenticated key-value store and the EVM smart
// contract ledger to the replication engine's Application interface, and
// provides the matching client-side proof verifiers (§IV layering: generic
// service → authenticated KV store → smart contract engine).
package apps

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sbft/internal/core"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
)

// KVApp adapts kvstore.Store to core.Application.
type KVApp struct {
	Store *kvstore.Store
}

// NewKVApp returns an adapter over a fresh store.
func NewKVApp() *KVApp { return &KVApp{Store: kvstore.New()} }

var _ core.Application = (*KVApp)(nil)

// ExecuteBlock implements core.Application.
func (a *KVApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	return a.Store.ExecuteBlock(seq, ops)
}

// Digest implements core.Application.
func (a *KVApp) Digest() []byte { return a.Store.Digest() }

// ProveOperation implements core.Application, gob-encoding the Merkle
// proof for transport.
func (a *KVApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	p, err := a.Store.ProveOperation(seq, l)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("apps: encoding kv proof: %w", err)
	}
	return buf.Bytes(), nil
}

// Snapshot returns the store's concatenated capture: the blob Restore
// accepts.
func (a *KVApp) Snapshot() ([]byte, error) { return a.Store.Snapshot() }

// SnapshotChunks implements core.Application, forwarding the store's
// incremental bucketed capture.
func (a *KVApp) SnapshotChunks() ([][]byte, bool, error) { return a.Store.SnapshotChunks() }

// ReadKey implements core.KeyReader: the op→key mapping of the certified
// read path.
func (a *KVApp) ReadKey(op []byte) (string, error) { return kvstore.ReadKey(op) }

// TxStats implements core.TwoPhaser, forwarding the store's cumulative
// cross-shard 2PC counters.
func (a *KVApp) TxStats() (prepares, commits, aborts uint64) { return a.Store.TxStats() }

// Restore implements core.Application.
func (a *KVApp) Restore(data []byte) error { return a.Store.Restore(data) }

// GarbageCollect implements core.Application.
func (a *KVApp) GarbageCollect(keepFrom uint64) { a.Store.GarbageCollect(keepFrom) }

// VerifyKV is the core.ProofVerifier for key-value clients.
func VerifyKV(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
	var p kvstore.Proof
	if err := gob.NewDecoder(bytes.NewReader(proof)).Decode(&p); err != nil {
		return fmt.Errorf("apps: decoding kv proof: %w", err)
	}
	return kvstore.Verify(digest, op, val, seq, l, p)
}

// EVMApp adapts evm.Ledger to core.Application.
type EVMApp struct {
	Ledger *evm.Ledger
}

// NewEVMApp returns an adapter over a fresh ledger.
func NewEVMApp() *EVMApp { return &EVMApp{Ledger: evm.NewLedger()} }

var _ core.Application = (*EVMApp)(nil)

// ExecuteBlock implements core.Application.
func (a *EVMApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	return a.Ledger.ExecuteBlock(seq, ops)
}

// Digest implements core.Application.
func (a *EVMApp) Digest() []byte { return a.Ledger.Digest() }

// ProveOperation implements core.Application.
func (a *EVMApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	p, err := a.Ledger.ProveOperation(seq, l)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("apps: encoding evm proof: %w", err)
	}
	return buf.Bytes(), nil
}

// SnapshotChunks implements core.Application, forwarding the ledger's
// incremental bucketed capture.
func (a *EVMApp) SnapshotChunks() ([][]byte, bool, error) { return a.Ledger.SnapshotChunks() }

// ReadKey implements core.KeyReader: the op→key mapping of the certified
// read path (balance queries).
func (a *EVMApp) ReadKey(op []byte) (string, error) { return evm.ReadKey(op) }

// Restore implements core.Application.
func (a *EVMApp) Restore(data []byte) error { return a.Ledger.Restore(data) }

// GarbageCollect implements core.Application.
func (a *EVMApp) GarbageCollect(keepFrom uint64) { a.Ledger.GarbageCollect(keepFrom) }

// VerifyEVM is the core.ProofVerifier for smart-contract clients.
func VerifyEVM(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
	var p evm.Proof
	if err := gob.NewDecoder(bytes.NewReader(proof)).Decode(&p); err != nil {
		return fmt.Errorf("apps: decoding evm proof: %w", err)
	}
	return evm.Verify(digest, op, val, seq, l, p)
}
