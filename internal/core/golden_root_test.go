package core

import (
	"encoding/hex"
	"fmt"
	"testing"

	"sbft/internal/evm"
	"sbft/internal/kvstore"
)

// Golden checkpoint roots: a fixed kvstore history and a fixed EVM
// history, each captured through Replica.buildSnapshot with a fixed
// reply table. The hex values pin the certified root byte for byte, so a
// change to the snapshot encoding, the chunk layout or the header leaf
// that would split checkpoint agreement with existing replicas (or
// invalidate their stored snapshots) fails here.

// evmApp adapts evm.Ledger to Application (proofs are irrelevant here).
type evmApp struct{ *evm.Ledger }

func (a evmApp) ProveOperation(uint64, int) ([]byte, error) { return nil, nil }

func goldenRoot(t *testing.T, app Application, seq uint64) string {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "golden-root")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(1, cfg, suite, keys[0], app, &fakeEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.replyCache = map[int]replyCacheEntry{
		7:  {timestamp: 3, seq: seq - 1, l: 0, val: []byte("ok")},
		12: {timestamp: 9, seq: seq, l: 1, val: nil},
	}
	cs, err := r.buildSnapshot(seq, app.Digest())
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(cs.Root())
}

func TestCheckpointRootsGolden(t *testing.T) {
	t.Run("kvstore", func(t *testing.T) {
		store := kvstore.New()
		for seq := uint64(1); seq <= 40; seq++ {
			store.ExecuteBlock(seq, [][]byte{
				kvstore.Put(fmt.Sprintf("key-%03d", seq), []byte(fmt.Sprintf("val-%d", seq*seq))),
				kvstore.Put(fmt.Sprintf("key-%03d", seq*7%50), []byte("rewritten")),
			})
		}
		store.ExecuteBlock(41, [][]byte{kvstore.Delete("key-003"), kvstore.Get("key-004")})
		const want = "823e5b62d77ea1aeea92c0e39d9079ca348862beafdee7d6912c309075d9b912"
		if got := goldenRoot(t, kvApp{store}, 41); got != want {
			t.Fatalf("kvstore checkpoint root = %s, want %s", got, want)
		}
	})
	t.Run("evm", func(t *testing.T) {
		var deployer, alice, bob evm.Address
		deployer[evm.AddressSize-1] = 0xD0
		alice[evm.AddressSize-1] = 0xA1
		bob[evm.AddressSize-1] = 0xB2
		l := evm.NewLedger()
		l.Mint(deployer, 1_000_000)
		token := evm.ContractAddress(deployer, 0)
		call := func(from evm.Address, method uint64, to evm.Address, amount uint64) []byte {
			return evm.Tx{Kind: evm.TxCall, From: from, To: token, GasLimit: 1_000_000,
				Data: evm.TokenCalldata(method, to, amount)}.Encode()
		}
		blocks := [][][]byte{
			{evm.Tx{Kind: evm.TxCreate, From: deployer, GasLimit: 1_000_000, Data: evm.TokenDeploy()}.Encode()},
			{call(deployer, evm.TokenMint, alice, 500), call(deployer, evm.TokenMint, bob, 20)},
			{call(alice, evm.TokenTransfer, bob, 120)},
			// A failing call: its journal rollback must leave no trace.
			{evm.Tx{Kind: evm.TxCall, From: deployer, To: token, Value: 5, GasLimit: 1_000_000,
				Data: []byte{0xDE, 0xAD}}.Encode()},
		}
		for i, blk := range blocks {
			l.ExecuteBlock(uint64(i+1), blk)
		}
		const want = "c7b290b7d3d24fc0753b1659b922050960c3966bb83216f8f67d1b61fe15dc64"
		if got := goldenRoot(t, evmApp{l}, uint64(len(blocks))); got != want {
			t.Fatalf("evm checkpoint root = %s, want %s", got, want)
		}
	})
}
