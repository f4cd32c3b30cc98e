package snapcodec

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// encode captures a tracker loaded with m as one assembled blob.
func encode(lastSeq uint64, digest []byte, m map[string][]byte) []byte {
	tr := NewTracker(4)
	for k, v := range m {
		tr.Set(k, v)
	}
	chunks, _ := tr.EncodeChunks(lastSeq, digest)
	return concat(chunks)
}

func TestRoundTrip(t *testing.T) {
	got, _, err := DecodeBucketed(encode(42, []byte{1, 2, 3}, map[string][]byte{
		"b":     []byte("vb"),
		"a":     []byte("va"),
		"empty": nil,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 42 || !bytes.Equal(got.Digest, []byte{1, 2, 3}) {
		t.Fatalf("header mismatch: %+v", got)
	}
	m := got.ToMap()
	if len(m) != 3 {
		t.Fatalf("entries = %d, want 3", len(m))
	}
	if !bytes.Equal(m["a"], []byte("va")) || !bytes.Equal(m["b"], []byte("vb")) || m["empty"] != nil {
		t.Fatalf("values mismatch: %v", m)
	}
	if _, ok := m["empty"]; !ok {
		t.Fatal("empty-valued key lost")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	valid := encode(1, nil, nil)
	for _, data := range [][]byte{
		nil,
		[]byte("nope"),
		[]byte(bucketMagic), // truncated after magic
		append(valid[:len(valid):len(valid)], 0xFF), // trailing byte
	} {
		if _, _, err := DecodeBucketed(data); err == nil {
			t.Fatalf("garbage accepted: %q", data)
		}
	}
}

// TestEncodingIndependentOfGobHistory pins the reason this package
// exists: gob wire bytes embed type ids from a PROCESS-GLOBAL counter,
// so encoding some unrelated type first changes later gob output — which
// broke checkpoint-root agreement between live replicas whose processes
// had different gob histories (the primary encodes different transport
// message types than a backup). The canonical codec must not care.
func TestEncodingIndependentOfGobHistory(t *testing.T) {
	m := map[string][]byte{"k": []byte("v")}
	before := encode(7, []byte{9}, m)

	// Pollute the process-global gob registry mid-test.
	type pollutant struct{ A, B, C string }
	var sink bytes.Buffer
	if err := gob.NewEncoder(&sink).Encode(pollutant{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}

	if after := encode(7, []byte{9}, m); !bytes.Equal(before, after) {
		t.Fatal("canonical encoding changed after unrelated gob activity")
	}
}
