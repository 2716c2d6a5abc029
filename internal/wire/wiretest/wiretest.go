// Package wiretest holds the contract every operator Restore fuzzer checks:
// a restore never panics, never allocates more than a small multiple of its
// input, leaves the operator unchanged when it fails, and when it succeeds
// yields a state whose snapshot is canonical — written into a buffer sized
// exactly, stable across captures, and restorable into a fresh operator with
// the same bytes coming back out. Record codecs (CheckCodec) are held to the
// same contract, with nothing to leave unchanged.
package wiretest

import (
	"bytes"
	"runtime"
	"testing"
)

// Operator is the checkpoint.Snapshotter contract, restated so that the
// checkpoint package's own tests can use this package.
type Operator interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// A restore of n bytes may allocate at most AllocPerByte×n + AllocSlack
// bytes. Decoded state is larger than its encoding — a few-byte map entry
// becomes a struct, a map slot and a string — but only by a constant
// factor; a length or count prefix that sized an allocation beyond the
// bytes behind it would break the bound by orders of magnitude.
const (
	AllocPerByte = 64
	AllocSlack   = 64 << 10
)

// CheckRestore restores data into op and checks the contract. fresh builds
// an empty operator configured like op.
func CheckRestore(t testing.TB, op Operator, fresh func() Operator, data []byte) {
	t.Helper()
	before := snapshot(t, op)
	var err error
	CheckAllocs(t, len(data), func() { err = op.Restore(data) })
	after := snapshot(t, op)
	if err != nil {
		if !bytes.Equal(before, after) {
			t.Fatalf("a rejected restore (%v) changed the operator", err)
		}
		return
	}
	if len(after) != cap(after) {
		t.Fatalf("Snapshot wrote %d bytes into a %d-byte buffer; it sizes its buffer once, exactly", len(after), cap(after))
	}
	if again := snapshot(t, op); !bytes.Equal(after, again) {
		t.Fatalf("two snapshots of one state differ:\n%x\n%x", after, again)
	}
	other := fresh()
	if err := other.Restore(after); err != nil {
		t.Fatalf("the snapshot of a restored state does not restore: %v", err)
	}
	if got := snapshot(t, other); !bytes.Equal(got, after) {
		t.Fatalf("re-restored state snapshots differently:\n%x\n%x", after, got)
	}
}

// CheckCodec decodes a record of n bytes and checks the contract for a
// record codec: the decode never panics and allocates within the same bound
// as a restore, and when it succeeds the re-encoding of what it decoded is
// canonical — written into a buffer sized exactly, and decoding to itself
// again byte for byte. reencode decodes its input and returns the
// re-encoding, or the decode error.
func CheckCodec(t testing.TB, data []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	var enc []byte
	var err error
	CheckAllocs(t, len(data), func() { enc, err = reencode(data) })
	if err != nil {
		return
	}
	if len(enc) != cap(enc) {
		t.Fatalf("re-encoding wrote %d bytes into a %d-byte buffer; it sizes its buffer once, exactly", len(enc), cap(enc))
	}
	again, err := reencode(enc)
	if err != nil {
		t.Fatalf("the re-encoding of a decoded record does not decode: %v", err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not canonical:\n%x\n%x", enc, again)
	}
}

// CheckAllocs runs decode, which reads an input of n bytes, and fails t
// when it allocates more than AllocPerByte×n + AllocSlack bytes.
func CheckAllocs(t testing.TB, n int, decode func()) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decode()
	runtime.ReadMemStats(&m1)
	if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(AllocPerByte*n+AllocSlack); alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, over the %d-byte bound", n, alloc, limit)
	}
}

func snapshot(t testing.TB, op Operator) []byte {
	t.Helper()
	b, err := op.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return b
}
