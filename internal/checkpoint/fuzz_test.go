package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"datacron/internal/wire"
	"datacron/internal/wire/wiretest"
)

// TestDecodeAliasesOperatorBlobs: operator blobs are views of the loaded
// bytes, not copies — a restore pays for the frame once.
func TestDecodeAliasesOperatorBlobs(t *testing.T) {
	data, err := Encode(&Checkpoint{Generation: 1, Operators: map[string][]byte{"op": []byte("state")}})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("state"))
	data[i] = 'S'
	if got := string(cp.Operators["op"]); got != "State" {
		t.Fatalf("blob = %q after writing into the loaded bytes, want a view of them", got)
	}
}

func TestEncodeSizesFrameExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		data, err := Encode(genCheckpoint(rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cap(data) {
			t.Fatalf("frame of %d bytes in a %d-byte buffer", len(data), cap(data))
		}
	}
}

func FuzzCheckpointDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data, err := Encode(genCheckpoint(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("DCKP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp *Checkpoint
		var err error
		wiretest.CheckAllocs(t, len(data), func() { cp, err = Decode(data) })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// A frame that decodes re-encodes canonically: the canonical bytes
		// decode again and encode to themselves.
		canon, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(append([]byte(nil), canon...))
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !equivalent(cp, again) {
			t.Fatal("canonical re-encoding decodes to another checkpoint")
		}
		if twice, _ := Encode(again); !bytes.Equal(canon, twice) {
			t.Fatal("canonical encoding is not stable")
		}
	})
}

// restoredMeta adapts the shard meta operator to the restore contract: its
// state is the restored epoch, which Snapshot then writes back out.
type restoredMeta struct{ s *ShardSnapshots }

func (m restoredMeta) Snapshot() ([]byte, error) {
	view := *m.s
	view.epoch, view.states = m.s.restoredEpoch, []map[string][]byte{}
	return metaOp{&view}.Snapshot()
}

func (m restoredMeta) Restore(b []byte) error { return metaOp{m.s}.Restore(b) }

func TestShardMetaRestore(t *testing.T) {
	s := NewShardSnapshots(2, nil)
	if err := s.SetEpoch(7, make([]map[string][]byte, 2)); err != nil {
		t.Fatal(err)
	}
	blob, err := metaOp{s}.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{wire.TagShardMeta, wire.Version, 2, 7}; !bytes.Equal(blob, want) {
		t.Fatalf("meta blob = %x, want %x", blob, want)
	}
	cases := map[string]struct {
		blob    []byte
		wantErr string
	}{
		"JSON from before":  {[]byte(`{"shards":2,"epoch":7}`), "checkpoint: restore shard meta: wire: not a binary snapshot of this operator: first byte 0x7b '{'"},
		"other shard count": {[]byte{wire.TagShardMeta, wire.Version, 3, 7}, "taken with 3 shards"},
		"truncated":         {blob[:3], "malformed"},
		"trailing bytes":    {append(append([]byte(nil), blob...), 0), "malformed"},
	}
	for name, c := range cases {
		r := NewShardSnapshots(2, nil)
		err := metaOp{r}.Restore(c.blob)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.wantErr)
		}
		if r.RestoredEpoch() != 0 {
			t.Errorf("%s: a rejected restore set epoch %d", name, r.RestoredEpoch())
		}
	}
	r := NewShardSnapshots(2, nil)
	if err := (metaOp{r}).Restore(blob); err != nil || r.RestoredEpoch() != 7 {
		t.Fatalf("restore: epoch %d, err %v; want 7, nil", r.RestoredEpoch(), err)
	}
}

func FuzzShardMetaRestore(f *testing.F) {
	f.Add([]byte{wire.TagShardMeta, wire.Version, 2, 7})
	f.Add([]byte{wire.TagShardMeta, wire.Version, 2, 0xFF, 0xFF, 0x03})
	f.Add([]byte(`{"shards":2,"epoch":7}`))
	fresh := func() wiretest.Operator { return restoredMeta{NewShardSnapshots(2, nil)} }
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.CheckRestore(t, restoredMeta{NewShardSnapshots(2, nil)}, fresh, data)
	})
}
