package faultinject

import (
	"bytes"
	"errors"
	"testing"

	"datacron/internal/checkpoint"
)

func TestKillScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		inj := New(Config{Seed: 7, KillMin: 10, KillMax: 30})
		var killsAt []int64
		for i := int64(1); i <= 200; i++ {
			if err := inj.BeforeRecord(); err != nil {
				if !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("unexpected error: %v", err)
				}
				killsAt = append(killsAt, i)
			}
		}
		return killsAt
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no kills fired in 200 records")
	}
	if len(a) != len(b) {
		t.Fatalf("kill counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kill schedule not deterministic: %v vs %v", a, b)
		}
	}
	// Kills spaced within [KillMin, KillMax] of each other.
	prev := int64(0)
	for _, at := range a {
		gap := at - prev
		if gap < 10 || gap > 30 {
			t.Errorf("kill gap %d outside [10,30]: schedule %v", gap, a)
		}
		prev = at
	}
}

// TestCrashWithinPredictsBeforeRecord: CrashWithin(n) is true exactly when
// one of the next n BeforeRecord calls crashes, and asking it never moves
// the seeded schedule.
func TestCrashWithinPredictsBeforeRecord(t *testing.T) {
	asked := New(Config{Seed: 7, KillMin: 10, KillMax: 30, DropProb: 0.5})
	plain := New(Config{Seed: 7, KillMin: 10, KillMax: 30, DropProb: 0.5})
	for i := 0; i < 200; i++ {
		next := 0 // calls until the next crash, counting the crashing one
		for n := 1; n <= 40; n++ {
			if asked.CrashWithin(n) {
				next = n
				break
			}
		}
		if next == 0 || asked.CrashWithin(next-1) {
			t.Fatalf("record %d: CrashWithin is not monotone with a first crash at %d", i, next)
		}
		crashA, crashP := asked.BeforeRecord() != nil, plain.BeforeRecord() != nil
		if crashA != crashP || crashA != (next == 1) {
			t.Fatalf("record %d: crash %t (asked) %t (plain), CrashWithin predicted one in %d", i, crashA, crashP, next)
		}
		if asked.DropBatch() != plain.DropBatch() {
			t.Fatalf("record %d: CrashWithin moved the drop schedule", i)
		}
	}
	if off := New(Config{Seed: 1}); off.CrashWithin(1 << 30) {
		t.Fatal("CrashWithin true with crashes disabled")
	}
}

func TestKillDisabled(t *testing.T) {
	inj := New(Config{Seed: 1})
	for i := 0; i < 1000; i++ {
		if err := inj.BeforeRecord(); err != nil {
			t.Fatalf("kill fired with KillMax=0: %v", err)
		}
	}
	if inj.Kills() != 0 {
		t.Fatalf("Kills() = %d", inj.Kills())
	}
}

func TestDropAndDelayProbabilities(t *testing.T) {
	inj := New(Config{Seed: 3, DropProb: 0.5})
	drops := 0
	for i := 0; i < 1000; i++ {
		if inj.DropBatch() {
			drops++
		}
	}
	if drops < 350 || drops > 650 {
		t.Errorf("drops = %d, want ~500", drops)
	}
	if inj.Drops() != drops {
		t.Errorf("Drops() = %d, want %d", inj.Drops(), drops)
	}

	off := New(Config{Seed: 3})
	if off.DropBatch() {
		t.Error("zero-config injector dropped a batch")
	}
}

func TestCorruptBytes(t *testing.T) {
	inj := New(Config{Seed: 11})
	data := []byte("checkpoint payload")
	orig := append([]byte(nil), data...)
	inj.CorruptBytes(data)
	if bytes.Equal(data, orig) {
		t.Fatal("CorruptBytes changed nothing")
	}
	diff := 0
	for i := range data {
		if data[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("CorruptBytes flipped %d bytes, want 1", diff)
	}
	inj.CorruptBytes(nil) // must not panic
}

func TestCorruptStore(t *testing.T) {
	store := checkpoint.NewMemStore()
	inj := New(Config{Seed: 5})
	if err := inj.Corrupt(store); err == nil {
		t.Fatal("corrupting an empty store succeeded")
	}

	cp := &checkpoint.Checkpoint{Generation: 1, Operators: map[string][]byte{"op": []byte("state")}}
	data, err := checkpoint.Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(1, data); err != nil {
		t.Fatal(err)
	}
	if err := inj.Corrupt(store); err != nil {
		t.Fatal(err)
	}
	damaged, err := store.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Decode(damaged); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("decode of corrupted checkpoint: %v, want ErrCorrupt", err)
	}
}

func TestSwappedKillBounds(t *testing.T) {
	inj := New(Config{Seed: 2, KillMin: 30, KillMax: 10}) // swapped: normalized
	fired := false
	for i := 0; i < 100; i++ {
		if err := inj.BeforeRecord(); err != nil {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no kill fired with swapped bounds")
	}
}
