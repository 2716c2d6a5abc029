package cer

import (
	"fmt"

	"datacron/internal/wire"
)

// Snapshot layout (wire package encoding):
//
//	tag 0xC7 | version | varint state | varint pos | uvarint #ctx |
//	string symbol...
//
// The compiled DFA and PMC are functions of the pattern and model
// configuration, which the restoring pipeline rebuilds identically, so only
// the runtime cursor is captured.

// Snapshot serializes the engine's runtime state (checkpoint.Snapshotter).
func (f *Forecaster) Snapshot() ([]byte, error) {
	size := wire.HeaderLen + wire.VarintLen(int64(f.state)) + wire.VarintLen(int64(f.pos)) +
		wire.UvarintLen(uint64(len(f.ctx)))
	for _, s := range f.ctx {
		size += wire.StringLen(s)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendHeader(buf, wire.TagCER)
	buf = wire.AppendVarint(buf, int64(f.state))
	buf = wire.AppendVarint(buf, int64(f.pos))
	buf = wire.AppendUvarint(buf, uint64(len(f.ctx)))
	for _, s := range f.ctx {
		buf = wire.AppendString(buf, s)
	}
	return buf, nil
}

// Restore replaces the engine's runtime state with a snapshot taken by
// Snapshot against an identically configured Forecaster. It rejects state
// Process cannot produce — a DFA state out of range, a context longer than
// the model order or holding a symbol outside the alphabet, a position below
// the context length — and on error leaves the engine as it was.
func (f *Forecaster) Restore(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(wire.TagCER); err != nil {
		return fmt.Errorf("cer: restore: %w", err)
	}
	state, pos := r.Int(), r.Int()
	ctx := make([]string, r.Count(1))
	for i := range ctx {
		sym := r.Bytes()
		if r.Failed() {
			break
		}
		j, ok := f.dfa.symIdx[string(sym)]
		if !ok {
			return errSymbol(sym)
		}
		ctx[i] = f.dfa.Alphabet[j] // the alphabet's own string, not a copy
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("cer: restore: %w", err)
	}
	switch {
	case state < 0 || state >= len(f.dfa.Delta):
		return fmt.Errorf("cer: restore: state %d out of range for %d-state DFA", state, len(f.dfa.Delta))
	case len(ctx) > f.pmc.model.Order():
		return fmt.Errorf("cer: restore: context of %d symbols exceeds model order %d", len(ctx), f.pmc.model.Order())
	case pos < len(ctx):
		return fmt.Errorf("cer: restore: position %d below context length %d", pos, len(ctx))
	}
	if len(ctx) == 0 {
		ctx = nil
	}
	f.state, f.ctx, f.pos = state, ctx, pos
	return nil
}

func errSymbol(sym []byte) error {
	return fmt.Errorf("cer: restore: context symbol %q not in the alphabet", sym)
}
