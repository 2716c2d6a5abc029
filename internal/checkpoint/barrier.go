package checkpoint

import (
	"fmt"

	"datacron/internal/wire"
)

// ShardSnapshots bridges a coordinated shard barrier into a Checkpointer.
//
// The sharded pipeline cannot hand the Checkpointer live operator handles:
// worker state is only consistent at a barrier, when every shard has
// processed exactly the records submitted before the epoch marker and none
// after. So the coordinator runs plane.Barrier immediately before Capture,
// stages the collected per-shard blobs here with SetEpoch, and the
// Checkpointer snapshots them through per-shard adapter operators named
// "shard/<i>/<op>". A "shard/meta" operator pins the shard count and
// barrier epoch: restoring a checkpoint into a pipeline configured with a
// different shard count fails with a clear error instead of silently
// misrouting per-trajectory state.
//
// On Restore the adapters stage the checkpointed blobs back here, for a
// coordinator to apply to its (not yet started) workers with Restored — or,
// after OnRestore, hand each blob to the workers as they are restored.
type ShardSnapshots struct {
	shards int
	ops    []string

	epoch  uint64
	states []map[string][]byte // staged by SetEpoch for the next Capture

	restoredEpoch uint64
	restored      []map[string][]byte // staged by adapter Restore calls
	apply         func(shard int, op string, blob []byte) error
}

// NewShardSnapshots prepares a bridge for the given shard count and the
// exact set of per-shard operator names every worker snapshot must contain.
func NewShardSnapshots(shards int, ops []string) *ShardSnapshots {
	return &ShardSnapshots{
		shards:   shards,
		ops:      append([]string(nil), ops...),
		restored: make([]map[string][]byte, shards),
	}
}

// Register binds the meta operator and one adapter per (shard, op) pair to
// the Checkpointer. The meta operator registers first so a shard-count
// mismatch surfaces before any per-shard state is touched on restore.
func (s *ShardSnapshots) Register(c *Checkpointer) {
	c.Register("shard/meta", metaOp{s})
	for i := 0; i < s.shards; i++ {
		for _, op := range s.ops {
			//lint:ignore hotalloc wiring-time: runs once per (shard, op) pair at pipeline construction, not per record
			c.Register(fmt.Sprintf("shard/%d/%s", i, op), shardOp{s: s, shard: i, op: op})
		}
	}
}

// SetEpoch stages the blobs collected by a barrier at the given epoch, one
// map per shard, for the next Capture.
func (s *ShardSnapshots) SetEpoch(epoch uint64, states []map[string][]byte) error {
	if len(states) != s.shards {
		return fmt.Errorf("checkpoint: barrier returned %d shard states, want %d", len(states), s.shards)
	}
	s.epoch = epoch
	s.states = states
	return nil
}

// Restored returns the blobs staged for one shard by the last Restore, or
// nil when no checkpoint was restored. The coordinator applies these to
// workers before starting the plane.
func (s *ShardSnapshots) Restored(shard int) map[string][]byte {
	return s.restored[shard]
}

// OnRestore makes every adapter hand its blob to apply as the Checkpointer
// restores it: in the operator phase, before the broker's offsets and
// outputs move, so a blob a worker rejects fails the restore with the
// broker as it was. apply must leave its shard as it was when it fails.
func (s *ShardSnapshots) OnRestore(apply func(shard int, op string, blob []byte) error) {
	s.apply = apply
}

// RestoredEpoch returns the barrier epoch recorded in the restored
// checkpoint's meta entry (0 when nothing was restored).
func (s *ShardSnapshots) RestoredEpoch() uint64 { return s.restoredEpoch }

// metaOp is the "shard/meta" operator. Its blob is
//
//	tag 0xC1 | version | uvarint shards | uvarint epoch
type metaOp struct{ s *ShardSnapshots }

func (m metaOp) Snapshot() ([]byte, error) {
	if m.s.states == nil {
		return nil, fmt.Errorf("checkpoint: capture without a preceding shard barrier")
	}
	shards := uint64(m.s.shards)
	buf := make([]byte, 0, wire.HeaderLen+wire.UvarintLen(shards)+wire.UvarintLen(m.s.epoch))
	buf = wire.AppendHeader(buf, wire.TagShardMeta)
	buf = wire.AppendUvarint(buf, shards)
	return wire.AppendUvarint(buf, m.s.epoch), nil
}

func (m metaOp) Restore(blob []byte) error {
	r := wire.NewReader(blob)
	if err := r.Header(wire.TagShardMeta); err != nil {
		return fmt.Errorf("checkpoint: restore shard meta: %w", err)
	}
	shards, epoch := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("checkpoint: restore shard meta: %w", err)
	}
	if shards != uint64(m.s.shards) {
		return fmt.Errorf("checkpoint: taken with %d shards, pipeline configured with %d — shard count must match to restore per-trajectory state", shards, m.s.shards)
	}
	m.s.restoredEpoch = epoch
	return nil
}

type shardOp struct {
	s     *ShardSnapshots
	shard int
	op    string
}

func (o shardOp) Snapshot() ([]byte, error) {
	if o.s.states == nil {
		return nil, fmt.Errorf("checkpoint: capture without a preceding shard barrier")
	}
	blob, ok := o.s.states[o.shard][o.op]
	if !ok {
		return nil, fmt.Errorf("checkpoint: shard %d barrier snapshot missing operator %q", o.shard, o.op)
	}
	return blob, nil
}

func (o shardOp) Restore(blob []byte) error {
	if o.s.restored[o.shard] == nil {
		o.s.restored[o.shard] = make(map[string][]byte, len(o.s.ops))
	}
	o.s.restored[o.shard][o.op] = blob
	if o.s.apply != nil {
		return o.s.apply(o.shard, o.op, blob)
	}
	return nil
}
