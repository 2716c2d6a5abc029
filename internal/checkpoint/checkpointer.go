package checkpoint

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"datacron/internal/msg"
	"datacron/internal/obs"
)

// Checkpointer captures and restores consistent pipeline checkpoints. A
// pipeline registers its source consumer groups, output topics, and stateful
// operators, then calls Capture at record boundaries; recovery calls Restore
// before re-creating consumers.
//
// Checkpointer methods are not safe for concurrent use; the pipeline calls
// them from its processing goroutine only.
type Checkpointer struct {
	store   Store
	keep    int
	nextGen uint64

	sources []sourceRef
	outputs []string
	names   []string // registration order, for deterministic iteration
	ops     map[string]Snapshotter

	captures int
	m        *cpMetrics // nil when uninstrumented
	log      *slog.Logger
}

type sourceRef struct {
	group string
	topic string
}

// NewCheckpointer wraps a store, retaining the newest keep generations
// (minimum 2, so a corrupted newest generation always has a fallback).
func NewCheckpointer(store Store, keep int) (*Checkpointer, error) {
	if keep < 2 {
		keep = 2
	}
	gens, err := store.Generations()
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	return &Checkpointer{
		store:   store,
		keep:    keep,
		nextGen: next,
		ops:     make(map[string]Snapshotter),
		log:     obs.NopLogger(),
	}, nil
}

// SetLogger attaches a structured logger for capture and restore events;
// nil silences them again.
func (c *Checkpointer) SetLogger(l *slog.Logger) {
	c.log = obs.Component(l, "checkpoint")
}

// RegisterSource adds a consumer group whose committed offsets are captured
// and restored.
func (c *Checkpointer) RegisterSource(group, topic string) {
	for _, s := range c.sources {
		if s.group == group && s.topic == topic {
			return
		}
	}
	c.sources = append(c.sources, sourceRef{group: group, topic: topic})
}

// RegisterOutput adds an output topic whose end offsets are captured; on
// restore the topic is truncated back to them.
func (c *Checkpointer) RegisterOutput(topic string) {
	for _, t := range c.outputs {
		if t == topic {
			return
		}
	}
	c.outputs = append(c.outputs, topic)
}

// Register binds a named operator. Registering the same name again replaces
// the binding — a pipeline that restarts rebuilds fresh operator instances
// and re-registers them under the stable names.
func (c *Checkpointer) Register(name string, op Snapshotter) {
	if _, ok := c.ops[name]; !ok {
		c.names = append(c.names, name)
	}
	c.ops[name] = op
}

// Captures reports how many checkpoints have been captured by this
// Checkpointer instance.
func (c *Checkpointer) Captures() int { return c.captures }

// NextGeneration returns the generation number the next Capture will use.
// The sharded pipeline uses it as the barrier epoch, aligning each
// coordinated shard snapshot with the checkpoint generation it lands in.
func (c *Checkpointer) NextGeneration() uint64 { return c.nextGen }

// Capture takes a checkpoint of the registered sources, outputs, and
// operators against the broker, persists it as the next generation, and
// prunes old generations beyond the retention limit. It returns the new
// generation number.
func (c *Checkpointer) Capture(b *msg.Broker) (uint64, error) {
	cp := &Checkpoint{
		Generation: c.nextGen,
		Operators:  make(map[string][]byte, len(c.ops)),
	}
	for _, s := range c.sources {
		cp.Sources = append(cp.Sources, SourceOffsets{
			Group:   s.group,
			Topic:   s.topic,
			Offsets: b.CommittedOffsets(s.group, s.topic),
		})
	}
	for _, topic := range c.outputs {
		n, err := b.Partitions(topic)
		if err != nil {
			return 0, outputErr(topic, err)
		}
		ends := make(map[int]int64, n)
		for p := 0; p < n; p++ {
			end, err := b.EndOffset(topic, p)
			if err != nil {
				return 0, partitionErr("output", topic, p, err)
			}
			ends[p] = end
		}
		cp.Outputs = append(cp.Outputs, OutputEnds{Topic: topic, Ends: ends})
	}
	for _, name := range c.names {
		blob, err := c.ops[name].Snapshot()
		if err != nil {
			return 0, operatorErr("snapshot", name, err)
		}
		cp.Operators[name] = blob
	}

	data, err := Encode(cp)
	if err != nil {
		return 0, err
	}
	if err := c.store.Save(cp.Generation, data); err != nil {
		return 0, fmt.Errorf("checkpoint: save generation %d: %w", cp.Generation, err)
	}
	if err := pinReplayFloors(b, cp.Sources); err != nil {
		return 0, pinFloorErr(err)
	}
	c.nextGen = cp.Generation + 1
	c.captures++
	c.prune()
	if c.m != nil {
		c.m.recordCapture()
	}
	c.log.Debug("checkpoint captured",
		"generation", cp.Generation, "bytes", len(data), "operators", len(cp.Operators))
	return cp.Generation, nil
}

// pinReplayFloors pins each source topic's replay floor at the checkpointed
// committed offsets — the exact positions a post-crash replay restarts from,
// which the DropOldestUncommitted overload policy must never shed at or
// below. When several groups consume a topic the lowest offset wins; a
// partition missing from a group's map means that group replays it from 0.
func pinReplayFloors(b *msg.Broker, srcs []SourceOffsets) error {
	byTopic := make(map[string][]map[int]int64, len(srcs))
	for _, s := range srcs {
		byTopic[s.Topic] = append(byTopic[s.Topic], s.Offsets)
	}
	for topic, maps := range byTopic {
		n, err := b.Partitions(topic)
		if err != nil {
			return err
		}
		floor := make(map[int]int64, n)
		for p := 0; p < n; p++ {
			low := maps[0][p]
			for _, m := range maps[1:] {
				if m[p] < low {
					low = m[p]
				}
			}
			floor[p] = low
		}
		if err := b.PinReplayFloor(topic, floor); err != nil {
			return err
		}
	}
	return nil
}

// prune removes generations beyond the retention limit, oldest first.
// Pruning failures are ignored: stale generations are harmless.
func (c *Checkpointer) prune() {
	gens, err := c.store.Generations()
	if err != nil {
		return
	}
	for len(gens) > c.keep {
		_ = c.store.Remove(gens[0])
		gens = gens[1:]
	}
}

// Latest loads the newest generation that decodes cleanly, skipping (and
// reporting via the error only when nothing is left) corrupted or unreadable
// generations. Returns ErrNoCheckpoint when the store holds no valid
// generation.
func (c *Checkpointer) Latest() (*Checkpoint, error) {
	gens, err := c.store.Generations()
	if err != nil {
		return nil, err
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for i := len(gens) - 1; i >= 0; i-- {
		data, err := c.store.Load(gens[i])
		if err != nil {
			continue
		}
		cp, err := Decode(data)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				continue // fall back to the previous generation
			}
			return nil, err
		}
		return cp, nil
	}
	return nil, ErrNoCheckpoint
}

// Restore restores registered operator state from the latest valid
// checkpoint and rewinds the broker to it: each registered operator is
// restored from its snapshot, then source groups' committed offsets are
// overwritten and output topics truncated back to the checkpointed ends (0
// for partitions the checkpoint does not mention). When the store holds no
// valid checkpoint it rewinds the broker to generation zero — no committed
// offsets, every output partition empty, each source's replay floor pinned
// at 0 — leaves operators as they are, and returns (nil, nil): the pipeline
// then starts cold. An operator registered but missing from the checkpoint,
// or one whose Restore fails, is an error returned before the broker is
// touched; checkpointed operators that are no longer registered are ignored.
func (c *Checkpointer) Restore(b *msg.Broker) (*Checkpoint, error) {
	cp, err := c.Latest()
	cold := errors.Is(err, ErrNoCheckpoint)
	if err != nil && !cold {
		return nil, err
	}
	if cold {
		// A previous crashed attempt may have committed offsets and produced
		// output: the empty checkpoint rewinds both for effectively-once
		// replay from offset zero, and pins the floor there so nothing is
		// shed until the first checkpoint raises it.
		cp = &Checkpoint{}
	} else if err := c.restoreOperators(cp); err != nil {
		return nil, err
	}
	restored := make([]SourceOffsets, 0, len(c.sources))
	for _, s := range c.sources {
		offs := cp.Source(s.group, s.topic)
		b.RestoreOffsets(s.group, s.topic, offs)
		restored = append(restored, SourceOffsets{Group: s.group, Topic: s.topic, Offsets: offs})
	}
	if err := pinReplayFloors(b, restored); err != nil {
		return nil, pinFloorErr(err)
	}
	for _, topic := range c.outputs {
		n, err := b.Partitions(topic)
		if err != nil {
			return nil, outputErr(topic, err)
		}
		ends := cp.Output(topic)
		for p := 0; p < n; p++ {
			if err := b.Truncate(topic, p, ends[p]); err != nil {
				return nil, partitionErr("truncate", topic, p, err)
			}
		}
	}
	if cold {
		return nil, nil
	}
	c.nextGen = cp.Generation + 1
	if c.m != nil {
		c.m.restores.Inc()
	}
	c.log.Info("restored from checkpoint",
		"generation", cp.Generation, "operators", len(cp.Operators))
	return cp, nil
}

// restoreOperators restores every registered operator from cp, in
// registration order: a checkpoint that lacks a registered operator, or
// whose state an operator rejects, fails before Restore touches the broker.
func (c *Checkpointer) restoreOperators(cp *Checkpoint) error {
	for _, name := range c.names {
		blob, ok := cp.Operators[name]
		if !ok {
			return missingOperatorErr(cp.Generation, name)
		}
		if err := c.ops[name].Restore(blob); err != nil {
			return operatorErr("restore", name, err)
		}
	}
	return nil
}

// Cold-path error constructors for the capture and restore loops, kept out
// of the loop bodies so the hotalloc analyzer sees them allocation-free.

func outputErr(topic string, err error) error {
	return fmt.Errorf("checkpoint: output %s: %w", topic, err)
}

func partitionErr(verb, topic string, p int, err error) error {
	return fmt.Errorf("checkpoint: %s %s/%d: %w", verb, topic, p, err)
}

func operatorErr(verb, name string, err error) error {
	return fmt.Errorf("checkpoint: %s %s: %w", verb, name, err)
}

func missingOperatorErr(gen uint64, name string) error {
	return fmt.Errorf("checkpoint: generation %d has no state for operator %q", gen, name)
}

func pinFloorErr(err error) error {
	return fmt.Errorf("checkpoint: pin replay floor: %w", err)
}
