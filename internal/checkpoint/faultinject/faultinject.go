// Package faultinject provides deterministic, seed-driven fault injection
// for exercising the checkpoint/recovery machinery: scheduled crashes of the
// processing loop, dropped fetch batches, and targeted corruption
// of persisted checkpoints. All randomness flows from one seeded source, so
// a given seed reproduces the same fault schedule run after run.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"datacron/internal/checkpoint"
)

// ErrInjectedCrash is returned by the pipeline when the injector kills it.
// Supervisors match it to decide whether a failure is a drill or real.
var ErrInjectedCrash = errors.New("faultinject: injected crash")

// Config parameterizes an Injector. A zero field disables that fault.
type Config struct {
	Seed int64

	// KillMin/KillMax bound the number of processed records between
	// injected crashes; each crash is scheduled uniformly in [KillMin,
	// KillMax]. Zero KillMax disables crashes. Keep KillMin larger than the
	// checkpoint interval (in records) plus one poll batch, or a restart
	// loop may never reach a fresh checkpoint and livelock.
	KillMin int64
	KillMax int64

	// DropProb is the probability that a polled batch is "dropped": the
	// pipeline rewinds the consumer and re-polls, simulating a lost fetch
	// response.
	DropProb float64
}

// Injector produces a deterministic fault schedule. Safe for use from one
// pipeline goroutine plus inspection of counters from a supervisor.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	count  int64 // records processed since the injector was created
	killAt int64 // record count of the next scheduled crash; 0 = none
	kills  int
	drops  int
}

// New returns an injector with the first crash (if enabled) scheduled.
func New(cfg Config) *Injector {
	if cfg.KillMax > 0 && cfg.KillMin > cfg.KillMax {
		cfg.KillMin, cfg.KillMax = cfg.KillMax, cfg.KillMin
	}
	inj := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	inj.schedule()
	return inj
}

// schedule arms the next crash. Caller holds i.mu (or is the constructor).
func (i *Injector) schedule() {
	if i.cfg.KillMax <= 0 {
		i.killAt = 0
		return
	}
	span := i.cfg.KillMax - i.cfg.KillMin
	var jitter int64
	if span > 0 {
		jitter = i.rng.Int63n(span + 1)
	}
	i.killAt = i.count + i.cfg.KillMin + jitter
}

// BeforeRecord is called once per record about to be processed. It returns
// ErrInjectedCrash when the schedule says the process dies here; the next
// crash is armed relative to the current count, so a restarted pipeline that
// keeps the same injector gets a fresh interval to make progress in.
func (i *Injector) BeforeRecord() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.count++
	if i.killAt > 0 && i.count >= i.killAt {
		i.kills++
		i.schedule()
		return fmt.Errorf("%w: after %d records", ErrInjectedCrash, i.count)
	}
	return nil
}

// CrashWithin reports whether one of the next n BeforeRecord calls will
// return a crash. It consumes no randomness, so asking never changes the
// schedule; a pipeline uses it to avoid fetching ahead of a scheduled crash.
func (i *Injector) CrashWithin(n int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.killAt > 0 && i.count+int64(n) >= i.killAt
}

// DropBatch reports whether the current poll batch should be discarded and
// re-fetched.
func (i *Injector) DropBatch() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cfg.DropProb <= 0 || i.rng.Float64() >= i.cfg.DropProb {
		return false
	}
	i.drops++
	return true
}

// Kills reports how many crashes the injector has fired.
func (i *Injector) Kills() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.kills
}

// Drops reports how many batches the injector has dropped.
func (i *Injector) Drops() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.drops
}

// CorruptBytes flips one seeded byte of data in place (no-op on empty
// input), simulating bit rot in a persisted checkpoint.
func (i *Injector) CorruptBytes(data []byte) {
	if len(data) == 0 {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	pos := i.rng.Intn(len(data))
	data[pos] ^= 0xFF
}

// Corrupt flips a byte in the newest stored checkpoint generation, proving
// that recovery detects the damage (CRC) and falls back to the previous
// generation. It is an error if the store holds no generations.
func (i *Injector) Corrupt(s checkpoint.Store) error {
	gens, err := s.Generations()
	if err != nil {
		return err
	}
	if len(gens) == 0 {
		return errors.New("faultinject: no checkpoint generations to corrupt")
	}
	newest := gens[len(gens)-1]
	data, err := s.Load(newest)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faultinject: generation %d is empty", newest)
	}
	i.CorruptBytes(data)
	return s.Save(newest, data)
}
