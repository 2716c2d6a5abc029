// Package fixture exercises the hotalloc analyzer. Loaded under a
// hot-path import path (internal/shard/...), its Process*/Run* functions
// are reachability roots; loaded outside that scope it must stay silent.
package fixture

import (
	"errors"
	"fmt"
)

// Rec stands in for one per-record payload.
type Rec struct {
	ID   string
	Vals []float64
}

// ProcessBatch formats and grows an unsized slice per record.
func ProcessBatch(recs []Rec) []string {
	var out []string
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s", r.ID)) // want "fmt.Sprintf allocates" "append grows"
	}
	return out
}

// ProcessAll reaches helper through a call edge; helper is not a root by
// name but its loop is still hot.
func ProcessAll(recs []Rec) {
	helper(recs)
}

func helper(recs []Rec) {
	for _, r := range recs {
		m := map[string]int{"n": len(r.Vals)} // want "map literal allocated"
		_ = m
	}
}

// Run's per-record loop lives inside a spawned goroutine body.
func Run(in chan Rec, out chan string) {
	go func() {
		for r := range in {
			out <- fmt.Sprintf("%s!", r.ID) // want "fmt.Sprintf allocates"
		}
		close(out)
	}()
}

// ProcessBox boxes a struct into an interface on every iteration.
func ProcessBox(recs []Rec, sink func(any)) {
	for _, r := range recs {
		sink(any(r)) // want "interface conversion boxes"
	}
}

// ProcessValidate allocates a fresh error per iteration.
func ProcessValidate(recs []Rec) error {
	for _, r := range recs {
		if r.ID == "" {
			return errors.New("empty id") // want "errors.New allocates"
		}
	}
	return nil
}

// ProcessSized is the negative case: pre-sized append does not grow.
func ProcessSized(recs []Rec) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.ID)
	}
	return out
}

// ProcessHoisted keeps its literal outside the loop: clean.
func ProcessHoisted(recs []Rec) int {
	scale := []float64{1, 2, 4}
	total := 0
	for _, r := range recs {
		total += len(r.Vals) * len(scale)
	}
	return total
}

// coldPath is unreachable from any root: its allocations are not hot.
func coldPath(recs []Rec) []string {
	var out []string
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s", r.ID))
	}
	return out
}
