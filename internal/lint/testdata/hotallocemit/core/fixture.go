// Package fixture stands in for internal/core's emit path: flushBatch
// matches no root name prefix of the hot-path scope, so it is rooted by name
// in HotPathExtraRoots.
package fixture

import "errors"

// batchEmit stands in for core.batchEmit.
type batchEmit struct{ sent [][]byte }

// flushBatch is the merge's per-batch output flush.
func (e *batchEmit) flushBatch(lines []string) error {
	for _, l := range lines {
		if l == "" {
			return errors.New("empty line") // want "errors.New allocates"
		}
		e.sent = append(e.sent, []byte(l))
	}
	return nil
}

// Reset is neither rooted nor reached from a root.
func (e *batchEmit) Reset(lines []string) error {
	for _, l := range lines {
		if l == "" {
			return errors.New("empty line")
		}
	}
	e.sent = nil
	return nil
}
