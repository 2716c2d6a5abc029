// Package fixture stands in for internal/core's emit path: Publish matches
// no root name prefix of the hot-path scope, so it is rooted by name in
// HotPathExtraRoots.
package fixture

import "errors"

// Publisher stands in for core.TriplePublisher.
type Publisher struct{ sent [][]byte }

// Publish is the batched triple publish.
func (p *Publisher) Publish(lines []string) error {
	for _, l := range lines {
		if l == "" {
			return errors.New("empty line") // want "errors.New allocates"
		}
		p.sent = append(p.sent, []byte(l))
	}
	return nil
}

// Reset is neither rooted nor reached from a root.
func (p *Publisher) Reset(lines []string) error {
	for _, l := range lines {
		if l == "" {
			return errors.New("empty line")
		}
	}
	p.sent = nil
	return nil
}
