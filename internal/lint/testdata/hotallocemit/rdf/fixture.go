// Package fixture stands in for internal/rdf: loaded under that path, its
// AppendNT is an explicit hotalloc root (HotPathExtraRoots) although it
// matches no root name prefix.
package fixture

import "fmt"

// Triple stands in for rdf.Triple.
type Triple struct{ Terms [3]string }

// AppendNT is the emit path's encoder entry point.
func (t Triple) AppendNT(dst []byte) []byte {
	for _, term := range t.Terms {
		dst = append(dst, fmt.Sprintf("<%s> ", term)...) // want "fmt.Sprintf allocates"
	}
	return append(dst, '.')
}

// String is not a root and nothing rooted calls it.
func (t Triple) String() string {
	s := ""
	for _, term := range t.Terms {
		s += fmt.Sprintf("<%s> ", term)
	}
	return s + "."
}
