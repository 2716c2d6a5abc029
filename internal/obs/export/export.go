// Package export renders obs.Snapshot values for the serving plane: the
// Prometheus text exposition format (version 0.0.4) behind the admin
// server's /metrics endpoint, and a JSON form behind /statz. Like the rest
// of the observability layer it is built exclusively on the standard
// library.
//
// The internal metric namespace is dotted ("msg.lag.realtime/surveillance.raw");
// Prometheus names must match [a-zA-Z_:][a-zA-Z0-9_:]*. The renderer maps
// an internal name to an exposition family plus labels (mapName), so
// per-group and per-component series collapse into one labelled family
// instead of exploding the name space; unmapped names fall back to
// character sanitisation.
//
// Every sample value is sanitised to a finite number: NaN/±Inf readings
// are rendered as 0 — non-finite values are not valid exposition output.
package export

import (
	"sort"
	"strconv"
	"strings"
)

// label is one name/value pair attached to a series.
type label struct {
	Name  string
	Value string
}

// mapName rewrites an internal metric name into an exposition family name
// and labels, encoding this repository's metric naming conventions:
//
//	msg.lag.<group>/<topic>  → msg_lag{group=..., topic=...}
//	health.<component>.status→ health_status{component=...}
//
// Everything else keeps its dotted name. The family is sanitised
// afterwards and label values are escaped at render time, so nothing here
// escapes.
func mapName(name string) (string, []label) {
	switch {
	case hasSegPrefix(name, "msg.lag."):
		rest := strings.TrimPrefix(name, "msg.lag.")
		if group, topic, ok := strings.Cut(rest, "/"); ok {
			return "msg_lag", []label{{Name: "group", Value: group}, {Name: "topic", Value: topic}}
		}
		return "msg_lag", []label{{Name: "group", Value: rest}}
	case hasSegPrefix(name, "health."):
		if comp, metric, ok := splitMiddle(name, "health."); ok {
			return "health_" + metric, []label{{Name: "component", Value: comp}}
		}
	}
	return name, nil
}

// hasSegPrefix is strings.HasPrefix with the intent (segment boundary
// included in the prefix) spelled out at call sites.
func hasSegPrefix(name, prefix string) bool { return strings.HasPrefix(name, prefix) }

// splitMiddle splits "<prefix><middle>.<rest>" into middle and rest with
// dots in rest converted later by sanitisation.
func splitMiddle(name, prefix string) (middle, rest string, ok bool) {
	trimmed := strings.TrimPrefix(name, prefix)
	middle, rest, ok = strings.Cut(trimmed, ".")
	if !ok || middle == "" || rest == "" {
		return "", "", false
	}
	return middle, rest, true
}

// sanitizeName rewrites a family name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; every invalid rune becomes an underscore and an
// empty or digit-leading name gains a leading underscore.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !valid {
			if i == 0 && r >= '0' && r <= '9' {
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// finite maps NaN and ±Inf to 0; everything the renderers print goes
// through it.
func finite(v float64) float64 {
	if v != v || v > maxFinite || v < -maxFinite {
		return 0
	}
	return v
}

const maxFinite = 1.7976931348623157e308

// formatValue renders a (sanitised) sample value in the shortest exact
// form, matching Go's %g with full precision.
func formatValue(v float64) string {
	return strconv.FormatFloat(finite(v), 'g', -1, 64)
}

// labelString renders a sorted, escaped label set incl. braces; empty
// input renders as the empty string.
func labelString(labels []label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
