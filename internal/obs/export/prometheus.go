package export

import (
	"fmt"
	"io"
	"sort"

	"datacron/internal/obs"
)

// ContentType is the Content-Type header value for the exposition output
// WritePrometheus produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// family accumulates one exposition family: a # TYPE line plus its series,
// kept in insertion order (the snapshot is already name-sorted, and
// histogram buckets must stay in ascending-le order).
type family struct {
	name   string // rendered name
	kind   string // counter | gauge | histogram
	series []series
}

type series struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered label block, may be empty
	value  string
}

// renderer collects families keyed by rendered name so TYPE lines are
// emitted exactly once per family even when several internal metrics map
// onto it.
type renderer struct {
	families map[string]*family
	order    []string
}

// ensure returns the named family, creating it on first use. Kind conflicts
// (two internal metrics of different kinds mapped onto one family) are
// resolved deterministically by suffixing the kind, which keeps the output
// valid instead of emitting duplicate TYPE lines.
func (r *renderer) ensure(famName, kind string) *family {
	f, ok := r.families[famName]
	if ok && f.kind != kind {
		famName += "_" + kind
		f, ok = r.families[famName]
	}
	if !ok {
		f = &family{name: famName, kind: kind}
		r.families[famName] = f
		r.order = append(r.order, famName)
	}
	return f
}

// resolve maps an internal metric name to its family and series labels.
func (r *renderer) resolve(name, kind, suffix string) (*family, []label) {
	mapped, labels := mapName(name)
	return r.ensure(sanitizeName(mapped)+suffix, kind), labels
}

func (r *renderer) add(f *family, suffix string, labels []label, value string) {
	f.series = append(f.series, series{suffix: suffix, labels: labelString(labels), value: value})
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, version 0.0.4: for every family a # TYPE line, then its series.
// Counters gain the conventional _total suffix; a scraper derives rates
// from them. Histograms render cumulative le-buckets, _sum and _count.
// Every value is finite: NaN and ±Inf sanitise to 0, which the format
// would otherwise reject.
func WritePrometheus(w io.Writer, s obs.Snapshot) error {
	r := &renderer{families: make(map[string]*family)}

	for _, c := range s.Counters {
		f, labels := r.resolve(c.Name, "counter", "_total")
		r.add(f, "", labels, formatValue(float64(c.Value)))
	}
	for _, g := range s.Gauges {
		f, labels := r.resolve(g.Name, "gauge", "")
		r.add(f, "", labels, formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		f, labels := r.resolve(h.Name, "histogram", "")
		var cum int64
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatValue(h.Bounds[i])
			}
			bl := append(append([]label(nil), labels...), label{Name: "le", Value: le})
			r.add(f, "_bucket", bl, formatValue(float64(cum)))
		}
		r.add(f, "_sum", labels, formatValue(h.Sum))
		r.add(f, "_count", labels, formatValue(float64(cum)))
	}

	return r.write(w)
}

func (r *renderer) write(w io.Writer) error {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, sr := range f.series {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, sr.suffix, sr.labels, sr.value); err != nil {
				return err
			}
		}
	}
	return nil
}
