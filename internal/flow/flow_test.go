package flow

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datacron/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestClassify pins the priority model: first report and post-gap reports
// are Critical, well-covered reports are Bulk, the band between is Standard.
func TestClassify(t *testing.T) {
	s := NewShedder(10, 20, time.Minute, nil)
	if got := s.Classify("v1", t0); got != Critical {
		t.Fatalf("first report = %v, want Critical", got)
	}
	if err := s.Admit("v1", t0, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		gap  time.Duration
		want Priority
	}{
		{10 * time.Second, Bulk},     // well inside half the window
		{30 * time.Second, Bulk},     // exactly half: still covered
		{31 * time.Second, Standard}, // between half and full window
		{time.Minute, Critical},      // full window: refreshes a stale synopsis
		{2 * time.Minute, Critical},
	}
	for _, c := range cases {
		if got := s.Classify("v1", t0.Add(c.gap)); got != c.want {
			t.Errorf("gap %v = %v, want %v", c.gap, got, c.want)
		}
	}
}

// TestAdmitWatermarks drives one mover through the three pressure levels:
// below the low watermark everything is admitted; between the watermarks
// Bulk is shed; above the high watermark only Critical survives.
func TestAdmitWatermarks(t *testing.T) {
	s := NewShedder(10, 20, time.Minute, nil)
	if err := s.Admit("v1", t0, 0); err != nil { // Critical seed
		t.Fatal(err)
	}

	// Level 0: a Bulk record sails through.
	if err := s.Admit("v1", t0.Add(time.Second), 9); err != nil {
		t.Fatalf("level 0 bulk: %v", err)
	}

	// Level 1: Bulk shed, Standard admitted.
	if err := s.Admit("v1", t0.Add(2*time.Second), 10); !errors.Is(err, ErrShed) {
		t.Fatalf("level 1 bulk: err = %v, want ErrShed", err)
	}
	if err := s.Admit("v1", t0.Add(40*time.Second), 10); err != nil {
		t.Fatalf("level 1 standard: %v", err)
	}

	// Level 2: Standard shed too; Critical still admitted.
	if err := s.Admit("v1", t0.Add(80*time.Second), 20); !errors.Is(err, ErrShed) {
		t.Fatalf("level 2 standard: err = %v, want ErrShed", err)
	}
	if err := s.Admit("v1", t0.Add(3*time.Minute), 20); err != nil {
		t.Fatalf("level 2 critical: %v", err)
	}

	st := s.Stats()
	want := Stats{Admitted: 4, ShedBulk: 1, ShedStandard: 1, Level: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.Shed() != 2 {
		t.Fatalf("Shed() = %d, want 2", st.Shed())
	}
}

// TestShedDoesNotAdvanceCoverage: a shed record must not update the mover's
// last-kept time, or the shedder would count records it dropped as coverage
// and starve the mover of its Critical refresh.
func TestShedDoesNotAdvanceCoverage(t *testing.T) {
	s := NewShedder(1, 2, time.Minute, nil)
	if err := s.Admit("v1", t0, 0); err != nil {
		t.Fatal(err)
	}
	// Sustained level-2 pressure: everything but Critical is shed tick after
	// tick, the gap since the last KEPT record keeps growing, and exactly at
	// the coverage window the record turns Critical and must be admitted.
	step := 10 * time.Second
	admitted := 0
	for i := 1; i <= 6; i++ { // t0+10s ... t0+60s
		if err := s.Admit("v1", t0.Add(time.Duration(i)*step), 50); err == nil {
			admitted++
			if got := t0.Add(time.Duration(i) * step); !got.Equal(t0.Add(time.Minute)) {
				t.Fatalf("admitted at gap %v, want only at the full window", time.Duration(i)*step)
			}
		}
	}
	if admitted != 1 {
		t.Fatalf("admitted %d refreshes under sustained pressure, want exactly 1", admitted)
	}
}

// TestErrShedCarriesContext: the wrapped message names the mover, priority
// and depth so shed decisions are debuggable from logs.
func TestErrShedCarriesContext(t *testing.T) {
	s := NewShedder(0, 0, time.Minute, nil)
	if err := s.Admit("v9", t0, 5); err != nil {
		t.Fatal(err)
	}
	err := s.Admit("v9", t0.Add(time.Second), 5)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	msg := err.Error()
	for _, want := range []string{"v9", "bulk", "depth 5"} {
		if !strings.Contains(msg, want) {
			t.Errorf("shed error %q missing %q", msg, want)
		}
	}
}

// TestShedderMetrics checks the obs counters and the level gauge move with
// the decisions, and that a nil registry is safe.
func TestShedderMetrics(t *testing.T) {
	reg := obs.NewRegistry(nil)
	s := NewShedder(1, 2, time.Minute, reg)
	if err := s.Admit("v1", t0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit("v1", t0.Add(time.Second), 1); !errors.Is(err, ErrShed) {
		t.Fatal("expected bulk shed at the low watermark")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("flow.admitted"); got != 1 {
		t.Fatalf("flow.admitted = %d, want 1", got)
	}
	if got := snap.Counter("flow.shed.bulk"); got != 1 {
		t.Fatalf("flow.shed.bulk = %d, want 1", got)
	}
	if lvl, ok := snap.Gauge("flow.level"); !ok || lvl != 1 {
		t.Fatalf("flow.level = %v, %v; want 1", lvl, ok)
	}
}

// TestConfigDefaults pins the watermarks and coverage window the plane
// derives from its capacity, and the Enabled gate.
func TestConfigDefaults(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config must be disabled")
	}
	c := Config{QueueCap: 100}
	if !c.Enabled() {
		t.Fatal("a positive QueueCap must enable the plane")
	}
	s := c.Shedder(4, nil)
	if s.low != 200 || s.high != 340 || s.coverage != 5*time.Minute {
		t.Fatalf("derived shedder: low %d high %d coverage %v; want 200, 340, 5m", s.low, s.high, s.coverage)
	}
}

// TestPriorityString covers the display names used in logs and shed errors.
func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{Bulk: "bulk", Standard: "standard", Critical: "critical"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if got := Priority(9).String(); got != fmt.Sprintf("priority(%d)", 9) {
		t.Errorf("unknown priority = %q", got)
	}
}
