package health

import (
	"strings"
	"testing"
	"time"
)

// TestOverloadedStatusTextRoundTrip pins the wire spelling of the new state
// and its ordering between Degraded and Unhealthy.
func TestOverloadedStatusTextRoundTrip(t *testing.T) {
	b, err := Overloaded.MarshalText()
	if err != nil || string(b) != "overloaded" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var s Status
	if err := s.UnmarshalText([]byte("overloaded")); err != nil || s != Overloaded {
		t.Fatalf("UnmarshalText = %v, %v", s, err)
	}
	if !(Degraded < Overloaded && Overloaded < Unhealthy) {
		t.Fatal("Overloaded must rank between Degraded and Unhealthy")
	}
}

// TestOverloadFlipsOnPressure: growth in any admission-control counter
// family must flip the checker to Overloaded within the configured streak,
// naming the moving counter, and cost readiness but not liveness.
func TestOverloadFlipsOnPressure(t *testing.T) {
	clk, reg, w := setup()
	w.Register(NewOverloadChecker())
	shed := reg.Counter("flow.shed.bulk")

	w.Tick() // baseline: no pressure
	if r := result(t, w, "overload"); r.Status != Healthy {
		t.Fatalf("baseline = %+v, want Healthy", r)
	}

	clk.Advance(time.Second)
	shed.Add(25)
	w.Tick()
	r := result(t, w, "overload")
	if r.Status != Overloaded {
		t.Fatalf("after shedding: %+v, want Overloaded", r)
	}
	if !strings.Contains(r.Detail, "flow.shed.bulk +25") {
		t.Fatalf("detail must name the moving counter: %q", r.Detail)
	}
	if w.Ready() {
		t.Fatal("Overloaded must cost readiness")
	}
	if !w.Live() {
		t.Fatal("Overloaded must NOT cost liveness: shedding is controlled degradation")
	}
}

// TestOverloadIsDeltaBased: huge historical counters with no growth this
// window read as recovered.
func TestOverloadIsDeltaBased(t *testing.T) {
	clk, reg, w := setup()
	w.Register(NewOverloadChecker())
	rej := reg.Counter("msg.rejected.surveillance.raw")

	rej.Add(1_000_000)
	w.Tick() // first tick has an empty previous snapshot: the delta is the total
	clk.Advance(time.Second)
	w.Tick() // no growth since the last window
	if r := result(t, w, "overload"); r.Status != Healthy {
		t.Fatalf("flat counters must read recovered: %+v", r)
	}
	if !w.Ready() {
		t.Fatal("recovered pipeline must be ready again")
	}
}

// TestOverloadIgnoresUnrelatedCounters: growth outside the pressure families
// must not trigger the checker.
func TestOverloadIgnoresUnrelatedCounters(t *testing.T) {
	clk, reg, w := setup()
	w.Register(NewOverloadChecker())
	w.Tick()
	clk.Advance(time.Second)
	reg.Counter("core.records").Add(10_000)
	reg.Counter("flow.admitted").Add(10_000) // admissions are not pressure
	w.Tick()
	if r := result(t, w, "overload"); r.Status != Healthy {
		t.Fatalf("unrelated counter growth flipped the checker: %+v", r)
	}
}
