package health

import (
	"fmt"
	"strings"

	"datacron/internal/obs"
)

// overloadChecker reports the Overloaded state while the admission-control
// plane is actively degrading service: shed records (flow.shed.*), produces
// rejected or evicted at a topic capacity (msg.rejected.* / msg.evicted.*),
// or producers blocked on backpressure (msg.blocked.*). Like every checker
// it is delta-based — pressure that stopped before the previous tick reads
// as recovered, however large the historical counters are.
type overloadChecker struct{}

// NewOverloadChecker builds the overload checker; core registers it when
// the flow plane is armed.
func NewOverloadChecker() Checker { return overloadChecker{} }

func (overloadChecker) Name() string { return "overload" }

// pressureCounterPrefixes are the counter families whose growth means the
// flow plane is degrading service.
var pressureCounterPrefixes = []string{"flow.shed.", "msg.rejected.", "msg.evicted.", "msg.blocked."}

func (overloadChecker) Check(prev, cur obs.Snapshot) Result {
	var details []string
	for _, ctr := range cur.Counters {
		for _, pfx := range pressureCounterPrefixes {
			if !strings.HasPrefix(ctr.Name, pfx) {
				continue
			}
			if d := ctr.Value - prev.Counter(ctr.Name); d > 0 {
				details = append(details, fmt.Sprintf("%s +%d", ctr.Name, d))
			}
			break
		}
	}
	if len(details) == 0 {
		return Result{Component: "overload", Status: Healthy, Detail: "no admission-control pressure"}
	}
	return Result{
		Component: "overload",
		Status:    Overloaded,
		Detail:    "load shedding active: " + strings.Join(details, ", "),
	}
}
