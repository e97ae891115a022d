package clocksync

import (
	"reflect"
	"testing"

	"hclocksync/internal/clock"
)

type fixedClock float64

func (f fixedClock) Time() float64              { return float64(f) }
func (f fixedClock) ReadAt(float64) float64     { return float64(f) }
func (f fixedClock) TrueWhen(r float64) float64 { return r - float64(f) }

// Capture/Rebuild must preserve the nesting exactly: readings of the
// rebuilt stack are bit-identical to the original, which Collapse's merged
// model would not guarantee in floating point.
func TestSyncStateRoundTripBitIdentical(t *testing.T) {
	base := fixedClock(1234.5678)
	var c clock.Clock = base
	models := []clock.LinearModel{
		{Slope: 3.07e-6, Intercept: -0.0125},
		{Slope: -1.9e-7, Intercept: 4.2e-5},
		{Slope: 8.8e-6, Intercept: 0.003},
	}
	for _, m := range models {
		c = clock.New(c, m)
	}

	st := CaptureClock(c)
	if !reflect.DeepEqual(st.Models, models) {
		t.Fatalf("captured models %v, want %v", st.Models, models)
	}
	rebuilt := st.Rebuild(base)
	if a, b := c.Time(), rebuilt.Time(); a != b {
		t.Errorf("Time: original %v != rebuilt %v", a, b)
	}
	if a, b := c.TrueWhen(5.5), rebuilt.TrueWhen(5.5); a != b {
		t.Errorf("TrueWhen: original %v != rebuilt %v", a, b)
	}
}

func TestSyncStateBareLocal(t *testing.T) {
	base := fixedClock(1)
	st := CaptureClock(base)
	if len(st.Models) != 0 {
		t.Fatalf("bare clock captured %d models", len(st.Models))
	}
	if got := st.Rebuild(base); got != clock.Clock(base) {
		t.Error("empty state did not rebuild to the base clock itself")
	}
}
