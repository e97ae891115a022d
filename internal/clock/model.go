package clock

// LinearModel is a clock drift model: the predicted offset of a clock
// relative to its reference is Slope·t + Intercept at local reading t.
// The zero value predicts zero drift (the identity adjustment).
type LinearModel struct {
	Slope, Intercept float64
}

// Predict returns the modelled offset at base reading t.
func (m LinearModel) Predict(t float64) float64 { return m.Slope*t + m.Intercept }

// Merge composes drift models across a hop: if outer models clock b against
// reference a (so a = t_b − outer(t_b)) and inner models clock c against b,
// Merge(outer, inner) models c directly against a. This is the model-merge
// step of HCA2 (paper Fig. 1a: cm(0,3) ← MERGE(cm(0,2), cm(2,3))).
func Merge(outer, inner LinearModel) LinearModel {
	return LinearModel{
		Slope:     outer.Slope + inner.Slope - outer.Slope*inner.Slope,
		Intercept: outer.Intercept + (1-outer.Slope)*inner.Intercept,
	}
}

// --- Model stacks (flatten_clock / unflatten_clock of Alg. 3) ---

// Models returns the drift models stacked on c, from innermost (closest to
// the hardware clock) to outermost; nil for a bare base clock.
func Models(c Clock) []LinearModel {
	var models []LinearModel
	for g, ok := c.(*GlobalClockLM); ok; g, ok = g.Base.(*GlobalClockLM) {
		models = append([]LinearModel{g.Model}, models...)
	}
	return models
}

// Stack wraps base in models, innermost first: the inverse of Models. The
// nesting is kept, not merged, so readings are bit-identical to the original.
func Stack(base Clock, models []LinearModel) Clock {
	c := base
	for _, m := range models {
		c = New(c, m)
	}
	return c
}

// ModelF64s encodes a single model as two float64s, the layout of every
// model on the wire (HCA2's model shipping, ClockPropSync's flat stack).
func (m LinearModel) ModelF64s() []float64 { return []float64{m.Slope, m.Intercept} }

// ModelFromF64s decodes a model encoded by ModelF64s.
func ModelFromF64s(v []float64) LinearModel {
	return LinearModel{Slope: v[0], Intercept: v[1]}
}
