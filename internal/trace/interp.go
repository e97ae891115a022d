package trace

// Post-mortem timestamp correction as performed by trace-analysis tools
// like Scalasca (paper §II): measure the offset to a reference clock at the
// beginning and at the end of the application run, then linearly
// interpolate the correction for every timestamp in between. The paper
// (citing Jones et al. and Doleschal et al.) points out the weakness: the
// assumption that drift is linear over the whole run does not hold for
// long runs.

// Anchor is one offset measurement for interpolation: the rank's local
// clock reading Local at which its offset to the reference was Offset
// (local − reference, the repository-wide sign convention).
type Anchor struct {
	Local, Offset float64
}

// Interpolation corrects one rank's timestamps from two anchors.
type Interpolation struct {
	Begin, End Anchor
}

// Correct maps a local clock reading onto the reference axis by removing
// the linearly interpolated offset.
func (ip Interpolation) Correct(local float64) float64 {
	span := ip.End.Local - ip.Begin.Local
	if span == 0 {
		return local - ip.Begin.Offset
	}
	frac := (local - ip.Begin.Local) / span
	off := ip.Begin.Offset + frac*(ip.End.Offset-ip.Begin.Offset)
	return local - off
}
