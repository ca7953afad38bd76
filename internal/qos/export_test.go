package qos

// Overrides reports how many per-class parent overrides the row holds, for
// the external tests that price rows.
func (r *Result) Overrides() int { return len(r.over) }
