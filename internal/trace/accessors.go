package trace

// Oracle-facing event accessors: the chaos harness (internal/harness)
// checks system-wide invariants over recorded traces, and needs cheap,
// allocation-honest views of the event log without re-implementing
// filtering at every call site. Filters scan single columns of the
// columnar log and materialize only the matching events, note-free
// (FieldsAt): oracles judge fields, never presentation text.

// Filter returns the recorded events of the given kind, in record order.
// Nil on a nil recorder.
func (r *Recorder) Filter(kind Kind) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i, m := range r.meta {
		if metaKind(m) == kind {
			out = append(out, r.FieldsAt(i))
		}
	}
	return out
}

// ByTrial groups trial-scoped events (Trial >= 0) by trial ID, preserving
// record order within each trial. Events with Trial < 0 (stage- or
// cluster-scoped) are omitted. Nil on a nil recorder.
func (r *Recorder) ByTrial() map[int][]Event {
	if r == nil {
		return nil
	}
	out := make(map[int][]Event)
	for i, id := range r.trial {
		if id < 0 {
			continue
		}
		out[int(id)] = append(out[int(id)], r.FieldsAt(i))
	}
	return out
}
