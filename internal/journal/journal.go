// Package journal is the durable log of the control plane. It keeps a
// run's inputs, not its outputs: a Header (identity and executed plan),
// one Grant per stage-boundary arbitration and an End, each a typed,
// CRC-framed record synced before it takes effect. The harness folds
// every trace event and replan decision into one fingerprint instead,
// and folds the control-plane state (clock cursor, plan, trial states,
// scheduler fold, billing, RNG cursors, replan detector) into another;
// a Snapshot every interval events carries both, inline in the same
// log, and End carries the final event fold.
//
// Recovery is deterministic re-execution validated against the journal.
// The pipeline is a pure function of (seed, plan, grants), so re-running
// the scenario rebuilds the exact state; the journal feeds the rebuild
// its inputs and makes it *verifiable*: the i-th regenerated write,
// record or snapshot, must match the i-th journaled one byte for byte.
// A differing input is caught at its record, a differing event history
// or state at the next snapshot (within one snapshot interval) or at
// End. Any divergence fails loudly instead of silently resuming a
// different run. Past the journaled tail the writer appends, so a
// recovered run leaves behind the journal an uninterrupted run would
// have written.
//
// A run's journal is one ordered list of framed writes. MemBackend
// (tests) keeps it in memory and FileBackend in one file per run
// directory; both store the same bytes. Decoding stops cleanly at the
// first torn or CRC-corrupt frame and reports the damage; nothing after
// it is ever trusted.
package journal

import "fmt"

// Version is the journal format version, embedded in every run header.
// Decoders reject records from a different version rather than guessing.
const Version = 3

// Record type tags (the first payload byte of every record). Tags 2 and
// 3, version 1's trace-event and decision records, are retired.
const (
	tagHeader   = 1
	tagEnd      = 4
	tagSnapshot = 5
	tagGrant    = 6
)

// maxLen bounds every length prefix (a frame's, a plan allocation's) so
// a corrupt or adversarial length prefix cannot drive allocation.
const maxLen = 1 << 20

// Record is one typed journal entry. Encodings are canonical: for every
// valid record, Decode(Encode(r)) re-encodes to the identical bytes
// (FuzzJournalRoundTrip holds the codec to this).
type Record interface {
	// Encode renders the record's canonical byte encoding, including the
	// leading type tag.
	Encode() []byte
}

// Header is the first record of every journal: the run's identity and
// the journaling parameters recovery must reproduce.
type Header struct {
	// BatchSeed and Index identify the scenario (a run is a pure function
	// of this pair); recovery refuses a journal written by a different
	// run.
	BatchSeed uint64
	Index     int64
	// Interval is the snapshot interval in observed events (0 = no
	// snapshots). Stored so a resumed writer snapshots at the same points.
	Interval uint64
	// Deadline is the sampled job deadline in seconds.
	Deadline float64
	// Planned reports whether the elastic planner produced the plan
	// (false = infeasible-deadline fallback).
	Planned bool
	// Alloc is the executed plan's per-stage GPU allocation.
	Alloc []int64
}

// Encode implements Record.
func (h *Header) Encode() []byte {
	b := newEnc(tagHeader)
	b.u16(Version)
	b.u64(h.BatchSeed)
	b.i64(h.Index)
	b.u64(h.Interval)
	b.f64(h.Deadline)
	b.bool(h.Planned)
	b.i64s(h.Alloc)
	return b.bytes()
}

// Grant records one stage-boundary arbitration: the cross-experiment
// arbiter received a request for Want GPUs at stage Stage (virtual time
// At) and granted Granted. Grants are part of the verified prefix, so
// recovery re-derives the identical allocation sequence — a recovered
// run replays the journaled grants instead of consulting a live arbiter
// whose other tenants are gone.
type Grant struct {
	Stage   int64
	Want    int64
	Granted int64
	At      float64
}

// Encode implements Record.
func (g *Grant) Encode() []byte {
	b := newEnc(tagGrant)
	b.i64(g.Stage)
	b.i64(g.Want)
	b.i64(g.Granted)
	b.f64(g.At)
	return b.bytes()
}

// End closes a journal: the run completed and produced a result. A
// journal without an End record is a crashed run. Fold is the run's
// final event fold, so recovery checks the whole event history at End.
type End struct {
	JCT       float64
	Cost      float64
	BestTrial int64
	Fold      uint64
}

// Encode implements Record.
func (e *End) Encode() []byte {
	b := newEnc(tagEnd)
	b.f64(e.JCT)
	b.f64(e.Cost)
	b.i64(e.BestTrial)
	b.u64(e.Fold)
	return b.bytes()
}

// Snapshot fingerprints the run after its Seq-th observed event: Fold is
// the cumulative fold of those events and State the fold of the
// control-plane state they led to. Snapshots are verified fingerprints,
// not restore images: recovery re-executes the pure pipeline and the
// rebuilt snapshot must encode to the journaled one byte for byte.
type Snapshot struct {
	// Seq is the number of events (trace events and replan decisions)
	// the run had observed when the snapshot was taken.
	Seq uint64
	// Fold is the cumulative fingerprint of those Seq events (the
	// harness folds each one as its run digest does).
	Fold uint64
	// State is the harness's fingerprint of the control-plane state:
	// clock cursor, live plan, trial states, scheduler fold, billing,
	// RNG cursors and replan detector state.
	State uint64
}

// Encode implements Record.
func (s *Snapshot) Encode() []byte {
	b := newEnc(tagSnapshot)
	b.u64(s.Seq)
	b.u64(s.Fold)
	b.u64(s.State)
	return b.bytes()
}

// DecodeRecord parses one canonical record payload. It rejects trailing
// bytes, unknown tags, non-canonical booleans and any length prefix past
// maxLen — Decode(Encode(r)) re-encoding byte-identically is the
// codec's contract.
func DecodeRecord(payload []byte) (Record, error) {
	d := newDec(payload)
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	var rec Record
	switch tag {
	case tagHeader:
		h := &Header{}
		var v uint16
		if v, err = d.u16(); err == nil && v != Version {
			return nil, fmt.Errorf("journal: header version %d, want %d", v, Version)
		}
		h.BatchSeed = d.mustU64(&err)
		h.Index = d.mustI64(&err)
		h.Interval = d.mustU64(&err)
		h.Deadline = d.mustF64(&err)
		h.Planned = d.mustBool(&err)
		h.Alloc = d.mustI64s(&err)
		rec = h
	case tagEnd:
		e := &End{}
		e.JCT = d.mustF64(&err)
		e.Cost = d.mustF64(&err)
		e.BestTrial = d.mustI64(&err)
		e.Fold = d.mustU64(&err)
		rec = e
	case tagGrant:
		g := &Grant{}
		g.Stage = d.mustI64(&err)
		g.Want = d.mustI64(&err)
		g.Granted = d.mustI64(&err)
		g.At = d.mustF64(&err)
		rec = g
	case tagSnapshot:
		s := &Snapshot{}
		s.Seq = d.mustU64(&err)
		s.Fold = d.mustU64(&err)
		s.State = d.mustU64(&err)
		rec = s
	default:
		return nil, fmt.Errorf("journal: unknown record tag %d", tag)
	}
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return rec, nil
}
