// Package journal is the durable write-ahead log and snapshot store of
// the control plane: every state transition the executor and the replan
// controller make is appended as a typed, CRC-framed record, and periodic
// snapshots capture the full control-plane state (virtual clock cursor,
// trial/gang state, accrued billing, replan EWMAs, RNG stream cursors).
//
// Recovery is deterministic re-execution validated against the log —
// state-machine replication with the chaos harness's purity guarantee as
// the replication substrate. Because the whole pipeline is a pure
// function of (seed, plan), re-running the scenario rebuilds the exact
// in-memory state; the journal's role is to make that rebuild
// *verifiable*: every regenerated record must match the journaled prefix
// byte for byte, and at every snapshot point the rebuilt state must
// encode to the stored snapshot exactly. Any divergence — nondeterminism,
// a corrupted record, a foreign journal — fails loudly instead of
// silently resuming a different run. Past the journaled tail the writer
// switches back to appending, so a recovered run leaves behind the same
// journal an uninterrupted run would have written.
//
// Two backends implement the same framed format: MemBackend for tests
// and FileBackend, which stores records in rolling segment files
// (journal-NNNNNN.seg) and snapshots in per-sequence files
// (snap-*.snap). Decoding stops cleanly at the first torn or
// CRC-corrupt record and reports the damage; nothing after a damaged
// record is ever trusted.
package journal

import (
	"fmt"

	"repro/internal/trace"
)

// Version is the journal format version, embedded in every run header.
// Decoders reject records from a different version rather than guessing.
const Version = 1

// Record type tags (the first payload byte of every record).
const (
	tagHeader   = 1
	tagTrace    = 2
	tagDecision = 3
	tagEnd      = 4
	tagSnapshot = 5
	tagGrant    = 6
)

// maxLen bounds every length-prefixed field (plans, strings, trial lists)
// so a corrupt or adversarial length prefix cannot drive allocation.
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
	// Interval is the snapshot interval in records (0 = no snapshots).
	// Stored so a resumed writer snapshots at the same points.
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

// TraceEvent is one executor state transition, mirroring trace.Event with
// the digest-relevant fields only. Presentation notes are deliberately
// not journaled: they are excluded from run digests, and keeping records
// fixed-width makes segment capacity math exact.
type TraceEvent struct {
	At    float64
	Kind  trace.Kind
	Stage int64
	Trial int64
	GPUs  int64
	Nodes int64
}

// kindCode returns the wire code of a known trace kind: its trace code
// plus one, so 0 stays free for kinds that travel as strings. The trace
// package fixes the code order; appending new kinds there is
// forward-compatible, reordering is not.
func kindCode(k trace.Kind) (byte, bool) {
	c, ok := trace.KindCode(k)
	return c + 1, ok
}

// FromTrace converts a trace event to its journal record. Observed events
// carry no note (notes are rendered on read, for display only), and a
// note on any other event is dropped.
func FromTrace(e trace.Event) *TraceEvent {
	return &TraceEvent{
		At: float64(e.At), Kind: e.Kind,
		Stage: int64(e.Stage), Trial: int64(e.Trial),
		GPUs: int64(e.GPUs), Nodes: int64(e.Nodes),
	}
}

// Encode implements Record. Known kinds encode as one code byte; unknown
// kinds carry the string (code 0), so new event kinds journal before the
// code table learns them.
func (e *TraceEvent) Encode() []byte {
	b := newEnc(tagTrace)
	if c, ok := kindCode(e.Kind); ok {
		b.u8(c)
	} else {
		b.u8(0)
		b.str(string(e.Kind))
	}
	b.f64(e.At)
	b.i64(e.Stage)
	b.i64(e.Trial)
	b.i64(e.GPUs)
	b.i64(e.Nodes)
	return b.bytes()
}

// Reason wire codes for Decision records.
const (
	reasonOther      = 0 // carries the string
	reasonDrift      = 1
	reasonPreemption = 2
)

// Decision is a replan decision's full payload — the part of controller
// state a trace event's note only renders as text.
type Decision struct {
	Seq               int64
	At                float64
	Reason            string
	Stage             int64
	Ratio             float64
	RemainingDeadline float64
	OldAlloc          []int64
	NewAlloc          []int64
	StaleJCT          float64
	StaleCost         float64
	NewJCT            float64
	NewCost           float64
	Adopted           bool
	Infeasible        bool
}

// Encode implements Record.
func (d *Decision) Encode() []byte {
	b := newEnc(tagDecision)
	b.i64(d.Seq)
	b.f64(d.At)
	switch d.Reason {
	case "drift":
		b.u8(reasonDrift)
	case "preemption":
		b.u8(reasonPreemption)
	default:
		b.u8(reasonOther)
		b.str(d.Reason)
	}
	b.i64(d.Stage)
	b.f64(d.Ratio)
	b.f64(d.RemainingDeadline)
	b.i64s(d.OldAlloc)
	b.i64s(d.NewAlloc)
	b.f64(d.StaleJCT)
	b.f64(d.StaleCost)
	b.f64(d.NewJCT)
	b.f64(d.NewCost)
	var flags byte
	if d.Adopted {
		flags |= 1
	}
	if d.Infeasible {
		flags |= 2
	}
	b.u8(flags)
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
// journal without an End record is a crashed run.
type End struct {
	JCT       float64
	Cost      float64
	BestTrial int64
}

// Encode implements Record.
func (e *End) Encode() []byte {
	b := newEnc(tagEnd)
	b.f64(e.JCT)
	b.f64(e.Cost)
	b.i64(e.BestTrial)
	return b.bytes()
}

// DecodeRecord parses one canonical record payload. It rejects trailing
// bytes, unknown tags, non-canonical encodings (a known kind or reason
// spelled as a string, flag bits outside the defined set) and any
// length prefix past maxLen — Decode(Encode(r)) re-encoding byte-identically
// is the codec's contract.
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
	case tagTrace:
		e := &TraceEvent{}
		var c byte
		if c, err = d.u8(); err == nil {
			if c == 0 {
				s := d.mustStr(&err)
				if _, known := kindCode(trace.Kind(s)); known {
					return nil, fmt.Errorf("journal: non-canonical kind string %q", s)
				}
				e.Kind = trace.Kind(s)
			} else if k, ok := trace.KnownKind(c - 1); ok {
				e.Kind = k
			} else {
				return nil, fmt.Errorf("journal: unknown kind code %d", c)
			}
		}
		e.At = d.mustF64(&err)
		e.Stage = d.mustI64(&err)
		e.Trial = d.mustI64(&err)
		e.GPUs = d.mustI64(&err)
		e.Nodes = d.mustI64(&err)
		rec = e
	case tagDecision:
		dec := &Decision{}
		dec.Seq = d.mustI64(&err)
		dec.At = d.mustF64(&err)
		var c byte
		if err == nil {
			if c, err = d.u8(); err == nil {
				switch c {
				case reasonDrift:
					dec.Reason = "drift"
				case reasonPreemption:
					dec.Reason = "preemption"
				case reasonOther:
					s := d.mustStr(&err)
					if s == "drift" || s == "preemption" {
						return nil, fmt.Errorf("journal: non-canonical reason string %q", s)
					}
					dec.Reason = s
				default:
					return nil, fmt.Errorf("journal: unknown reason code %d", c)
				}
			}
		}
		dec.Stage = d.mustI64(&err)
		dec.Ratio = d.mustF64(&err)
		dec.RemainingDeadline = d.mustF64(&err)
		dec.OldAlloc = d.mustI64s(&err)
		dec.NewAlloc = d.mustI64s(&err)
		dec.StaleJCT = d.mustF64(&err)
		dec.StaleCost = d.mustF64(&err)
		dec.NewJCT = d.mustF64(&err)
		dec.NewCost = d.mustF64(&err)
		if err == nil {
			var flags byte
			if flags, err = d.u8(); err == nil {
				if flags&^byte(3) != 0 {
					return nil, fmt.Errorf("journal: undefined decision flags %#x", flags)
				}
				dec.Adopted = flags&1 != 0
				dec.Infeasible = flags&2 != 0
			}
		}
		rec = dec
	case tagEnd:
		e := &End{}
		e.JCT = d.mustF64(&err)
		e.Cost = d.mustF64(&err)
		e.BestTrial = d.mustI64(&err)
		rec = e
	case tagGrant:
		g := &Grant{}
		g.Stage = d.mustI64(&err)
		g.Want = d.mustI64(&err)
		g.Granted = d.mustI64(&err)
		g.At = d.mustF64(&err)
		rec = g
	case tagSnapshot:
		s, serr := decodeSnapshot(d)
		if serr != nil {
			return nil, serr
		}
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
