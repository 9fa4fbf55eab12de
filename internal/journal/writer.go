package journal

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrCrash is the injected control-plane kill: a Writer with an armed
// crash point returns it (wrapped in nothing) instead of making the
// crash write, simulating the process dying mid-run with only the
// already-written bytes durable. The chaos harness's crash/restart fault
// model checks for it with errors.Is.
var ErrCrash = errors.New("journal: injected crash")

// ErrDiverged means a recovery's re-executed run produced a record or
// snapshot that differs from the journaled one: the rebuild is not the
// run that wrote the journal (nondeterminism, a foreign journal, or
// corruption that slipped past the CRC). Recovery must stop rather than
// silently resume a different run.
var ErrDiverged = errors.New("journal: replay diverged from journal")

// RawAppender is implemented by backends that can persist raw bytes
// without framing — the fault-injection hook that tears a write, as a
// crash mid-write does.
type RawAppender interface {
	AppendRaw(b []byte) error
}

// Writer is the journaling front end: input records stream through
// Record, observed events are counted through Event, snapshots are
// taken every Interval events via the registered snapshot function, and
// crash points can be armed for fault injection.
//
// A Writer returned by Resume starts in verify mode: the i-th write the
// re-executed run makes, record or snapshot, is byte-compared against
// the i-th journaled one instead of being written; after the journaled
// writes are exhausted the Writer switches to appending, so a recovered
// run leaves behind exactly the journal an uninterrupted run would have
// written. The first error — divergence, crash, backend failure — is
// latched: every subsequent Record returns it, so callbacks may ignore
// individual return values and the driver polls Err between clock steps.
type Writer struct {
	b        Backend
	interval uint64
	snapFn   func() Snapshot

	// prefix holds the journaled writes a resumed Writer verifies.
	prefix [][]byte
	// writes counts records and snapshots, the unit of crash points.
	writes, events uint64

	crashArmed bool
	crashSeq   uint64
	crashTorn  int

	err error
}

// NewWriter returns an appending Writer over an empty (or to-be-
// overwritten) backend. interval is the snapshot interval in observed
// events (0 disables snapshots).
func NewWriter(b Backend, interval uint64) *Writer {
	return &Writer{b: b, interval: interval}
}

// Resume opens an existing journal for recovery. It loads and validates
// every frame, truncates any damage (torn tail, CRC-corrupt suffix) so
// appends continue cleanly from the last trusted write, and returns a
// Writer in verify mode over the trusted writes, the decoded run header
// (nil when the journal holds no complete write), and a description of
// the damage that was truncated (empty for a clean journal). A journal
// whose header is of another Version is refused with the decoder's
// version error.
//
// interval is the configured snapshot interval, used only when the
// journal holds no header yet (a crash before anything durable): a
// journaled header always overrides it, so recovery snapshots at exactly
// the original run's points.
//
// The caller must re-execute the run that wrote the journal and stream
// its records and events through the Writer; the Writer verifies the
// journaled writes and then appends the remainder.
func Resume(b Backend, interval uint64) (*Writer, *Header, string, error) {
	raw, err := b.Load()
	if err != nil {
		return nil, nil, "", err
	}
	damage := raw.Damage
	if damage != "" {
		if err := b.Truncate(len(raw.Writes)); err != nil {
			return nil, nil, damage, err
		}
	}
	w := &Writer{b: b, interval: interval, prefix: raw.Writes}
	if len(raw.Writes) == 0 {
		return w, nil, damage, nil
	}
	rec, err := DecodeRecord(raw.Writes[0])
	if err != nil {
		return nil, nil, damage, fmt.Errorf("journal: undecodable header record: %w", err)
	}
	hdr, ok := rec.(*Header)
	if !ok {
		return nil, nil, damage, fmt.Errorf("journal: first record is %T, not a run header", rec)
	}
	w.interval = hdr.Interval
	return w, hdr, damage, nil
}

// Interval returns the snapshot interval in observed events (0 =
// disabled).
func (w *Writer) Interval() uint64 { return w.interval }

// Seq returns the number of durable writes made so far, verified or
// appended: records and snapshots alike, the unit of SetCrashPoint.
func (w *Writer) Seq() uint64 { return w.writes }

// Err returns the latched error, if any. The harness's clock-step loop
// polls it so a crash or divergence inside an event callback stops the
// run at the next step boundary.
func (w *Writer) Err() error { return w.err }

// SetSnapshotFunc registers the state-capture callback invoked at every
// snapshot interval. The callback must be a pure read of control-plane
// state (no RNG draws, no mutation) so that snapshotting is invisible to
// the run's digest. The Writer sets the snapshot's Seq.
func (w *Writer) SetSnapshotFunc(fn func() Snapshot) { w.snapFn = fn }

// SetCrashPoint arms fault injection: the Writer returns ErrCrash when
// it is about to make durable write seq (0-based, records and snapshots
// counted alike, see Seq), leaving the journal with exactly the seq
// writes before it plus torn bytes of the fatal write's frame (clamped
// below a complete frame; 0 = clean kill at a write boundary).
func (w *Writer) SetCrashPoint(seq uint64, torn int) {
	w.crashArmed = true
	w.crashSeq = seq
	w.crashTorn = torn
}

// put makes the next write, a snapshot or a record: it verifies
// payload against the journaled write at the same position or, past the
// journaled writes, persists it. An armed crash point at this write
// latches ErrCrash instead; a torn crash of a fresh write (a crash
// inside the verified writes writes nothing new) first leaves a prefix
// of payload's frame, clamped below a complete frame. The first error
// is latched.
func (w *Writer) put(payload []byte, snapshot bool) error {
	if w.err != nil {
		return w.err
	}
	fresh := w.writes >= uint64(len(w.prefix))
	if w.crashArmed && w.writes == w.crashSeq {
		w.err = ErrCrash
		if ra, ok := w.b.(RawAppender); ok && fresh && w.crashTorn > 0 {
			fr := frame(payload)
			if err := ra.AppendRaw(fr[:min(w.crashTorn, len(fr)-1)]); err != nil {
				w.err = err
			}
		}
		return w.err
	}
	if !fresh {
		if journaled := w.prefix[w.writes]; !bytes.Equal(payload, journaled) {
			kind := "record"
			if snapshot {
				kind = "snapshot"
			}
			w.err = fmt.Errorf("write %d (%s after event %d): regenerated %d bytes != journaled %d bytes: %w",
				w.writes, kind, w.events, len(payload), len(journaled), ErrDiverged)
			return w.err
		}
	} else if err := w.persist(payload, snapshot); err != nil {
		w.err = err
		return err
	}
	w.writes++
	return nil
}

// persist appends a fresh write: a snapshot as it is, a record synced,
// so the input is durable before the run acts on it.
func (w *Writer) persist(payload []byte, snapshot bool) error {
	if snapshot {
		return w.b.PutSnapshot(w.events, payload)
	}
	if err := w.b.Append(payload); err != nil {
		return err
	}
	return w.b.Sync()
}

// Record streams one input record through the Writer: verified against
// the resumed journal, or appended and synced.
func (w *Writer) Record(r Record) error { return w.put(r.Encode(), false) }

// Event counts one observed trace event or replan decision and, every
// interval events, takes a snapshot. Observers cannot propagate an
// error, so a failure is latched and re-surfaced by Err, which the run's
// step loop polls between clock events.
func (w *Writer) Event() {
	if w.err != nil {
		return
	}
	w.events++
	if w.interval == 0 || w.events%w.interval != 0 || w.snapFn == nil {
		return
	}
	s := w.snapFn()
	s.Seq = w.events
	//rbvet:ignore droppederr — put latches the error, and Err re-surfaces it
	_ = w.put(s.Encode(), true)
}
