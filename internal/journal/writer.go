package journal

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrCrash is the injected control-plane kill: a Writer with an armed
// crash point returns it (wrapped in nothing) instead of appending the
// crash record, simulating the process dying mid-run with only the
// already-framed bytes durable. The chaos harness's crash/restart fault
// model checks for it with errors.Is.
var ErrCrash = errors.New("journal: injected crash")

// ErrDiverged means a recovery's re-executed run produced a record or
// snapshot that differs from the journaled one: the rebuild is not the
// run that wrote the journal (nondeterminism, a foreign journal, or
// corruption that slipped past the CRC). Recovery must stop rather than
// silently resume a different run.
var ErrDiverged = errors.New("journal: replay diverged from journal")

// RawAppender is implemented by backends that can persist raw bytes
// without framing — the torn-write fault-injection hook used to simulate
// a crash mid-append.
type RawAppender interface {
	AppendRaw(b []byte) error
}

// Writer is the journaling front end: records stream through Record,
// snapshots are captured every Interval records via the registered
// snapshot function, and crash points can be armed for fault injection.
//
// A Writer returned by Resume starts in verify mode: each regenerated
// record is byte-compared against the journaled prefix (and each rebuilt
// snapshot against the stored one) instead of being appended; after the
// prefix is exhausted the Writer switches to appending, so a recovered
// run leaves behind exactly the journal an uninterrupted run would have
// written. The first error — divergence, crash, backend failure — is
// latched: every subsequent Record returns it, so callbacks may ignore
// individual return values and the driver polls Err between clock steps.
type Writer struct {
	b        Backend
	interval uint64
	snapFn   func() *Snapshot

	prefix [][]byte
	snaps  map[uint64][]byte
	seq    uint64

	crashArmed bool
	crashSeq   uint64
	crashTorn  int

	err error
}

// NewWriter returns an appending Writer over an empty (or to-be-
// overwritten) backend. interval is the snapshot interval in records
// (0 disables snapshots).
func NewWriter(b Backend, interval uint64) *Writer {
	return &Writer{b: b, interval: interval, snaps: make(map[uint64][]byte)}
}

// Resume opens an existing journal for recovery. It loads and validates
// every frame, truncates any damage (torn tail, CRC-corrupt suffix) so
// appends continue cleanly from the last trusted record, and returns a
// Writer in verify mode over the trusted prefix, the decoded run header
// (nil when the journal holds no complete record), and a description of
// the damage that was truncated (empty for a clean journal).
//
// interval is the configured snapshot interval, used only when the
// journal holds no header yet (a crash before anything durable): a
// journaled header always overrides it, so recovery snapshots at exactly
// the original run's points.
//
// The caller must re-execute the run that wrote the journal and stream
// its records through Writer.Record; the Writer verifies the prefix and
// then appends the remainder.
func Resume(b Backend, interval uint64) (*Writer, *Header, string, error) {
	raw, err := b.Load()
	if err != nil {
		return nil, nil, "", err
	}
	damage := raw.Damage
	if damage != "" {
		if err := b.Truncate(len(raw.Records)); err != nil {
			return nil, nil, damage, err
		}
	}
	w := &Writer{b: b, interval: interval, prefix: raw.Records, snaps: raw.Snapshots}
	if w.snaps == nil {
		w.snaps = make(map[uint64][]byte)
	}
	if len(raw.Records) == 0 {
		return w, nil, damage, nil
	}
	rec, err := DecodeRecord(raw.Records[0])
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

// Interval returns the snapshot interval in records (0 = disabled).
func (w *Writer) Interval() uint64 { return w.interval }

// Seq returns the number of records recorded (verified or appended).
func (w *Writer) Seq() uint64 { return w.seq }

// Err returns the latched error, if any. The harness's clock-step loop
// polls it so a crash or divergence inside an event callback stops the
// run at the next step boundary.
func (w *Writer) Err() error { return w.err }

// SetSnapshotFunc registers the state-capture callback invoked at every
// snapshot interval. The callback must be a pure read of control-plane
// state (no RNG draws, no mutation) so that snapshotting is invisible to
// the run's digest. A nil return skips the snapshot.
func (w *Writer) SetSnapshotFunc(fn func() *Snapshot) { w.snapFn = fn }

// SetCrashPoint arms fault injection: the Writer returns ErrCrash when
// it is about to record the record whose sequence number is seq, leaving
// the journal with exactly seq records plus torn bytes of the fatal
// record's frame (clamped below a complete frame; 0 = clean kill at a
// record boundary).
func (w *Writer) SetCrashPoint(seq uint64, torn int) {
	w.crashArmed = true
	w.crashSeq = seq
	w.crashTorn = torn
}

// Record streams one record through the Writer: verified against the
// resumed prefix or durably appended, with snapshot capture/verification
// at interval boundaries. The first error is latched.
func (w *Writer) Record(r Record) error {
	if w.err != nil {
		return w.err
	}
	payload := r.Encode()
	if w.crashArmed && w.seq == w.crashSeq {
		// Simulated kill: the record is lost; at most a torn prefix of its
		// frame reaches the store (and only when actually appending — a
		// crash inside a verified prefix writes nothing new).
		if w.crashTorn > 0 && int(w.seq) >= len(w.prefix) {
			if ra, ok := w.b.(RawAppender); ok {
				fr := frame(payload)
				t := w.crashTorn
				if t >= len(fr) {
					t = len(fr) - 1
				}
				if err := ra.AppendRaw(fr[:t]); err != nil {
					w.err = err
					return err
				}
			}
		}
		w.err = ErrCrash
		return w.err
	}
	if int(w.seq) < len(w.prefix) {
		if !bytes.Equal(payload, w.prefix[w.seq]) {
			w.err = fmt.Errorf("record %d: regenerated %d bytes != journaled %d bytes: %w",
				w.seq, len(payload), len(w.prefix[w.seq]), ErrDiverged)
			return w.err
		}
	} else {
		if err := w.b.Append(payload); err != nil {
			w.err = err
			return err
		}
	}
	w.seq++
	if w.interval > 0 && w.seq%w.interval == 0 {
		if err := w.snapshot(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Observe is Record for event-callback call sites that cannot propagate
// an error (trace and replan observers return nothing): the first
// failure is latched and re-surfaced by Err, which the run's step loop
// polls between clock events.
func (w *Writer) Observe(r Record) {
	if err := w.Record(r); err != nil {
		w.err = err
	}
}

// snapshot captures the control-plane state at the current sequence and
// either verifies it against the stored snapshot (recovery) or persists
// it. A snapshot missing from a resumed journal (dropped with a damaged
// tail) is re-persisted so the recovered journal matches the
// uninterrupted one's.
func (w *Writer) snapshot() error {
	if w.snapFn == nil {
		return nil
	}
	s := w.snapFn()
	if s == nil {
		return nil
	}
	s.Seq = w.seq
	payload := s.Encode()
	if stored, ok := w.snaps[w.seq]; ok {
		if !bytes.Equal(payload, stored) {
			return fmt.Errorf("snapshot at record %d: rebuilt state (%d bytes) != stored snapshot (%d bytes): %w",
				w.seq, len(payload), len(stored), ErrDiverged)
		}
		return nil
	}
	if err := w.b.PutSnapshot(w.seq, payload); err != nil {
		return err
	}
	w.snaps[w.seq] = payload
	return nil
}
