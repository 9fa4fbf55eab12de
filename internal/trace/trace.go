// Package trace records typed execution events and resource timelines
// during an experiment run, for post-hoc analysis (utilization, cost
// curves, Table 3-style schedules) and debugging.
package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/vclock"
)

// Kind classifies an event. A kind's value is its code, which the
// recorder packs into an event's meta word. Append new kinds; never
// reorder or reuse a slot.
type Kind uint8

// Event kinds, all recorded by the executor. Codes 9 and 12 are
// reserved: they belonged to retired kinds.
const (
	KindStageStart Kind = iota
	KindStageEnd
	KindTrialStart
	KindTrialIter
	KindTrialPause
	KindTrialKill
	KindTrialDone
	KindScaleUp
	KindScaleDown
	_
	KindCheckpoint
	KindRestore
	_
	// KindDriftTrigger marks the replan controller's drift detector firing
	// (EWMA of observed-vs-predicted latency past its threshold, or a
	// preemption-initiated trigger). KindReplan marks the resulting replan
	// decision; its note carries the spliced plan and adoption outcome.
	KindDriftTrigger
	KindReplan
)

// kindNames spells each kind, indexed by its code; a reserved code has
// no name.
var kindNames = [...]string{
	KindStageStart:   "stage_start",
	KindStageEnd:     "stage_end",
	KindTrialStart:   "trial_start",
	KindTrialIter:    "trial_iter",
	KindTrialPause:   "trial_pause",
	KindTrialKill:    "trial_kill",
	KindTrialDone:    "trial_done",
	KindScaleUp:      "scale_up",
	KindScaleDown:    "scale_down",
	KindCheckpoint:   "checkpoint",
	KindRestore:      "restore",
	KindDriftTrigger: "drift_trigger",
	KindReplan:       "replan",
}

// Valid reports whether k is a kind: a code up to KindReplan that is
// not reserved.
func (k Kind) Valid() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// String returns the kind's name, the text the digest folds and the CSV
// and JSON views print, or "kind(N)" for a code that names no kind.
func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText implements encoding.TextMarshaler, so JSON spells a kind
// by its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded occurrence.
type Event struct {
	At    vclock.Time `json:"at"`
	Kind  Kind        `json:"kind"`
	Stage int         `json:"stage"`
	Trial int         `json:"trial"`
	// Note is presentation-only text for humans: it is rendered when an
	// event is read for display (EventAt, Events, WriteCSV), and is empty
	// in the note-free views (FieldsAt, the oracle accessors, the
	// observer) that digests and journals consume.
	Note string `json:"note,omitempty"`
	// GPUs and Nodes carry the structured gang shape for events that
	// describe a placement (KindTrialStart): the trial's total GPU count
	// and the number of distinct nodes its workers span. Zero for events
	// recorded without placement information.
	GPUs  int `json:"gpus,omitempty"`
	Nodes int `json:"nodes,omitempty"`
}

// noteForm says how an event's note is rendered on read.
type noteForm uint8

const (
	// noteText: the free-form text given to Record, if any.
	noteText noteForm = iota
	// noteAcc: "acc=%.4f" of the accuracy bits in the arg column
	// (RecordIter).
	noteAcc
	// noteGang: "%d GPUs on %d nodes" of the gang shape packed into the
	// arg column (RecordGang).
	noteGang
)

// The meta column packs an event's kind into bits 0–7, its note
// form into bits 8–9 and its stage, signed, into bits 10–31.
const (
	formShift  = 8
	stageShift = 10
	// MinStage and MaxStage bound the stage an event records: the meta
	// column keeps it in 22 signed bits. Recording a stage outside them
	// panics.
	MinStage = -1 << 21
	MaxStage = 1<<21 - 1
)

// packMeta packs a note form and stage into a meta word, for the kind
// to be or-ed in.
func packMeta(form noteForm, stage int) uint32 {
	if stage < MinStage || stage > MaxStage {
		stageOutOfRange(stage)
	}
	return uint32(form)<<formShift | uint32(stage)<<stageShift
}

// stageOutOfRange panics for a stage the meta column cannot hold.
func stageOutOfRange(stage int) {
	panic(fmt.Sprintf("trace: stage %d outside [%d, %d]", stage, MinStage, MaxStage))
}

// arenaOverflow panics for a note arena of n bytes, past the 4 GiB a
// span holds.
func arenaOverflow(n int) {
	panic(fmt.Sprintf("trace: note arena of %d bytes past 4 GiB", n))
}

// metaKind, metaForm and metaStage unpack a meta word.
func metaKind(m uint32) Kind     { return Kind(m) }
func metaForm(m uint32) noteForm { return noteForm(m >> formShift & 3) }
func metaStage(m uint32) int32   { return int32(m) >> stageShift }

// Recorder accumulates events and GPU-usage accounting. Events are
// stored column-wise (struct-of-arrays): fleet-scale runs record
// millions of events, and the digest and oracle passes that dominate
// read traffic scan one or two fields of every event — columnar layout
// keeps those scans inside a few contiguous arrays instead of striding
// over full structs. An event takes 24 bytes in four columns: its time
// (8); one argument word (8) that holds whatever its note form renders
// (the accuracy's bits for RecordIter, the gang shape for RecordGang,
// the span of a free-form note in the note arena otherwise); its trial
// (4); and a meta word (4) that packs its kind (8 bits), note form (2
// bits) and stage (22 bits, signed: MinStage to MaxStage; a stage
// outside them panics). Recording never formats text: hot-path notes
// are kept in the typed argument and rendered on read, and the few
// events with free-form text copy it into a byte arena, so a warm
// recorder records notes without allocating. The zero
// value is ready to use; a nil *Recorder is also valid and discards
// everything, so callers need no nil checks. Freeze hands out a copy at
// exactly its size that shares nothing with the recorder, so one
// recorder can record run after run.
type Recorder struct {
	at    []vclock.Time
	arg   []uint64
	trial []int32
	meta  []uint32
	// text is the arena free-form notes are copied into; a noted event's
	// argument word holds its note's span there.
	text []byte
	// busyGPUSeconds accumulates task-occupied GPU time, for utilization.
	busyGPUSeconds float64
	// observer, when non-nil, receives every event as it is recorded —
	// the hook a journaled run's event fold hangs on.
	observer func(Event)
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Reset empties the recorder, keeping its columns' and arena's
// capacity: a recycled recorder records its next run without growing
// them again. It drops the observer and the notes, so nothing recorded
// before carries into what is recorded next. No-op on a nil recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	*r = Recorder{
		at: r.at[:0], arg: r.arg[:0], trial: r.trial[:0], meta: r.meta[:0],
		text: r.text[:0],
	}
}

// Freeze returns a copy of r — its events, notes and busy time, every
// column and the arena at exactly its length —
// without r's observer. The copy shares nothing with r, so r may be
// reset and record another run while the copy lives on unchanged. Nil
// on a nil recorder.
func (r *Recorder) Freeze() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{
		at: exact(r.at), arg: exact(r.arg), trial: exact(r.trial), meta: exact(r.meta),
		text:           exact(r.text),
		busyGPUSeconds: r.busyGPUSeconds,
	}
}

// exact returns a copy of s with capacity len(s), nil when s is empty.
func exact[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// SetObserver registers fn to receive every subsequently recorded event,
// synchronously and in record order, without its note. A journaled run
// subscribes here to fold every event into the fingerprint its journal
// snapshots and End record carry. No-op on a nil recorder.
func (r *Recorder) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.observer = fn
}

// packGang packs a gang shape into an argument word, each count
// truncated to 32 bits.
func packGang(gpus, nodes int) uint64 {
	return uint64(uint32(gpus))<<32 | uint64(uint32(nodes))
}

// gangOf unpacks the gang shape of argument word a.
func gangOf(a uint64) (gpus, nodes int32) { return int32(a >> 32), int32(a) }

// add appends a note-free event with meta word m and argument word arg
// to every column and notifies the observer.
//
//rbvet:noalloc
func (r *Recorder) add(e Event, m uint32, arg uint64) {
	r.at = append(r.at, e.At)
	r.arg = append(r.arg, arg)
	r.trial = append(r.trial, int32(e.Trial))
	r.meta = append(r.meta, m)
	if r.observer != nil {
		r.observer(e)
	}
}

// Record appends an event with free-form note text, which it copies
// into the note arena. It is for cold-path events: callers on a
// per-iteration path use RecordIter or RecordGang instead, and callers
// that build their notes use RecordBytes. No-op on a nil recorder.
func (r *Recorder) Record(at vclock.Time, kind Kind, stage, trial int, note string) {
	recordText(r, at, kind, stage, trial, note)
}

// RecordBytes is Record with the note given as bytes, which it copies,
// so a caller can build each note in one reused buffer. Once the arena
// holds as much text as the recorder has seen, it allocates nothing.
// No-op on a nil recorder.
func (r *Recorder) RecordBytes(at vclock.Time, kind Kind, stage, trial int, note []byte) {
	recordText(r, at, kind, stage, trial, note)
}

// recordText appends an event whose note, copied into the arena, is
// text. The event's meta word is packed first, so an event refused for
// its stage leaves no note behind.
//
//rbvet:noalloc
func recordText[T string | []byte](r *Recorder, at vclock.Time, kind Kind, stage, trial int, note T) {
	if r == nil {
		return
	}
	m := packMeta(noteText, stage) | uint32(kind)
	start := len(r.text)
	r.text = append(r.text, note...)
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial}, m, r.span(start))
}

// span returns the argument word of the note the arena holds from
// start to its end: start<<32 | end, or 0 for an empty note. The arena
// holds at most 4 GiB.
func (r *Recorder) span(start int) uint64 {
	if start == len(r.text) {
		return 0
	}
	if len(r.text) > math.MaxUint32 {
		arenaOverflow(len(r.text))
	}
	return uint64(start)<<32 | uint64(len(r.text))
}

// RecordIter appends a KindTrialIter event observing accuracy acc; its
// note, "acc=%.4f", is rendered on read. No-op on a nil recorder.
//
//rbvet:noalloc
func (r *Recorder) RecordIter(at vclock.Time, stage, trial int, acc float64) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Kind: KindTrialIter, Stage: stage, Trial: trial}, packMeta(noteAcc, stage)|uint32(KindTrialIter), math.Float64bits(acc))
}

// RecordGang appends an event carrying a structured gang shape (total
// GPUs and distinct node count), for oracle-facing consumers that must
// not parse free-form notes. Its note, "%d GPUs on %d nodes", is
// rendered on read. Each count is kept to 32 bits. No-op on a nil
// recorder.
//
//rbvet:noalloc
func (r *Recorder) RecordGang(at vclock.Time, kind Kind, stage, trial, gpus, nodes int) {
	if r == nil {
		return
	}
	m := packMeta(noteGang, stage)
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial, GPUs: gpus, Nodes: nodes}, m|uint32(kind), packGang(gpus, nodes))
}

// AddBusy accumulates gpuSeconds of productive GPU time.
func (r *Recorder) AddBusy(gpuSeconds float64) {
	if r == nil {
		return
	}
	r.busyGPUSeconds += gpuSeconds
}

// BusyGPUSeconds returns the accumulated productive GPU time. Zero on nil.
func (r *Recorder) BusyGPUSeconds() float64 {
	if r == nil {
		return 0
	}
	return r.busyGPUSeconds
}

// Len returns the number of recorded events. Zero on a nil recorder.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.at)
}

// FieldsAt materializes event i (in record order) from the columns
// without its note: the view for digests, oracles and other consumers
// that must not depend on presentation text.
func (r *Recorder) FieldsAt(i int) Event {
	m := r.meta[i]
	e := Event{
		At:    r.at[i],
		Kind:  metaKind(m),
		Stage: int(metaStage(m)),
		Trial: int(r.trial[i]),
	}
	if metaForm(m) == noteGang {
		gpus, nodes := gangOf(r.arg[i])
		e.GPUs, e.Nodes = int(gpus), int(nodes)
	}
	return e
}

// EventAt materializes event i (in record order) with its note rendered,
// for display.
func (r *Recorder) EventAt(i int) Event {
	e := r.FieldsAt(i)
	e.Note = r.note(i)
	return e
}

// note renders event i's note from its typed columns or the arena.
func (r *Recorder) note(i int) string {
	switch metaForm(r.meta[i]) {
	case noteAcc:
		return fmt.Sprintf("acc=%.4f", math.Float64frombits(r.arg[i]))
	case noteGang:
		gpus, nodes := gangOf(r.arg[i])
		return fmt.Sprintf("%d GPUs on %d nodes", gpus, nodes)
	}
	a := r.arg[i]
	return string(r.text[a>>32 : uint32(a)])
}

// Events returns a copy of the recorded events in order, notes rendered.
// Nil on a nil recorder. Scans should prefer Len/FieldsAt (or the
// accessors), which avoid materializing the whole log.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, r.Len())
	for i := range out {
		out[i] = r.EventAt(i)
	}
	return out
}

// Count returns the number of events with the given kind.
func (r *Recorder) Count(kind Kind) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, m := range r.meta {
		if metaKind(m) == kind {
			n++
		}
	}
	return n
}

// WriteCSV streams the events as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at,kind,stage,trial,note"); err != nil {
		return err
	}
	for i := 0; i < r.Len(); i++ {
		e := r.EventAt(i)
		if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%d,%q\n",
			float64(e.At), e.Kind, e.Stage, e.Trial, e.Note); err != nil {
			return err
		}
	}
	return nil
}
