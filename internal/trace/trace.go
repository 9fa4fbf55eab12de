// Package trace records typed execution events and resource timelines
// during an experiment run, for post-hoc analysis (utilization, cost
// curves, Table 3-style schedules) and debugging.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/vclock"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the executor and cluster manager.
const (
	KindStageStart   Kind = "stage_start"
	KindStageEnd     Kind = "stage_end"
	KindTrialStart   Kind = "trial_start"
	KindTrialIter    Kind = "trial_iter"
	KindTrialPause   Kind = "trial_pause"
	KindTrialKill    Kind = "trial_kill"
	KindTrialDone    Kind = "trial_done"
	KindScaleUp      Kind = "scale_up"
	KindScaleDown    Kind = "scale_down"
	KindNodeReady    Kind = "node_ready"
	KindCheckpoint   Kind = "checkpoint"
	KindRestore      Kind = "restore"
	KindProfilePoint Kind = "profile_point"
	// KindDriftTrigger marks the replan controller's drift detector firing
	// (EWMA of observed-vs-predicted latency past its threshold, or a
	// preemption-initiated trigger). KindReplan marks the resulting replan
	// decision; its note carries the spliced plan and adoption outcome.
	KindDriftTrigger Kind = "drift_trigger"
	KindReplan       Kind = "replan"
)

// Event is one recorded occurrence.
type Event struct {
	At    vclock.Time `json:"at"`
	Kind  Kind        `json:"kind"`
	Stage int         `json:"stage"`
	Trial int         `json:"trial"`
	// Note is presentation-only text for humans: it is rendered when an
	// event is read for display (EventAt, Events, WriteCSV, WriteJSON),
	// and is empty in the note-free views (FieldsAt, the oracle
	// accessors, the observer) that digests and journals consume.
	Note string `json:"note,omitempty"`
	// GPUs and Nodes carry the structured gang shape for events that
	// describe a placement (KindTrialStart): the trial's total GPU count
	// and the number of distinct nodes its workers span. Zero for events
	// recorded without placement information.
	GPUs  int `json:"gpus,omitempty"`
	Nodes int `json:"nodes,omitempty"`
}

// known lists the event kinds every recorder codes without interning,
// in declaration order: kind code c < len(known) is known[c]. The
// journal's wire code of a known kind is its code plus one (see
// KindCode), so the order is fixed: append new kinds, never reorder.
var known = [...]Kind{
	KindStageStart, KindStageEnd, KindTrialStart,
	KindTrialIter, KindTrialPause, KindTrialKill,
	KindTrialDone, KindScaleUp, KindScaleDown,
	KindNodeReady, KindCheckpoint, KindRestore,
	KindProfilePoint, KindDriftTrigger, KindReplan,
}

// KindCode returns the code of a known kind, which KnownKind maps back
// to it, or false for a kind outside the known set.
func KindCode(k Kind) (uint8, bool) {
	for c, kk := range known {
		if kk == k {
			return uint8(c), true
		}
	}
	return 0, false
}

// KnownKind returns the known kind with code c, or false when c codes no
// known kind.
func KnownKind(c uint8) (Kind, bool) {
	if int(c) < len(known) {
		return known[c], true
	}
	return "", false
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

// Recorder accumulates events and GPU-usage accounting. Events are
// stored column-wise (struct-of-arrays): fleet-scale runs record
// millions of events, and the digest and oracle passes that dominate
// read traffic scan one or two fields of every event — columnar layout
// keeps those scans inside a few contiguous arrays instead of striding
// over full structs. An event takes 26 bytes of column storage: its
// time (8), kind code (1), stage and trial (4 each), note form (1) and
// one argument word (8) that holds whatever its note form renders — the
// accuracy's bits for RecordIter, the gang shape for RecordGang, zero
// otherwise. Recording never formats text: hot-path notes are kept in
// the typed argument and rendered on read, and the few cold-path events
// with free-form text store it in a sparse side table. The zero value is
// ready to use; a nil *Recorder is also valid and discards everything,
// so callers need no nil checks.
type Recorder struct {
	at    []vclock.Time
	kind  []uint8
	stage []int32
	trial []int32
	form  []noteForm
	arg   []uint64
	// interned holds the kinds outside the known set this recorder has
	// seen, in first-use order: code len(known)+i is interned[i].
	interned []Kind
	// textAt lists, ascending, the indices of the events recorded with
	// free-form text; texts holds that text in the same order.
	textAt []int32
	texts  []string
	// busyGPUSeconds accumulates task-occupied GPU time, for utilization.
	busyGPUSeconds float64
	// observer, when non-nil, receives every event as it is recorded —
	// the write-ahead journaling hook.
	observer func(Event)
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Reset empties the recorder, keeping its columns' capacity: a recycled
// recorder records its next run without growing them again. It drops
// the observer, the free-form texts and the interned kinds, so nothing
// recorded before carries into what is recorded next. No-op on a nil
// recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	clear(r.interned)
	clear(r.texts)
	*r = Recorder{
		at: r.at[:0], kind: r.kind[:0], stage: r.stage[:0], trial: r.trial[:0],
		form: r.form[:0], arg: r.arg[:0],
		interned: r.interned[:0], textAt: r.textAt[:0], texts: r.texts[:0],
	}
}

// SetObserver registers fn to receive every subsequently recorded event,
// synchronously and in record order, without its note. The journal
// writer subscribes here so executor state transitions hit the
// write-ahead log as they happen. No-op on a nil recorder.
func (r *Recorder) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.observer = fn
}

// code returns kind's code in this recorder, interning a kind outside
// the known set on its first use. A recorder codes at most 256 kinds.
func (r *Recorder) code(kind Kind) uint8 {
	if c, ok := r.lookup(kind); ok {
		return c
	}
	if len(known)+len(r.interned) > math.MaxUint8 {
		panic(fmt.Sprintf("trace: recorder holds too many event kinds to code %q", kind))
	}
	r.interned = append(r.interned, kind)
	return uint8(len(known) + len(r.interned) - 1)
}

// lookup returns kind's code in this recorder without interning it, or
// false when no recorded event has that kind.
func (r *Recorder) lookup(kind Kind) (uint8, bool) {
	if c, ok := KindCode(kind); ok {
		return c, true
	}
	for i, k := range r.interned {
		if k == kind {
			return uint8(len(known) + i), true
		}
	}
	return 0, false
}

// kindOf returns the kind coded c in this recorder.
func (r *Recorder) kindOf(c uint8) Kind {
	if int(c) < len(known) {
		return known[c]
	}
	return r.interned[int(c)-len(known)]
}

// packGang packs a gang shape into an argument word, each count
// truncated to 32 bits.
func packGang(gpus, nodes int) uint64 {
	return uint64(uint32(gpus))<<32 | uint64(uint32(nodes))
}

// gangOf unpacks the gang shape of argument word a.
func gangOf(a uint64) (gpus, nodes int32) { return int32(a >> 32), int32(a) }

// iterCode is KindTrialIter's code, which RecordIter stores without a
// lookup.
const iterCode = 3

// add appends a note-free event with kind code c, its note form and
// argument word to every column and notifies the observer.
func (r *Recorder) add(e Event, c uint8, form noteForm, arg uint64) {
	r.at = append(r.at, e.At)
	r.kind = append(r.kind, c)
	r.stage = append(r.stage, int32(e.Stage))
	r.trial = append(r.trial, int32(e.Trial))
	r.form = append(r.form, form)
	r.arg = append(r.arg, arg)
	if r.observer != nil {
		r.observer(e)
	}
}

// Grow reserves room for n more events, so a recorder whose caller can
// estimate its event count fills its columns without reallocating them.
// No-op on a nil recorder.
func (r *Recorder) Grow(n int) {
	if r == nil {
		return
	}
	r.at = slices.Grow(r.at, n)
	r.kind = slices.Grow(r.kind, n)
	r.stage = slices.Grow(r.stage, n)
	r.trial = slices.Grow(r.trial, n)
	r.form = slices.Grow(r.form, n)
	r.arg = slices.Grow(r.arg, n)
}

// Record appends an event with free-form note text. It is for cold-path
// events: the text is stored as given, so callers on a per-iteration
// path use RecordIter or RecordGang instead. No-op on a nil recorder.
func (r *Recorder) Record(at vclock.Time, kind Kind, stage, trial int, note string) {
	if r == nil {
		return
	}
	if note != "" {
		r.textAt = append(r.textAt, int32(len(r.at)))
		r.texts = append(r.texts, note)
	}
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial}, r.code(kind), noteText, 0)
}

// RecordIter appends a KindTrialIter event observing accuracy acc; its
// note, "acc=%.4f", is rendered on read. No-op on a nil recorder.
func (r *Recorder) RecordIter(at vclock.Time, stage, trial int, acc float64) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Kind: KindTrialIter, Stage: stage, Trial: trial}, iterCode, noteAcc, math.Float64bits(acc))
}

// RecordGang appends an event carrying a structured gang shape (total
// GPUs and distinct node count), for oracle-facing consumers that must
// not parse free-form notes. Its note, "%d GPUs on %d nodes", is
// rendered on read. Each count is kept to 32 bits. No-op on a nil
// recorder.
func (r *Recorder) RecordGang(at vclock.Time, kind Kind, stage, trial, gpus, nodes int) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial, GPUs: gpus, Nodes: nodes}, r.code(kind), noteGang, packGang(gpus, nodes))
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
	e := Event{
		At:    r.at[i],
		Kind:  r.kindOf(r.kind[i]),
		Stage: int(r.stage[i]),
		Trial: int(r.trial[i]),
	}
	if r.form[i] == noteGang {
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

// note renders event i's note from its typed columns or text entry.
func (r *Recorder) note(i int) string {
	switch r.form[i] {
	case noteAcc:
		return fmt.Sprintf("acc=%.4f", math.Float64frombits(r.arg[i]))
	case noteGang:
		gpus, nodes := gangOf(r.arg[i])
		return fmt.Sprintf("%d GPUs on %d nodes", gpus, nodes)
	}
	if j, ok := slices.BinarySearch(r.textAt, int32(i)); ok {
		return r.texts[j]
	}
	return ""
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
	c, ok := r.lookup(kind)
	if !ok {
		return 0
	}
	n := 0
	for _, k := range r.kind {
		if k == c {
			n++
		}
	}
	return n
}

// WriteJSON streams the events as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Events())
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
