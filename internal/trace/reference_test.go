package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/vclock"
)

// refRecorder is the recorder Recorder replaced: a kind column (a Kind
// string then), two int32 gang columns and a float64 accuracy column
// per event. It is the oracle for the compact columns, whose every view
// must match it.
type refRecorder struct {
	at       []vclock.Time
	kind     []Kind
	stage    []int32
	trial    []int32
	gpus     []int32
	nodes    []int32
	form     []noteForm
	acc      []float64
	textAt   []int32
	texts    []string
	observer func(Event)
}

func (r *refRecorder) add(e Event, form noteForm, acc float64) {
	r.at = append(r.at, e.At)
	r.kind = append(r.kind, e.Kind)
	r.stage = append(r.stage, int32(e.Stage))
	r.trial = append(r.trial, int32(e.Trial))
	r.gpus = append(r.gpus, int32(e.GPUs))
	r.nodes = append(r.nodes, int32(e.Nodes))
	r.form = append(r.form, form)
	r.acc = append(r.acc, acc)
	if r.observer != nil {
		r.observer(e)
	}
}

func (r *refRecorder) Record(at vclock.Time, kind Kind, stage, trial int, note string) {
	if note != "" {
		r.textAt = append(r.textAt, int32(len(r.at)))
		r.texts = append(r.texts, note)
	}
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial}, noteText, 0)
}

func (r *refRecorder) RecordIter(at vclock.Time, stage, trial int, acc float64) {
	r.add(Event{At: at, Kind: KindTrialIter, Stage: stage, Trial: trial}, noteAcc, acc)
}

func (r *refRecorder) RecordGang(at vclock.Time, kind Kind, stage, trial, gpus, nodes int) {
	r.add(Event{At: at, Kind: kind, Stage: stage, Trial: trial, GPUs: gpus, Nodes: nodes}, noteGang, 0)
}

func (r *refRecorder) Len() int { return len(r.at) }

func (r *refRecorder) FieldsAt(i int) Event {
	return Event{
		At: r.at[i], Kind: r.kind[i], Stage: int(r.stage[i]), Trial: int(r.trial[i]),
		GPUs: int(r.gpus[i]), Nodes: int(r.nodes[i]),
	}
}

func (r *refRecorder) EventAt(i int) Event {
	e := r.FieldsAt(i)
	switch r.form[i] {
	case noteAcc:
		e.Note = fmt.Sprintf("acc=%.4f", r.acc[i])
	case noteGang:
		e.Note = fmt.Sprintf("%d GPUs on %d nodes", r.gpus[i], r.nodes[i])
	default:
		if j, ok := slices.BinarySearch(r.textAt, int32(i)); ok {
			e.Note = r.texts[j]
		}
	}
	return e
}

func (r *refRecorder) Events() []Event {
	out := make([]Event, r.Len())
	for i := range out {
		out[i] = r.EventAt(i)
	}
	return out
}

func (r *refRecorder) Count(kind Kind) int {
	n := 0
	for _, k := range r.kind {
		if k == kind {
			n++
		}
	}
	return n
}

func (r *refRecorder) Filter(kind Kind) []Event {
	var out []Event
	for i, k := range r.kind {
		if k == kind {
			out = append(out, r.FieldsAt(i))
		}
	}
	return out
}

func (r *refRecorder) ByTrial() map[int][]Event {
	out := make(map[int][]Event)
	for i, id := range r.trial {
		if id >= 0 {
			out[int(id)] = append(out[int(id)], r.FieldsAt(i))
		}
	}
	return out
}

func (r *refRecorder) WriteJSON(w io.Writer) error { return json.NewEncoder(w).Encode(r.Events()) }

func (r *refRecorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at,kind,stage,trial,note"); err != nil {
		return err
	}
	for i := 0; i < r.Len(); i++ {
		e := r.EventAt(i)
		if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%d,%q\n", float64(e.At), e.Kind, e.Stage, e.Trial, e.Note); err != nil {
			return err
		}
	}
	return nil
}

// refKinds are the kinds the differential tests record: every kind.
var refKinds = func() (ks []Kind) {
	for k := KindStageStart; k <= KindReplan; k++ {
		if k.Valid() {
			ks = append(ks, k)
		}
	}
	return ks
}()

// gangCounts are the gang sizes the differential tests record: ordinary
// ones and the extremes of the 32-bit columns and past them.
var gangCounts = []int{0, 1, 2, 8, 64, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, 1<<32 + 5, math.MaxInt64, math.MinInt64}

// frozenAt is a copy Freeze returned during a replay, with the event
// count the reference held when it was taken.
type frozenAt struct {
	rec *Recorder
	n   int
}

// replayOps decodes data into recording operations and applies each to
// both recorders: Record with or without text, RecordBytes from a
// buffer it overwrites afterwards, RecordIter, RecordGang and Freeze. It returns the frozen copies in the order taken.
func replayOps(data []byte, got *Recorder, want *refRecorder) []frozenAt {
	var frozen []frozenAt
	var buf []byte
	for len(data) >= 8 {
		op, kind, stage, trial := data[0], refKinds[int(data[1])%len(refKinds)], int(int8(data[2])), int(int8(data[3]))
		at := vclock.Time(binary.LittleEndian.Uint16(data[4:])) / 8
		arg := data[6:8]
		data = data[8:]
		switch op % 6 {
		case 0:
			got.Record(at, kind, stage, trial, "")
			want.Record(at, kind, stage, trial, "")
		case 1:
			note := fmt.Sprintf("note %d, \"%d\"", arg[0], arg[1])
			got.Record(at, kind, stage, trial, note)
			want.Record(at, kind, stage, trial, note)
		case 2:
			acc := float64(binary.LittleEndian.Uint16(arg)) / 65535
			if arg[0] == 255 {
				acc = []float64{math.Inf(-1), math.NaN(), math.Inf(1)}[arg[1]%3]
			}
			got.RecordIter(at, stage, trial, acc)
			want.RecordIter(at, stage, trial, acc)
		case 3:
			gpus, nodes := gangCounts[int(arg[0])%len(gangCounts)], gangCounts[int(arg[1])%len(gangCounts)]
			got.RecordGang(at, kind, stage, trial, gpus, nodes)
			want.RecordGang(at, kind, stage, trial, gpus, nodes)
		case 4:
			buf = buf[:0]
			if arg[0]%4 != 0 {
				buf = fmt.Appendf(buf, "bytes %d·%x", arg[1], arg[0])
			}
			got.RecordBytes(at, kind, stage, trial, buf)
			want.Record(at, kind, stage, trial, string(buf))
			for i := range buf {
				buf[i] = '#'
			}
		case 5:
			frozen = append(frozen, frozenAt{got.Freeze(), want.Len()})
		}
	}
	return frozen
}

// prefix returns the reference as it stood after its first n events:
// the reference only appends, so its columns' prefixes never change.
func (r *refRecorder) prefix(n int) *refRecorder {
	k, _ := slices.BinarySearch(r.textAt, int32(n))
	return &refRecorder{
		at: r.at[:n], kind: r.kind[:n], stage: r.stage[:n], trial: r.trial[:n],
		gpus: r.gpus[:n], nodes: r.nodes[:n], form: r.form[:n], acc: r.acc[:n],
		textAt: r.textAt[:k], texts: r.texts[:k],
	}
}

// compareRecorders fails t unless every view of got matches want's.
func compareRecorders(t *testing.T, got *Recorder, want *refRecorder) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, reference %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.FieldsAt(i), want.FieldsAt(i); g != w {
			t.Fatalf("FieldsAt(%d) = %+v, reference %+v", i, g, w)
		}
		if g, w := got.EventAt(i), want.EventAt(i); g != w {
			t.Fatalf("EventAt(%d) = %+v, reference %+v", i, g, w)
		}
	}
	if g, w := got.Events(), want.Events(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Events differ:\n%+v\nreference\n%+v", g, w)
	}
	for _, k := range refKinds {
		if g, w := got.Count(k), want.Count(k); g != w {
			t.Fatalf("Count(%v) = %d, reference %d", k, g, w)
		}
		if g, w := got.Filter(k), want.Filter(k); !reflect.DeepEqual(g, w) {
			t.Fatalf("Filter(%v) = %+v, reference %+v", k, g, w)
		}
	}
	if g, w := got.ByTrial(), want.ByTrial(); !reflect.DeepEqual(g, w) {
		t.Fatalf("ByTrial = %+v, reference %+v", g, w)
	}
	var g, w bytes.Buffer
	gerr, werr := got.WriteCSV(&g), want.WriteCSV(&w)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("WriteCSV = %q (%v), reference %q (%v)", g.Bytes(), gerr, w.Bytes(), werr)
	}
	g.Reset()
	w.Reset()
	gerr, werr = got.WriteJSON(&g), want.WriteJSON(&w)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("WriteJSON = %q (%v), reference %q (%v)", g.Bytes(), gerr, w.Bytes(), werr)
	}
}

// runReference records data's operations on a Recorder and on the
// reference, both observed, and compares every view and the observed
// events.
func runReference(t *testing.T, data []byte) {
	t.Helper()
	got, want := New(), &refRecorder{}
	var gotSeen, wantSeen []Event
	got.SetObserver(func(e Event) { gotSeen = append(gotSeen, e) })
	want.observer = func(e Event) { wantSeen = append(wantSeen, e) }
	frozen := replayOps(data, got, want)
	if !reflect.DeepEqual(gotSeen, wantSeen) {
		t.Fatalf("observer saw %+v, reference %+v", gotSeen, wantSeen)
	}
	compareRecorders(t, got, want)
	// Each frozen copy still holds exactly what had been recorded when
	// it was taken, however much the recorder recorded since.
	for _, f := range frozen {
		compareRecorders(t, f.rec, want.prefix(f.n))
	}
}

// TestRecorderMatchesReference: over random operation sequences that
// record every kind, free-form notes from strings and from reused
// buffers, non-finite accuracies and extreme gang shapes, the compact
// recorder and the reference agree in every view, and so does every
// copy Freeze took along the way.
func TestRecorderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		data := make([]byte, 8*int(seed%97))
		x := seed * 0x9e3779b97f4a7c15
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		runReference(t, data)
	}
}

// FuzzRecorderMatchesReference is TestRecorderMatchesReference over
// fuzzed operation sequences.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0xff, 8, 0, 0, 0, 3, 2, 1, 4, 16, 0, 6, 11, 2, 3, 1, 2, 24, 0, 0xff, 1})
	f.Add([]byte{1, 16, 0x80, 0x7f, 0xff, 0xff, 7, 9, 3, 17, 2, 3, 0, 1, 8, 9, 4, 0, 0, 0, 0, 0, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runReference(t, data) })
}

// TestRecorderEventBytes pins an event's column storage at 24 bytes:
// the sum of the element sizes of the per-event columns. The note arena
// holds nothing per event.
func TestRecorderEventBytes(t *testing.T) {
	sparse := map[string]bool{"text": true}
	var size uintptr
	rt := reflect.TypeOf(Recorder{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Slice && !sparse[f.Name] {
			size += f.Type.Elem().Size()
		}
	}
	if size != 24 {
		t.Fatalf("an event takes %d bytes of column storage, want 24", size)
	}
}

// TestStageRange: the meta column holds every stage from MinStage to
// MaxStage, and recording one outside them panics rather than wrap.
func TestStageRange(t *testing.T) {
	r := New()
	for _, st := range []int{MinStage, -1, 0, 1, MaxStage} {
		r.Record(1, KindStageStart, st, -1, "")
		r.RecordIter(2, st, 3, 0.5)
		r.RecordGang(3, KindTrialStart, st, 4, 2, 1)
	}
	for i := 0; i < r.Len(); i++ {
		if want := []int{MinStage, -1, 0, 1, MaxStage}[i/3]; r.FieldsAt(i).Stage != want {
			t.Fatalf("event %d has stage %d, want %d", i, r.FieldsAt(i).Stage, want)
		}
	}
	for _, st := range []int{MinStage - 1, MaxStage + 1, math.MaxInt32, math.MinInt64} {
		for name, rec := range map[string]func(){
			"Record":     func() { r.Record(1, KindStageStart, st, -1, "x") },
			"RecordIter": func() { r.RecordIter(1, st, 0, 0.5) },
			"RecordGang": func() { r.RecordGang(1, KindTrialStart, st, 0, 1, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at stage %d did not panic", name, st)
					}
				}()
				rec()
			}()
		}
	}
	if r.Len() != 15 {
		t.Fatalf("a panicking record left %d events, want 15", r.Len())
	}
	r.Record(4, KindStageEnd, 0, -1, "")
	if n := r.EventAt(r.Len() - 1).Note; n != "" {
		t.Fatalf("an event after a refused one has note %q", n)
	}
}

// TestFreezeIsExactAndIndependent: a frozen copy holds every column and
// side table at exactly its length and renders what the recorder did,
// and neither it nor the recorder sees what the other records next.
func TestFreezeIsExactAndIndependent(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Record(0, KindStageStart, 0, -1, "a note longer than any recorded below")
	}
	r.Reset() // columns and arena with room to spare
	r.SetObserver(func(Event) {})
	r.Record(1, KindStageStart, 0, -1, "4 trials")
	r.RecordIter(2, 0, 3, 0.5)
	r.Record(3, KindCheckpoint, 1, 2, "")
	r.RecordBytes(4, KindReplan, 1, -1, []byte("kept [4 2]"))
	r.AddBusy(2)
	f := r.Freeze()
	for name, c := range map[string][2]int{
		"at": {len(f.at), cap(f.at)}, "arg": {len(f.arg), cap(f.arg)}, "trial": {len(f.trial), cap(f.trial)},
		"meta": {len(f.meta), cap(f.meta)}, "text": {len(f.text), cap(f.text)},
	} {
		if c[0] != c[1] {
			t.Errorf("frozen %s has length %d, capacity %d", name, c[0], c[1])
		}
	}
	want := r.Events()
	if !reflect.DeepEqual(f.Events(), want) || f.BusyGPUSeconds() != 2 || f.observer != nil {
		t.Fatalf("frozen copy %+v (busy %v), recorder %+v", f.Events(), f.BusyGPUSeconds(), want)
	}
	r.Reset()
	r.Record(9, KindRestore, 2, 5, "a much longer note than any before")
	r.RecordIter(9, 2, 5, 0.25)
	f.Record(5, KindStageEnd, 1, -1, "frozen's own")
	if got := f.Events(); !reflect.DeepEqual(got[:len(want)], want) || len(got) != len(want)+1 || r.Len() != 2 {
		t.Fatalf("frozen copy now %+v, was %+v; recorder holds %d events", got, want, r.Len())
	}
	if New().Freeze().Len() != 0 || (*Recorder)(nil).Freeze() != nil {
		t.Fatal("freezing an empty or nil recorder")
	}
}

// TestKindCodes: every code up to KindReplan spells, in String and in
// JSON, as the kind with that code always has (the digest folds these
// names); the two reserved codes and every code past KindReplan name no
// kind.
func TestKindCodes(t *testing.T) {
	names := []string{
		"stage_start", "stage_end", "trial_start", "trial_iter", "trial_pause", "trial_kill",
		"trial_done", "scale_up", "scale_down", "", "checkpoint", "restore", "", "drift_trigger", "replan",
	}
	for c := 0; c <= math.MaxUint8; c++ {
		k, want := Kind(c), ""
		if c < len(names) {
			want = names[c]
		}
		if k.Valid() != (want != "") {
			t.Fatalf("Kind(%d).Valid() = %v", c, k.Valid())
		}
		if want == "" {
			want = "kind(" + strconv.Itoa(c) + ")"
		}
		text, err := k.MarshalText()
		if k.String() != want || string(text) != want || err != nil {
			t.Fatalf("Kind(%d) spells %q, MarshalText %q (%v), want %q", c, k.String(), text, err, want)
		}
	}
}

// truncate empties r's columns and arena in place, so a benchmark holds
// a bounded log.
func (r *Recorder) truncate() {
	r.at, r.arg, r.trial, r.meta = r.at[:0], r.arg[:0], r.trial[:0], r.meta[:0]
	r.text = r.text[:0]
}

// BenchmarkRecordIter measures recording one iteration event into warm
// columns: the executor's per-iteration trace cost. The columns are
// truncated every 4096 events, so the benchmark holds a bounded log.
func BenchmarkRecordIter(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Len() == 4096 {
			r.truncate()
		}
		r.RecordIter(vclock.Time(i), 2, i&63, 0.5)
	}
}

// BenchmarkRecordNote measures recording one event with a note built in
// a reused buffer into a warm arena: the executor's cold-path note cost,
// 0 allocs/op once the arena holds 4096 notes.
func BenchmarkRecordNote(b *testing.B) {
	r := New()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Len() == 4096 {
			r.truncate()
		}
		buf = strconv.AppendInt(append(buf[:0], "to "...), int64(i&63), 10)
		buf = append(buf, " nodes"...)
		r.RecordBytes(vclock.Time(i), KindScaleUp, 2, -1, buf)
	}
}

// BenchmarkFreeze measures freezing a run-sized trace: 330 events, 12
// of them with notes, about the batch-replan corpus's average run. Each
// Freeze allocates the copy's header, its four columns and the arena.
func BenchmarkFreeze(b *testing.B) {
	r := New()
	for i := 0; i < 330; i++ {
		if i%28 == 0 {
			r.Record(vclock.Time(i), KindStageStart, i/28, -1, "8 trials x 3 iters @ 2 GPUs/trial")
			continue
		}
		r.RecordIter(vclock.Time(i), i/28, i&15, 0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Freeze().Len() != 330 {
			b.Fatal("short copy")
		}
	}
}
