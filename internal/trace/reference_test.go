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
	"testing"

	"repro/internal/vclock"
)

// refRecorder is the recorder Recorder replaced: one Kind string, two
// int32 gang columns and a float64 accuracy column per event, 49 bytes
// in all. It is the oracle for the compact columns, whose every view
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

// refKinds are the kinds the differential tests record: every known
// kind and a few the recorder must intern, the empty kind among them.
var refKinds = append(known[:len(known):len(known)], "custom", "", "replan_v2", "trial iter")

// gangCounts are the gang sizes the differential tests record: ordinary
// ones and the extremes of the 32-bit columns and past them.
var gangCounts = []int{0, 1, 2, 8, 64, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, 1<<32 + 5, math.MaxInt64, math.MinInt64}

// replayOps decodes data into recording operations and applies each to
// both recorders: Record with or without text, RecordIter, RecordGang
// and Grow.
func replayOps(data []byte, got *Recorder, want *refRecorder) {
	for len(data) >= 8 {
		op, kind, stage, trial := data[0], refKinds[int(data[1])%len(refKinds)], int(int8(data[2])), int(int8(data[3]))
		at := vclock.Time(binary.LittleEndian.Uint16(data[4:])) / 8
		arg := data[6:8]
		data = data[8:]
		switch op % 5 {
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
			got.Grow(int(arg[0]))
		}
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
	for _, k := range append(refKinds, "never_recorded") {
		if g, w := got.Count(k), want.Count(k); g != w {
			t.Fatalf("Count(%q) = %d, reference %d", k, g, w)
		}
		if g, w := got.Filter(k), want.Filter(k); !reflect.DeepEqual(g, w) {
			t.Fatalf("Filter(%q) = %+v, reference %+v", k, g, w)
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
	replayOps(data, got, want)
	if !reflect.DeepEqual(gotSeen, wantSeen) {
		t.Fatalf("observer saw %+v, reference %+v", gotSeen, wantSeen)
	}
	compareRecorders(t, got, want)
}

// TestRecorderMatchesReference: over random operation sequences that
// record every known kind, interned unknown kinds, free-form notes,
// non-finite accuracies and extreme gang shapes, the compact recorder
// and the reference agree in every view.
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

// TestRecorderEventBytes pins an event's column storage at 26 bytes:
// the sum of the element sizes of the per-event columns. The sparse side
// tables (interned kinds, free-form notes) hold nothing per event.
func TestRecorderEventBytes(t *testing.T) {
	sparse := map[string]bool{"interned": true, "textAt": true, "texts": true}
	var size uintptr
	rt := reflect.TypeOf(Recorder{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Slice && !sparse[f.Name] {
			size += f.Type.Elem().Size()
		}
	}
	if size != 26 {
		t.Fatalf("an event takes %d bytes of column storage, want 26", size)
	}
}

// TestKindCodes: the known kinds code as their declaration order, and a
// code past them names no known kind.
func TestKindCodes(t *testing.T) {
	for c, k := range known {
		if got, ok := KindCode(k); !ok || int(got) != c {
			t.Fatalf("KindCode(%q) = %d/%v, want %d", k, got, ok, c)
		}
		if got, ok := KnownKind(uint8(c)); !ok || got != k {
			t.Fatalf("KnownKind(%d) = %q/%v, want %q", c, got, ok, k)
		}
	}
	if c, _ := KindCode(KindTrialIter); c != iterCode {
		t.Fatalf("iterCode %d, KindTrialIter codes as %d", iterCode, c)
	}
	if _, ok := KindCode("custom"); ok {
		t.Fatal("an unknown kind has a known code")
	}
	if k, ok := KnownKind(uint8(len(known))); ok {
		t.Fatalf("code %d names %q", len(known), k)
	}
}

// BenchmarkRecordIter measures recording one iteration event into warm
// columns: the executor's per-iteration trace cost. The columns are
// truncated every 4096 events, so the benchmark holds a bounded log.
func BenchmarkRecordIter(b *testing.B) {
	r := New()
	r.Grow(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Len() == 4096 {
			r.at, r.kind, r.stage, r.trial, r.form, r.arg = r.at[:0], r.kind[:0], r.stage[:0], r.trial[:0], r.form[:0], r.arg[:0]
		}
		r.RecordIter(vclock.Time(i), 2, i&63, 0.5)
	}
}
