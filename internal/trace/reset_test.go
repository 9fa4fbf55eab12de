package trace

import (
	"reflect"
	"testing"
)

// TestResetMatchesNew: a reset recorder records exactly what a new one
// does, with none of the events, notes, busy time or observer it had.
func TestResetMatchesNew(t *testing.T) {
	script := func(r *Recorder) {
		r.Record(1, KindStageStart, 0, -1, "4 trials")
		r.RecordIter(2, 0, 3, 0.5)
		r.RecordGang(3, KindTrialStart, 0, 1, 4, 2)
		r.Record(4, KindCheckpoint, 1, 2, "")
		r.AddBusy(2)
	}
	want := New()
	script(want)
	r := New()
	observed := 0
	r.SetObserver(func(Event) { observed++ })
	r.Record(9, KindRestore, 0, 0, "old text")
	r.Record(9, KindCheckpoint, 0, 0, "more old text")
	r.AddBusy(7)
	r.Reset()
	script(r)
	if observed != 2 {
		t.Fatalf("observer saw %d events, want the 2 recorded before Reset", observed)
	}
	if got, w := r.Events(), want.Events(); !reflect.DeepEqual(got, w) {
		t.Fatalf("reset recorder holds\n%+v\nnew one\n%+v", got, w)
	}
	if r.Count(KindRestore) != 0 || r.BusyGPUSeconds() != want.BusyGPUSeconds() {
		t.Fatalf("reset recorder kept state: restore %d, busy %v", r.Count(KindRestore), r.BusyGPUSeconds())
	}
	if string(r.text) != string(want.text) {
		t.Fatalf("reset recorder holds notes %q, new one %q", r.text, want.text)
	}
}
