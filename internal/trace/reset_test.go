package trace

import (
	"reflect"
	"testing"
)

// TestResetMatchesNew: a reset recorder records exactly what a new one
// does, with none of the events, texts, interned kinds, busy time or
// observer it had.
func TestResetMatchesNew(t *testing.T) {
	script := func(r *Recorder) {
		r.Record(1, KindStageStart, 0, -1, "4 trials")
		r.RecordIter(2, 0, 3, 0.5)
		r.RecordGang(3, KindTrialStart, 0, 1, 4, 2)
		r.Record(4, Kind("custom_b"), 1, 2, "")
		r.AddBusy(2)
	}
	want := New()
	script(want)
	r := New()
	observed := 0
	r.SetObserver(func(Event) { observed++ })
	r.Record(9, Kind("custom_a"), 0, 0, "old text")
	r.Record(9, Kind("custom_b"), 0, 0, "more old text")
	r.AddBusy(7)
	r.Reset()
	script(r)
	if observed != 2 {
		t.Fatalf("observer saw %d events, want the 2 recorded before Reset", observed)
	}
	if got, w := r.Events(), want.Events(); !reflect.DeepEqual(got, w) {
		t.Fatalf("reset recorder holds\n%+v\nnew one\n%+v", got, w)
	}
	if r.Count("custom_a") != 0 || r.BusyGPUSeconds() != want.BusyGPUSeconds() || len(r.interned) != len(want.interned) {
		t.Fatalf("reset recorder kept state: custom_a %d, busy %v, interned %v", r.Count("custom_a"), r.BusyGPUSeconds(), r.interned)
	}
	if r.texts[:cap(r.texts)][1] != "" || r.interned[:cap(r.interned)][1] != "" {
		t.Fatal("reset recorder still holds a string it dropped")
	}
}
