package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecordAndCount(t *testing.T) {
	r := New()
	r.Record(1, KindStageStart, 0, -1, "s0")
	r.Record(2, KindTrialIter, 0, 3, "")
	r.Record(3, KindTrialIter, 0, 4, "")
	if got := r.Count(KindTrialIter); got != 2 {
		t.Fatalf("Count = %d", got)
	}
	if got := r.Count(KindScaleUp); got != 0 {
		t.Fatalf("Count = %d", got)
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].Note != "s0" || ev[1].Trial != 3 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEventsCopied(t *testing.T) {
	r := New()
	r.Record(1, KindStageStart, 0, -1, "")
	ev := r.Events()
	ev[0].Stage = 99
	if r.Events()[0].Stage != 0 {
		t.Fatal("Events exposed internal slice")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, KindStageStart, 0, 0, "")
	r.AddBusy(5)
	if r.BusyGPUSeconds() != 0 || r.Events() != nil || r.Count(KindStageStart) != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestBusyAccounting(t *testing.T) {
	r := New()
	r.AddBusy(2.5)
	r.AddBusy(1.5)
	if r.BusyGPUSeconds() != 4 {
		t.Fatalf("busy = %v", r.BusyGPUSeconds())
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Record(1.5, KindCheckpoint, 2, 7, "ok")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Kind != KindCheckpoint || back[0].Trial != 7 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestWriteCSV(t *testing.T) {
	r := New()
	r.Record(1.25, KindTrialDone, 1, 2, "note,with,commas")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv = %q", out)
	}
	if !strings.HasPrefix(lines[0], "at,kind") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[1], `"note,with,commas"`) {
		t.Fatalf("note not quoted: %q", lines[1])
	}
}

// TestNotesRenderedOnRead: typed notes render only when an event is read
// for display; FieldsAt, the oracle accessors and the observer see every
// field but no note.
func TestNotesRenderedOnRead(t *testing.T) {
	r := New()
	var observed []Event
	r.SetObserver(func(e Event) { observed = append(observed, e) })
	r.Grow(4)
	r.Record(1, KindStageStart, 0, -1, "2 trials")
	r.RecordGang(2, KindTrialStart, 0, 3, 4, 2)
	r.RecordIter(3, 0, 3, 0.123456)
	r.Record(4, KindTrialDone, 0, 3, "")
	want := []string{"2 trials", "4 GPUs on 2 nodes", "acc=0.1235", ""}
	for i, ev := range r.Events() {
		if ev.Note != want[i] {
			t.Errorf("event %d note %q, want %q", i, ev.Note, want[i])
		}
		bare := r.FieldsAt(i)
		if bare.Note != "" || observed[i] != bare {
			t.Errorf("event %d: FieldsAt %+v, observed %+v, want equal and note-free", i, bare, observed[i])
		}
		if ev.GPUs != bare.GPUs || ev.Kind != bare.Kind || ev.At != bare.At {
			t.Errorf("event %d: rendered %+v differs from fields %+v", i, ev, bare)
		}
	}
	if f := r.Filter(KindTrialIter); len(f) != 1 || f[0].Note != "" || f[0].Trial != 3 {
		t.Errorf("Filter = %+v, want one note-free trial_iter", f)
	}
}
