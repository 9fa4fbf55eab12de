package journal

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords covers every record type with edge-shaped payloads:
// empty and populated slices, zero and all-ones folds, negative
// numbers, and non-finite floats (encoded by IEEE-754 bits).
func sampleRecords() []Record {
	return []Record{
		&Header{BatchSeed: 4, Index: 2, Interval: 7, Deadline: 1234.5, Planned: true, Alloc: []int64{4, 2, 1}},
		&Header{BatchSeed: 0, Index: -1, Interval: 0, Deadline: 0, Planned: false, Alloc: nil},
		&Header{BatchSeed: math.MaxUint64, Index: 63, Interval: 64, Deadline: math.Inf(1), Alloc: []int64{-1}},
		&End{JCT: 812.75, Cost: 19.5, BestTrial: 6, Fold: 0xcbf29ce484222325},
		&End{JCT: 0, Cost: 0, BestTrial: -1},
		&End{JCT: math.NaN(), Cost: math.Inf(-1), BestTrial: math.MaxInt64, Fold: math.MaxUint64},
		&Grant{Stage: 1, Want: 8, Granted: 3, At: 42.5},
		&Grant{Stage: 0, Want: 1, Granted: 1, At: 0},
		&Grant{Stage: -1, Want: 0, Granted: -5, At: math.NaN()},
		&Grant{Stage: math.MaxInt64, Want: math.MinInt64, Granted: 1 << 40, At: math.Inf(1)},
		&Snapshot{Seq: 14, Fold: 0x9e3779b97f4a7c15, State: 0xcbf29ce484222325},
		&Snapshot{Seq: 7},
		&Snapshot{Seq: math.MaxUint64, Fold: math.MaxUint64, State: math.MaxUint64},
	}
}

// TestRecordRoundTrip holds the codec to its canonicality contract:
// Decode(Encode(r)) yields an equal record that re-encodes to the
// identical bytes.
func TestRecordRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		payload := r.Encode()
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d (%T): decode: %v", i, r, err)
		}
		// NaN-bearing records compare by re-encoding only (NaN != NaN).
		re := got.Encode()
		if !bytes.Equal(re, payload) {
			t.Fatalf("record %d (%T): re-encode differs: %x vs %x", i, r, re, payload)
		}
		if !hasNaN(payload) && !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d (%T): decoded %+v != original %+v", i, r, got, r)
		}
	}
}

// hasNaN reports whether the payload round-trips a NaN (DeepEqual would
// report a spurious mismatch).
func hasNaN(payload []byte) bool {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return false
	}
	switch r := rec.(type) {
	case *End:
		return math.IsNaN(r.JCT)
	case *Grant:
		return math.IsNaN(r.At)
	}
	return false
}

// TestDecodeRejects drives DecodeRecord with malformed and non-canonical
// payloads: every one must fail loudly (no panic, no silent partial
// decode).
func TestDecodeRejects(t *testing.T) {
	// A canonical header to mutate: tag(1) version(2) seed(8) index(8)
	// interval(8) deadline(8) planned(1) alloc-len(4) = 40 bytes.
	hdr := (&Header{BatchSeed: 1, Index: 2, Interval: 7, Deadline: 10}).Encode()
	if len(hdr) != 40 {
		t.Fatalf("header encoding is %d bytes, offsets below assume 40", len(hdr))
	}
	mutate := func(b []byte, i int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[i] = v
		return out
	}
	cases := []struct {
		name    string
		payload []byte
		wantSub string
	}{
		{"empty", nil, "truncated"},
		{"unknown tag", []byte{99}, "unknown record tag"},
		{"trailing bytes", append((&End{}).Encode(), 0), "trailing"},
		{"truncated header", hdr[:20], "truncated"},
		{"wrong version", mutate(hdr, 1, 9), "version"},
		{"non-boolean planned", mutate(hdr, 35, 2), "bool"},
		{"oversized alloc length", mutate(mutate(hdr, 38, 0xff), 39, 0xff), ""},
		{"retired trace tag", []byte{2, 0}, "unknown record tag 2"},
		{"retired decision tag", []byte{3, 0}, "unknown record tag 3"},
		{"version 1 header", mutate(hdr, 1, 1), "header version 1"},
		{"version 2 header", mutate(hdr, 1, 2), "header version 2, want 3"},
		{"truncated snapshot", (&Snapshot{Seq: 3}).Encode()[:20], "truncated"},
		{"trailing bytes after snapshot", append((&Snapshot{}).Encode(), 0), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := DecodeRecord(tc.payload)
			if err == nil {
				t.Fatalf("decoded %+v, want error", rec)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// feed streams a run through w: each record through Record and each
// nil entry, an observed event, through Event, which snapshots via
// whatever snapshot function is registered.
func feed(t *testing.T, w *Writer, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if err := stream(w, r); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// stream sends one step of a run to w and returns the latched error.
func stream(w *Writer, r Record) error {
	if r == nil {
		w.Event()
		return w.Err()
	}
	return w.Record(r)
}

// feedUntilErr streams recs through w until the first error.
func feedUntilErr(w *Writer, recs []Record) error {
	for _, r := range recs {
		if err := stream(w, r); err != nil {
			return err
		}
	}
	return nil
}

// testRun builds a deterministic run: a header, n observed events (nil
// entries) with a grant before every second one, and an end.
func testRun(n int) []Record {
	recs := []Record{&Header{BatchSeed: 9, Index: 3, Interval: 3, Deadline: 500, Planned: true, Alloc: []int64{2, 1}}}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			recs = append(recs, &Grant{Stage: int64(i / 2), Want: 4, Granted: int64(1 + i%3), At: float64(i)})
		}
		recs = append(recs, nil)
	}
	return append(recs, &End{JCT: float64(n), Cost: 1.5, BestTrial: 0, Fold: uint64(n)})
}

// inputs returns the records of a run built by testRun, events left out.
func inputs(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// snapFnCounting returns a snapshot function that fabricates a
// deterministic snapshot per sequence and counts invocations.
func snapFnCounting(count *int) func() Snapshot {
	return func() Snapshot {
		*count++
		return Snapshot{State: uint64(*count)}
	}
}

// snapshotSeqs returns the event counts of the snapshots among raw's
// writes, in write order.
func snapshotSeqs(t *testing.T, raw *Raw) []uint64 {
	t.Helper()
	var out []uint64
	for i, p := range raw.Writes {
		rec, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if s, ok := rec.(*Snapshot); ok {
			out = append(out, s.Seq)
		}
	}
	return out
}

func TestWriterSnapshotInterval(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 3)
	var snaps int
	w.SetSnapshotFunc(snapFnCounting(&snaps))
	feed(t, w, testRun(8)) // 8 events: snapshots at 3 and 6
	if snaps != 2 {
		t.Fatalf("snapshot function invoked %d times, want 2", snaps)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Each snapshot is inline, carries its event count, and follows the
	// records written before its event.
	if got := snapshotSeqs(t, raw); !reflect.DeepEqual(got, []uint64{3, 6}) {
		t.Fatalf("snapshots at %v, want [3 6]", got)
	}
	// testRun(8)'s header and first two grants precede event 3.
	if rec, err := DecodeRecord(raw.Writes[3]); err != nil || *rec.(*Snapshot) != (Snapshot{Seq: 3, State: 1}) {
		t.Fatalf("write 3 is %v (err %v), want the snapshot at event 3", rec, err)
	}
	// The inputs and the snapshots are the writes, in one list.
	if want := len(inputs(testRun(8))) + 2; len(raw.Writes) != want {
		t.Fatalf("%d writes, want the %d inputs and 2 snapshots", len(raw.Writes), want-2)
	}
	if w.Seq() != uint64(len(raw.Writes)) {
		t.Fatalf("Seq = %d, want %d writes", w.Seq(), len(raw.Writes))
	}
}

func TestWriterCrashClean(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(4, 0)
	recs := testRun(8)
	got := feedUntilErr(w, recs)
	if got != ErrCrash {
		t.Fatalf("crash surfaced as %v, want ErrCrash", got)
	}
	if w.Err() != ErrCrash {
		t.Fatalf("Err() = %v after crash", w.Err())
	}
	// Latched: further records keep failing, nothing more is written.
	if err := w.Record(recs[0]); err != ErrCrash {
		t.Fatalf("post-crash Record = %v", err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) != 4 || raw.Damage != "" {
		t.Fatalf("crashed journal has %d writes, damage %q; want 4 clean writes", len(raw.Writes), raw.Damage)
	}
}

func TestWriterCrashTorn(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(2, 1_000_000) // clamped below the full frame
	recs := testRun(8)
	_ = feedUntilErr(w, recs)
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) != 2 {
		t.Fatalf("%d trusted writes, want 2", len(raw.Writes))
	}
	if raw.Damage == "" {
		t.Fatal("torn crash left no damage — the torn frame must be visible")
	}
	// The torn frame is strictly shorter than the record's full frame, so
	// the fatal record itself never decodes.
	in := inputs(recs)
	full := frameOverhead + len(in[2].Encode())
	torn := len(b.data) - (frameOverhead*2 + len(in[0].Encode()) + len(in[1].Encode()))
	if torn <= 0 || torn >= full {
		t.Fatalf("torn bytes %d, want in (0, %d)", torn, full)
	}
}

// TestWriterCrashCountsSnapshots: crash points count snapshots as
// writes, so a kill lands between two snapshots as well as at a record.
func TestWriterCrashCountsSnapshots(t *testing.T) {
	// testRun(8) at interval 3 writes: header, grant, grant, snapshot 3,
	// grant, ... — write 3 is the first snapshot.
	b := NewMemBackend()
	w := NewWriter(b, 3)
	var n int
	w.SetSnapshotFunc(snapFnCounting(&n))
	w.SetCrashPoint(3, 0)
	if err := feedUntilErr(w, testRun(8)); err != ErrCrash {
		t.Fatalf("crash surfaced as %v, want ErrCrash", err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) != 3 || len(snapshotSeqs(t, raw)) != 0 || raw.Damage != "" {
		t.Fatalf("crashed journal: %d writes, snapshots %v, damage %q; want 3 records and no snapshot",
			len(raw.Writes), snapshotSeqs(t, raw), raw.Damage)
	}
}

func TestResumeVerifyThenAppend(t *testing.T) {
	recs := testRun(10)

	// Uninterrupted reference.
	ref := NewMemBackend()
	wr := NewWriter(ref, 3)
	var n1 int
	wr.SetSnapshotFunc(snapFnCounting(&n1))
	feed(t, wr, recs)

	// Crash at write 7 with a torn tail.
	crashed := NewMemBackend()
	wc := NewWriter(crashed, 3)
	var n2 int
	wc.SetSnapshotFunc(snapFnCounting(&n2))
	wc.SetCrashPoint(7, 3)
	_ = feedUntilErr(wc, recs)

	// Resume: damage reported and truncated, header returned, interval
	// adopted from the header record (not passed by the caller).
	w2, hdr, damage, err := Resume(crashed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || hdr.BatchSeed != 9 || hdr.Index != 3 {
		t.Fatalf("resumed header = %+v", hdr)
	}
	if w2.Interval() != 3 {
		t.Fatalf("resumed interval %d, want 3 from header", w2.Interval())
	}
	if damage == "" {
		t.Fatal("torn crash resumed without damage report")
	}
	if !(int(w2.writes) < len(w2.prefix)) {
		t.Fatal("resumed writer not in verify mode")
	}
	// The re-executed run streams the same records; snapshot counters must
	// rebuild the same fabricated snapshots for verification to pass.
	var n3 int
	w2.SetSnapshotFunc(snapFnCounting(&n3))
	feed(t, w2, recs)
	if int(w2.writes) < len(w2.prefix) {
		t.Fatal("writer still verifying after full replay")
	}
	if w2.Seq() != wr.Seq() {
		t.Fatalf("recovered journal made %d writes, reference %d", w2.Seq(), wr.Seq())
	}
	diff, err := Diff(ref, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("recovered journal differs from reference: %s", diff)
	}
}

// TestResumeRepersistsTornSnapshot: a crash that tears a snapshot
// leaves a torn inline frame at the journal's tail, on both backends.
// Load stops before it, Resume truncates it, and the re-executed run
// appends the snapshot again, so the recovered journal equals the
// uninterrupted one. The file backend is reopened between the crash and
// the recovery, as a restarted process would.
func TestResumeRepersistsTornSnapshot(t *testing.T) {
	recs := testRun(10)
	ref := NewMemBackend()
	wr := NewWriter(ref, 3)
	var n int
	wr.SetSnapshotFunc(snapFnCounting(&n))
	feed(t, wr, recs)
	// Write 8 is the last snapshot, at event 9: six records and
	// snapshots 3 and 6 come before it.
	refRaw, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := DecodeRecord(refRaw.Writes[8]); err != nil || rec.(*Snapshot).Seq != 9 {
		t.Fatalf("reference write 8 is %v (err %v), want the snapshot at event 9", rec, err)
	}
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			var b Backend = NewMemBackend()
			dir := t.TempDir()
			if name == "file" {
				b = openFile(t, dir)
			}
			w := NewWriter(b, 3)
			var nc int
			w.SetSnapshotFunc(snapFnCounting(&nc))
			w.SetCrashPoint(8, 5)
			if err := feedUntilErr(w, recs); err != ErrCrash {
				t.Fatalf("crash surfaced as %v", err)
			}
			if name == "file" {
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				b = openFile(t, dir)
			}
			raw, err := b.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(raw.Damage, "torn") || len(raw.Writes) != 8 {
				t.Fatalf("damage %q, %d writes; want the torn snapshot after 8 writes", raw.Damage, len(raw.Writes))
			}
			w2, _, damage, err := Resume(b, 0)
			if err != nil || damage == "" {
				t.Fatalf("resume: damage %q, err %v", damage, err)
			}
			var nr int
			w2.SetSnapshotFunc(snapFnCounting(&nr))
			feed(t, w2, recs)
			if diff, err := Diff(ref, b); err != nil || diff != "" {
				t.Fatalf("recovered journal differs from reference: %q (err %v)", diff, err)
			}
		})
	}
}

// openFile opens a file backend over dir, closed when the test ends.
func openFile(t *testing.T, dir string) *FileBackend {
	t.Helper()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fb.Close() })
	return fb
}

// TestResumeRefusesOldVersion: a journal whose header is of version 2,
// the format before snapshots moved inline, is refused with the
// decoder's version error rather than verified or appended to.
func TestResumeRefusesOldVersion(t *testing.T) {
	hdr := (&Header{BatchSeed: 9, Index: 3, Interval: 3}).Encode()
	hdr[1], hdr[2] = 2, 0 // the little-endian version field
	for _, b := range []Backend{NewMemBackend(), openFile(t, t.TempDir())} {
		if err := b.Append(hdr); err != nil {
			t.Fatal(err)
		}
		if err := b.Append((&Grant{Stage: 0, Want: 2, Granted: 2}).Encode()); err != nil {
			t.Fatal(err)
		}
		w, _, _, err := Resume(b, 3)
		if err == nil || !strings.Contains(err.Error(), "header version 2, want 3") {
			t.Fatalf("%T: Resume on a version 2 journal = (%v, %v), want the version error", b, w, err)
		}
	}
}

func TestResumeDivergenceDetected(t *testing.T) {
	recs := testRun(10)
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(6, 0)
	_ = feedUntilErr(w, recs)
	w2, _, _, err := Resume(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Replay a mutated input inside the prefix: byte-verification must
	// refuse it.
	mutated := append([]Record{}, recs...)
	mutated[4] = &Grant{Stage: 1, Want: 4, Granted: 4, At: 2}
	if got := feedUntilErr(w2, mutated); got == nil || !strings.Contains(got.Error(), "diverged") {
		t.Fatalf("divergent replay error = %v, want ErrDiverged", got)
	}
}

func TestResumeSnapshotDivergenceDetected(t *testing.T) {
	recs := testRun(10)
	b := NewMemBackend()
	w := NewWriter(b, 3)
	var n1 int
	w.SetSnapshotFunc(snapFnCounting(&n1))
	w.SetCrashPoint(8, 0)
	_ = feedUntilErr(w, recs)
	w2, _, _, err := Resume(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt state disagrees with the stored snapshots (counter
	// starts at an offset), so recovery must stop at the first snapshot
	// point rather than silently resuming a different run.
	n2 := 100
	w2.SetSnapshotFunc(snapFnCounting(&n2))
	got := feedUntilErr(w2, recs)
	if got == nil || !strings.Contains(got.Error(), "snapshot") || !strings.Contains(got.Error(), "diverged") {
		t.Fatalf("snapshot divergence error = %v", got)
	}
}

func TestResumeRejectsForeignFirstRecord(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 0)
	if err := w.Record(&End{JCT: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Resume(b, 0); err == nil || !strings.Contains(err.Error(), "not a run header") {
		t.Fatalf("Resume on headerless journal = %v", err)
	}
}

func TestResumeEmptyJournal(t *testing.T) {
	w, hdr, damage, err := Resume(NewMemBackend(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != nil || damage != "" {
		t.Fatalf("empty journal resumed with hdr=%v damage=%q", hdr, damage)
	}
	if int(w.writes) < len(w.prefix) {
		t.Fatal("empty journal writer claims a prefix to verify")
	}
	// Degenerates to a fresh appending run.
	feed(t, w, testRun(2))
}

// TestMemFileEquivalence drives the identical record/snapshot sequence
// through both backends and requires byte-identical Load results.
func TestMemFileEquivalence(t *testing.T) {
	mem, fb := NewMemBackend(), openFile(t, t.TempDir())
	recs := testRun(40)
	for _, b := range []Backend{mem, fb} {
		w := NewWriter(b, 5)
		var n int
		w.SetSnapshotFunc(snapFnCounting(&n))
		feed(t, w, recs)
	}
	diff, err := Diff(mem, fb)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("backends diverge on identical input: %s", diff)
	}
}

// TestFileBackendKeepsOneFile: a journaled run, snapshots included,
// leaves exactly one file in its directory, and reopening the directory
// continues that file without disturbing what it holds.
func TestFileBackendKeepsOneFile(t *testing.T) {
	dir := t.TempDir()
	fb := openFile(t, dir)
	recs := testRun(30)
	w := NewWriter(fb, 4)
	var n int
	w.SetSnapshotFunc(snapFnCounting(&n))
	feed(t, w, recs)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != journalFile {
		t.Fatalf("run directory holds %v, want only %s", entries, journalFile)
	}

	fb2 := openFile(t, dir)
	if err := fb2.Append((&End{JCT: 99}).Encode()); err != nil {
		t.Fatal(err)
	}
	raw, err := fb2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if want := w.Seq() + 1; uint64(len(raw.Writes)) != want || raw.Damage != "" {
		t.Fatalf("after reopen+append: %d writes, damage %q; want %d", len(raw.Writes), raw.Damage, want)
	}
}

// TestTruncate exercises Truncate on both backends: writes past n, torn
// bytes included, are discarded and appends continue cleanly from the
// cut.
func TestTruncate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Backend
	}{
		{"mem", func(t *testing.T) Backend { return NewMemBackend() }},
		{"file", func(t *testing.T) Backend { return openFile(t, t.TempDir()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk(t)
			recs := testRun(20)
			w := NewWriter(b, 4)
			var n int
			w.SetSnapshotFunc(snapFnCounting(&n))
			feed(t, w, recs)
			if err := b.(RawAppender).AppendRaw([]byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}

			if err := b.Truncate(9); err != nil {
				t.Fatal(err)
			}
			raw, err := b.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Writes) != 9 || raw.Damage != "" {
				t.Fatalf("after truncate: %d writes, damage %q", len(raw.Writes), raw.Damage)
			}
			if got := snapshotSeqs(t, raw); !reflect.DeepEqual(got, []uint64{4, 8}) {
				t.Errorf("snapshots %v in the first 9 writes, want [4 8]", got)
			}
			if err := b.Append((&End{JCT: 1}).Encode()); err != nil {
				t.Fatal(err)
			}
			raw, err = b.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Writes) != 10 || raw.Damage != "" {
				t.Fatalf("append after truncate: %d writes, damage %q", len(raw.Writes), raw.Damage)
			}

			// Truncating past the journal's length is refused.
			if err := b.Truncate(1000); err == nil {
				t.Fatal("truncate past end succeeded")
			}
		})
	}
}

// TestFileTornTailTruncatedOnResume runs the full crash shape on disk: a
// torn frame at the tail of the journal file, truncated by Resume so the
// next append continues from the last trusted record.
func TestFileTornTailTruncatedOnResume(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRun(6)
	w := NewWriter(fb, 0)
	w.SetCrashPoint(4, 9) // the End record
	_ = feedUntilErr(w, recs)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	w2, hdr, damage, err := Resume(fb2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || damage == "" {
		t.Fatalf("resume: hdr=%v damage=%q, want header and damage", hdr, damage)
	}
	feed(t, w2, recs)
	raw, err := fb2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) != len(inputs(recs)) || raw.Damage != "" {
		t.Fatalf("recovered file journal: %d writes damage %q, want %d clean", len(raw.Writes), raw.Damage, len(inputs(recs)))
	}
}
