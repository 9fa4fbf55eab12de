package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/replan"
	"repro/internal/trace"
)

// sampleRecords covers every record type with edge-shaped payloads:
// empty and populated slices, both reasons, the first and last kinds,
// negative numbers, and non-finite floats (encoded by IEEE-754 bits).
func sampleRecords() []Record {
	return []Record{
		&Header{BatchSeed: 4, Index: 2, Interval: 7, Deadline: 1234.5, Planned: true, Alloc: []int64{4, 2, 1}},
		&Header{BatchSeed: 0, Index: -1, Interval: 0, Deadline: 0, Planned: false, Alloc: nil},
		&TraceEvent{At: 10.25, Kind: trace.KindTrialIter, Stage: 1, Trial: 3, GPUs: 2, Nodes: 1},
		&TraceEvent{At: 0, Kind: trace.KindStageStart, Stage: -1, Trial: -1, GPUs: 0, Nodes: 0},
		&TraceEvent{At: 3, Kind: trace.KindReplan, Stage: 2, Trial: -1, GPUs: 0, Nodes: 0},
		&Decision{Seq: 1, At: 99.5, Reason: reasonDrift, Stage: 1, Ratio: 1.7, RemainingDeadline: 55,
			OldAlloc: []int64{8, 4}, NewAlloc: []int64{8, 8}, StaleJCT: 100, StaleCost: 12,
			NewJCT: 90, NewCost: 14, Adopted: true},
		&Decision{Seq: 2, At: 120, Reason: reasonPreemption, Infeasible: true,
			StaleJCT: math.Inf(1), NewJCT: math.NaN()},
		&End{JCT: 812.75, Cost: 19.5, BestTrial: 6},
		&End{JCT: 0, Cost: 0, BestTrial: -1},
		&Grant{Stage: 1, Want: 8, Granted: 3, At: 42.5},
		&Grant{Stage: 0, Want: 1, Granted: 1, At: 0},
		&Snapshot{Seq: 14, VNow: 310.5, ClockSeq: 800, Stage: 1, Alloc: []int64{4, 2},
			Trials: []TrialSnap{
				{ID: 0, State: 3, CumIters: 12, HasAcc: true, Acc: 0.91},
				{ID: 1, State: 1, CumIters: 4},
			},
			TotalCost: 4.5, DataCost: 0.25, Instances: 3, BusyGPUSeconds: 1200,
			ExecRNG: [4]uint64{1, 2, 3, 4}, ProviderRNG: [4]uint64{5, 6, 7, 8}},
		&Snapshot{Seq: 7, Stage: -1, HasReplan: true, TotalObs: 30,
			Allocs:       []AllocEWMA{{GPUs: 1, EWMA: 1.2, Count: 10}, {GPUs: 2, EWMA: 0.8, Count: 20}},
			OverheadEWMA: 3.5, OverheadCount: 4, Armed: true, LastReplan: 150, Decisions: 2},
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
	case *Decision:
		for _, f := range []float64{r.Ratio, r.StaleJCT, r.StaleCost, r.NewJCT, r.NewCost} {
			if math.IsNaN(f) {
				return true
			}
		}
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
		{"kind code 0", kindPayload(0), "unknown kind code 0"},
		{"reserved kind code 10", kindPayload(10), "unknown kind code 10"},
		{"reserved kind code 13", kindPayload(13), "unknown kind code 13"},
		{"kind code past KindReplan", kindPayload(byte(trace.KindReplan) + 2), "unknown kind code 16"},
		{"unknown kind code", kindPayload(200), "unknown kind code 200"},
		{"reason code 0", reasonPayload(0), "unknown reason code 0"},
		{"reason code 3", reasonPayload(3), "unknown reason code 3"},
		{"undefined decision flags", func() []byte {
			p := (&Decision{Reason: reasonDrift}).Encode()
			return mutate(p, len(p)-1, 0x80)
		}(), "undefined decision flags"},
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

// TestReasonCodesMatchReplan: the journal's reason codes are the values
// of the replan reasons they stand for, which decisionRecord passes
// through unchanged.
func TestReasonCodesMatchReplan(t *testing.T) {
	if reasonDrift != uint8(replan.ReasonDrift) || reasonPreemption != uint8(replan.ReasonPreemption) {
		t.Fatalf("reason codes %d, %d; replan reasons %d, %d",
			reasonDrift, reasonPreemption, replan.ReasonDrift, replan.ReasonPreemption)
	}
}

// kindPayload is a trace record with wire kind code c.
func kindPayload(c byte) []byte {
	p := (&TraceEvent{Kind: trace.KindTrialIter}).Encode()
	p[1] = c
	return p
}

// reasonPayload is a decision record with reason code c. The reason
// byte follows the tag, the sequence number and the time.
func reasonPayload(c byte) []byte {
	p := (&Decision{Reason: reasonDrift}).Encode()
	p[17] = c
	return p
}

// feed streams n trace records through w, snapshotting via whatever
// snapshot function is registered.
func feed(t *testing.T, w *Writer, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if err := w.Record(r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// testRun builds a deterministic record sequence: one header, n trace
// events, one end.
func testRun(n int) []Record {
	recs := []Record{&Header{BatchSeed: 9, Index: 3, Interval: 3, Deadline: 500, Planned: true, Alloc: []int64{2, 1}}}
	for i := 0; i < n; i++ {
		recs = append(recs, &TraceEvent{At: float64(i), Kind: trace.KindTrialIter,
			Stage: 0, Trial: int64(i % 3), GPUs: 1, Nodes: 1})
	}
	return append(recs, &End{JCT: float64(n), Cost: 1.5, BestTrial: 0})
}

// snapFnCounting returns a snapshot function that fabricates a
// deterministic snapshot per sequence and counts invocations.
func snapFnCounting(count *int) func() *Snapshot {
	return func() *Snapshot {
		*count++
		return &Snapshot{Stage: -1, VNow: float64(*count)}
	}
}

func TestWriterSnapshotInterval(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 3)
	var snaps int
	w.SetSnapshotFunc(snapFnCounting(&snaps))
	feed(t, w, testRun(8)) // 10 records: snapshots at 3, 6, 9
	if snaps != 3 {
		t.Fatalf("snapshot function invoked %d times, want 3", snaps)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{3, 6, 9} {
		if _, ok := raw.Snapshots[seq]; !ok {
			t.Errorf("no snapshot at seq %d (have %v)", seq, keys(raw.Snapshots))
		}
	}
	if len(raw.Snapshots) != 3 {
		t.Fatalf("%d snapshots stored, want 3", len(raw.Snapshots))
	}
	// The stored snapshot carries its sequence.
	rec, err := DecodeRecord(raw.Snapshots[6])
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.(*Snapshot); s.Seq != 6 {
		t.Fatalf("snapshot at key 6 encodes Seq %d", s.Seq)
	}
}

func keys(m map[uint64][]byte) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestWriterCrashClean(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(4, 0)
	recs := testRun(8)
	var got error
	for _, r := range recs {
		if got = w.Record(r); got != nil {
			break
		}
	}
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
	if len(raw.Records) != 4 || raw.Damage != "" {
		t.Fatalf("crashed journal has %d records, damage %q; want 4 clean records", len(raw.Records), raw.Damage)
	}
}

func TestWriterCrashTorn(t *testing.T) {
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(2, 1_000_000) // clamped below the full frame
	recs := testRun(8)
	for _, r := range recs {
		if w.Record(r) != nil {
			break
		}
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Records) != 2 {
		t.Fatalf("%d trusted records, want 2", len(raw.Records))
	}
	if raw.Damage == "" {
		t.Fatal("torn crash left no damage — the torn frame must be visible")
	}
	// The torn frame is strictly shorter than the record's full frame, so
	// the fatal record itself never decodes.
	full := frameOverhead + len(recs[2].Encode())
	torn := len(b.data) - (frameOverhead*2 + len(recs[0].Encode()) + len(recs[1].Encode()))
	if torn <= 0 || torn >= full {
		t.Fatalf("torn bytes %d, want in (0, %d)", torn, full)
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

	// Crash at record 7 with a torn tail.
	crashed := NewMemBackend()
	wc := NewWriter(crashed, 3)
	var n2 int
	wc.SetSnapshotFunc(snapFnCounting(&n2))
	wc.SetCrashPoint(7, 3)
	for _, r := range recs {
		if wc.Record(r) != nil {
			break
		}
	}

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
	if !(int(w2.seq) < len(w2.prefix)) {
		t.Fatal("resumed writer not in verify mode")
	}
	// The re-executed run streams the same records; snapshot counters must
	// rebuild the same fabricated snapshots for verification to pass.
	var n3 int
	w2.SetSnapshotFunc(snapFnCounting(&n3))
	feed(t, w2, recs)
	if int(w2.seq) < len(w2.prefix) {
		t.Fatal("writer still verifying after full replay")
	}
	if w2.Seq() != wr.Seq() {
		t.Fatalf("recovered journal has %d records, reference %d", w2.Seq(), wr.Seq())
	}
	diff, err := Diff(ref, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("recovered journal differs from reference: %s", diff)
	}
}

func TestResumeDivergenceDetected(t *testing.T) {
	recs := testRun(10)
	b := NewMemBackend()
	w := NewWriter(b, 0)
	w.SetCrashPoint(8, 0)
	for _, r := range recs {
		if w.Record(r) != nil {
			break
		}
	}
	w2, _, _, err := Resume(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Replay a mutated record inside the prefix: byte-verification must
	// refuse it.
	mutated := append([]Record{}, recs...)
	mutated[5] = &TraceEvent{At: 5, Kind: trace.KindTrialIter, Stage: 0, Trial: 2, GPUs: 9, Nodes: 9}
	var got error
	for _, r := range mutated {
		if got = w2.Record(r); got != nil {
			break
		}
	}
	if !strings.Contains(got.Error(), "diverged") {
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
	for _, r := range recs {
		if w.Record(r) != nil {
			break
		}
	}
	w2, _, _, err := Resume(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt state disagrees with the stored snapshots (counter
	// starts at an offset), so recovery must stop at the first snapshot
	// point rather than silently resuming a different run.
	n2 := 100
	w2.SetSnapshotFunc(snapFnCounting(&n2))
	var got error
	for _, r := range recs {
		if got = w2.Record(r); got != nil {
			break
		}
	}
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
	if int(w.seq) < len(w.prefix) {
		t.Fatal("empty journal writer claims a prefix to verify")
	}
	// Degenerates to a fresh appending run.
	feed(t, w, testRun(2))
}

// TestMemFileEquivalence drives the identical record/snapshot sequence
// through both backends — the file one with segments tiny enough to roll
// several times — and requires byte-identical Load results.
func TestMemFileEquivalence(t *testing.T) {
	mem := NewMemBackend()
	fb, err := NewFileBackend(t.TempDir(), WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
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

func TestFileSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir, WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	recs := testRun(30)
	w := NewWriter(fb, 0)
	feed(t, w, recs)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d segments after 32 records at 128-byte roll threshold, want several", len(segs))
	}
	// No record spans segments: every segment parses cleanly on its own.
	total := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		ps, _, damage := readFrames(data)
		if damage != "" {
			t.Fatalf("segment %s damaged: %s", filepath.Base(seg), damage)
		}
		total += len(ps)
	}
	if total != len(recs) {
		t.Fatalf("segments hold %d records, wrote %d", total, len(recs))
	}

	// Reopening the directory resumes the last segment and appending
	// continues without corrupting earlier records.
	fb2, err := NewFileBackend(dir, WithSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if err := fb2.Append((&End{JCT: 99}).Encode()); err != nil {
		t.Fatal(err)
	}
	raw, err := fb2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Records) != len(recs)+1 || raw.Damage != "" {
		t.Fatalf("after reopen+append: %d records, damage %q", len(raw.Records), raw.Damage)
	}
}

// TestTruncate exercises Truncate on both backends: records past n and
// snapshots past seq n are discarded, and appends continue cleanly from
// the cut.
func TestTruncate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Backend
	}{
		{"mem", func(t *testing.T) Backend { return NewMemBackend() }},
		{"file", func(t *testing.T) Backend {
			fb, err := NewFileBackend(t.TempDir(), WithSegmentBytes(128))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fb.Close() })
			return fb
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk(t)
			recs := testRun(20)
			w := NewWriter(b, 4)
			var n int
			w.SetSnapshotFunc(snapFnCounting(&n))
			feed(t, w, recs)

			if err := b.Truncate(9); err != nil {
				t.Fatal(err)
			}
			raw, err := b.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Records) != 9 || raw.Damage != "" {
				t.Fatalf("after truncate: %d records, damage %q", len(raw.Records), raw.Damage)
			}
			for seq := range raw.Snapshots {
				if seq > 9 {
					t.Errorf("snapshot %d survived truncation to 9 records", seq)
				}
			}
			if err := b.Append((&End{JCT: 1}).Encode()); err != nil {
				t.Fatal(err)
			}
			raw, err = b.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Records) != 10 || raw.Damage != "" {
				t.Fatalf("append after truncate: %d records, damage %q", len(raw.Records), raw.Damage)
			}

			// Truncating past the journal's length is refused.
			if err := b.Truncate(1000); err == nil {
				t.Fatal("truncate past end succeeded")
			}
		})
	}
}

// TestFileTornTailTruncatedOnResume runs the full crash shape on disk: a
// torn frame at the tail of the last segment, truncated by Resume so the
// next append continues from the last trusted record.
func TestFileTornTailTruncatedOnResume(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir, WithSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	recs := testRun(6)
	w := NewWriter(fb, 0)
	w.SetCrashPoint(5, 9)
	for _, r := range recs {
		if w.Record(r) != nil {
			break
		}
	}
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
	if len(raw.Records) != len(recs) || raw.Damage != "" {
		t.Fatalf("recovered file journal: %d records damage %q, want %d clean", len(raw.Records), raw.Damage, len(recs))
	}
}
