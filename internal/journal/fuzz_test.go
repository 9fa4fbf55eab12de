package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalRoundTrip holds the codec to its two safety contracts under
// arbitrary input:
//
//   - Canonicality: any payload DecodeRecord accepts must re-encode to
//     the identical bytes. A payload with two representations would let
//     recovery's byte-verification pass on a journal the current encoder
//     could never have written.
//   - No panics: arbitrary bytes — framed or not — are decoded and
//     frame-scanned without crashing; damage is reported, never thrown.
//
// The checked-in corpus (testdata/fuzz/FuzzJournalRoundTrip) seeds one
// encoding of every record type plus framed streams with each damage
// class; `make fuzz-short` mutates from there.
func FuzzJournalRoundTrip(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(r.Encode())
		f.Add(frame(r.Encode()))
	}
	for _, c := range corruptions() {
		f.Add(c.build(goldenStream()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a record payload: accepted ⇒ byte-identical re-encoding.
		if rec, err := DecodeRecord(data); err == nil {
			re := rec.Encode()
			if !bytes.Equal(re, data) {
				t.Fatalf("non-canonical accept: %x decodes to %T which re-encodes to %x", data, rec, re)
			}
		}
		// As a framed stream: the scan stops cleanly; every trusted record
		// must itself round-trip when it decodes at all.
		raw, err := (&MemBackend{data: data}).Load()
		if err != nil {
			t.Fatalf("Load on arbitrary bytes errored (must report damage instead): %v", err)
		}
		for i, p := range raw.Records {
			if rec, err := DecodeRecord(p); err == nil {
				if !bytes.Equal(rec.Encode(), p) {
					t.Fatalf("framed record %d: non-canonical accept", i)
				}
			}
		}
	})
}
