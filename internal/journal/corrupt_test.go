package journal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden journal files under testdata/")

// goldenRecords is the fixed write sequence, records and one inline
// snapshot, that every golden journal file is built from. Changing it
// (or any record encoding) invalidates the goldens; regenerate with
// `go test ./internal/journal -update` and review the diff — an
// unintended golden change means the on-disk format changed.
func goldenRecords() []Record {
	return []Record{
		&Header{BatchSeed: 7, Index: 1, Interval: 2, Deadline: 600, Planned: true, Alloc: []int64{3, 1}},
		&Grant{Stage: 0, Want: 3, Granted: 3, At: 1.5},
		&Grant{Stage: 1, Want: 3, Granted: 2, At: 10.5},
		&Snapshot{Seq: 2, Fold: 0xbb67ae8584caa73b, State: 0x3c6ef372fe94f82b},
		&Grant{Stage: 2, Want: 2, Granted: 1, At: 19.25},
		&Grant{Stage: 3, Want: 1, Granted: 1, At: 30},
		&End{JCT: 42.5, Cost: 3.25, BestTrial: 0, Fold: 0x6a09e667f3bcc908},
	}
}

// goldenStream frames goldenRecords into one journal byte stream.
func goldenStream() []byte {
	var out []byte
	for _, r := range goldenRecords() {
		out = append(out, frame(r.Encode())...)
	}
	return out
}

// corruptions derives every damaged golden from the valid stream. Each
// entry records how many records must still decode and what the damage
// report must mention; wantRecords == len(goldenRecords()) with empty
// damage is the clean case.
type corruption struct {
	file        string
	build       func(valid []byte) []byte
	wantRecords int
	wantDamage  string
}

func corruptions() []corruption {
	n := len(goldenRecords())
	return []corruption{
		{"valid.seg", func(v []byte) []byte { return v }, n, ""},
		{"empty.seg", func([]byte) []byte { return nil }, 0, ""},
		{"torn-header.seg", func(v []byte) []byte {
			// 5 stray bytes after the last record: a frame header torn
			// mid-write.
			return append(v, 0xde, 0xad, 0xbe, 0xef, 0x01)
		}, n, "torn frame header"},
		{"torn-record.seg", func(v []byte) []byte {
			// The final record's frame cut mid-payload: length promises
			// more bytes than exist.
			last := frameOverhead + len(goldenRecords()[n-1].Encode())
			return v[:len(v)-last/2]
		}, n - 1, "torn record"},
		{"crc-flip.seg", func(v []byte) []byte {
			// One payload bit flipped inside record 2: records 0-1 stay
			// trusted, everything from the flip on is discarded.
			off := 0
			for i := 0; i < 2; i++ {
				off += frameOverhead + len(goldenRecords()[i].Encode())
			}
			out := append([]byte(nil), v...)
			out[off+frameOverhead+3] ^= 0x10
			return out
		}, 2, "CRC mismatch"},
		{"implausible-len.seg", func(v []byte) []byte {
			// A frame header whose length field exceeds maxLen: rejected
			// before any allocation, not trusted as a real record.
			return append(v, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
		}, n, "implausible record length"},
		{"partial-first.seg", func(v []byte) []byte {
			// Only half of the very first record: nothing is trusted.
			return v[:(frameOverhead+len(goldenRecords()[0].Encode()))/2]
		}, 0, "torn record"},
	}
}

// TestGoldenSegments pins the journal byte format: the checked-in golden
// files must equal what the current encoder produces. A failure here
// means the on-disk format changed — which breaks recovery of existing
// journals — and must be deliberate (bump Version, regenerate with
// -update).
func TestGoldenSegments(t *testing.T) {
	valid := goldenStream()
	for _, c := range corruptions() {
		path := filepath.Join("testdata", c.file)
		want := c.build(valid)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/journal -update` to generate)", c.file, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: checked-in golden differs from current encoder output — the journal format changed", c.file)
		}
	}
}

// TestCorruptSegmentDecode drives every golden (valid and damaged)
// through the Load path: decoding stops cleanly at the last trusted
// record, reports the damage, and never panics or silently skips a
// record.
func TestCorruptSegmentDecode(t *testing.T) {
	for _, c := range corruptions() {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/journal -update` to generate)", err)
			}
			raw, err := (&MemBackend{data: data}).Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Writes) != c.wantRecords {
				t.Fatalf("%d trusted writes, want %d (damage %q)", len(raw.Writes), c.wantRecords, raw.Damage)
			}
			if c.wantDamage == "" {
				if raw.Damage != "" {
					t.Fatalf("unexpected damage %q", raw.Damage)
				}
			} else if !strings.Contains(raw.Damage, c.wantDamage) {
				t.Fatalf("damage %q does not mention %q", raw.Damage, c.wantDamage)
			}
			// Every trusted record decodes and matches the golden sequence
			// prefix exactly: damage never reorders or substitutes records.
			want := goldenRecords()
			for i, p := range raw.Writes {
				rec, err := DecodeRecord(p)
				if err != nil {
					t.Fatalf("trusted record %d undecodable: %v", i, err)
				}
				if !bytes.Equal(rec.Encode(), want[i].Encode()) {
					t.Fatalf("trusted record %d differs from golden sequence", i)
				}
			}
		})
	}
}

// TestCorruptSegmentOnDisk runs the same damaged bytes through the file
// backend: damage costs the suffix, never a panic, and Truncate repairs
// the file for appending.
func TestCorruptSegmentOnDisk(t *testing.T) {
	for _, c := range corruptions() {
		if c.file == "valid.seg" || c.file == "empty.seg" {
			continue
		}
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
			fb, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			raw, err := fb.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Writes) != c.wantRecords || !strings.Contains(raw.Damage, c.wantDamage) {
				t.Fatalf("%d trusted writes, damage %q; want %d and damage mentioning %q",
					len(raw.Writes), raw.Damage, c.wantRecords, c.wantDamage)
			}
			if err := fb.Truncate(c.wantRecords); err != nil {
				t.Fatal(err)
			}
			if err := fb.Append((&End{JCT: 2}).Encode()); err != nil {
				t.Fatal(err)
			}
			raw, err = fb.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw.Writes) != c.wantRecords+1 || raw.Damage != "" {
				t.Fatalf("after repair: %d writes damage %q", len(raw.Writes), raw.Damage)
			}
		})
	}
}
