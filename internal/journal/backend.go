package journal

import (
	"bytes"
	"fmt"
	"sort"
)

// Raw is a backend's validated contents: record payloads in append
// order, snapshot payloads by sequence number, and a description of any
// damage that ended the scan early.
type Raw struct {
	// Records holds the payload of every trusted record, in order.
	Records [][]byte
	// Snapshots maps event counts to readable snapshot payloads: the
	// snapshot at n was captured after the run's n-th observed event.
	// Load always returns a non-nil map.
	Snapshots map[uint64][]byte
	// Damage is empty for a clean journal; otherwise it describes the
	// first untrusted byte (torn tail, CRC mismatch, partial segment) or
	// the first unreadable snapshot. Records hold only what precedes the
	// damage.
	Damage string
}

// Backend is a durable store for framed records and snapshots. Backends
// are not safe for concurrent use; the control plane is single-threaded
// by design.
type Backend interface {
	// Append appends one record payload (the backend frames it).
	Append(payload []byte) error
	// Sync makes every record appended so far durable: it returns once
	// they would survive the process, or the machine, dying.
	Sync() error
	// PutSnapshot stores the snapshot taken at event count seq,
	// replacing any previous snapshot at that count.
	PutSnapshot(seq uint64, payload []byte) error
	// Load scans the store and returns every trusted record and
	// snapshot, stopping cleanly at the first damaged byte.
	Load() (*Raw, error)
	// Truncate discards everything after the first n records — torn
	// bytes included — so subsequent Appends continue from record n, and
	// drops unreadable snapshots. Readable ones stay: each is still a
	// valid checkpoint of the run, whatever its event count.
	Truncate(n int) error
	// Close releases backend resources. The backend is unusable after.
	Close() error
}

// MemBackend is the in-memory Backend used by tests and the chaos
// harness's reference runs. It stores the framed byte stream exactly as
// FileBackend would, so both backends exercise the same decode path, and
// tests can corrupt the raw bytes directly.
type MemBackend struct {
	data  []byte
	snaps map[uint64][]byte
}

// NewMemBackend returns an empty in-memory journal.
func NewMemBackend() *MemBackend {
	return &MemBackend{snaps: make(map[uint64][]byte)}
}

// Append implements Backend.
func (m *MemBackend) Append(payload []byte) error {
	m.data = append(m.data, frame(payload)...)
	return nil
}

// AppendRaw implements RawAppender: it persists b without framing, the
// torn-write fault-injection hook.
func (m *MemBackend) AppendRaw(b []byte) error {
	m.data = append(m.data, b...)
	return nil
}

// Sync implements Backend: memory has nothing to flush.
func (m *MemBackend) Sync() error { return nil }

// PutSnapshot implements Backend.
func (m *MemBackend) PutSnapshot(seq uint64, payload []byte) error {
	m.snaps[seq] = frame(payload)
	return nil
}

// PutSnapshotRaw implements RawAppender: it stores b as the snapshot at
// seq without framing, the torn-snapshot fault-injection hook.
func (m *MemBackend) PutSnapshotRaw(seq uint64, b []byte) error {
	m.snaps[seq] = append([]byte(nil), b...)
	return nil
}

// Load implements Backend.
func (m *MemBackend) Load() (*Raw, error) {
	records, _, damage := readFrames(m.data)
	raw := &Raw{Records: records, Snapshots: make(map[uint64][]byte), Damage: damage}
	seqs := make([]uint64, 0, len(m.snaps))
	for seq := range m.snaps {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		raw.addSnapshot(seq, m.snaps[seq])
	}
	return raw, nil
}

// Truncate implements Backend.
func (m *MemBackend) Truncate(n int) error {
	records, _, _ := readFrames(m.data)
	if n > len(records) {
		return fmt.Errorf("journal: truncate to %d records, only %d valid", n, len(records))
	}
	off := 0
	for i := 0; i < n; i++ {
		off += frameOverhead + len(records[i])
	}
	m.data = m.data[:off]
	for seq, fr := range m.snaps {
		if !readable(fr) {
			delete(m.snaps, seq)
		}
	}
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// readable reports whether data is exactly one trusted frame, which is
// what a stored snapshot must be.
func readable(data []byte) bool {
	ps, _, dmg := readFrames(data)
	return dmg == "" && len(ps) == 1
}

// addSnapshot adds the snapshot stored as data at seq to raw, or, when
// data is unreadable, reports it as damage (the first damage wins).
func (raw *Raw) addSnapshot(seq uint64, data []byte) {
	if !readable(data) {
		if raw.Damage == "" {
			raw.Damage = fmt.Sprintf("snapshot %d unreadable", seq)
		}
		return
	}
	raw.Snapshots[seq] = data[frameOverhead:]
}

// Diff compares the trusted contents of two backends and returns an
// empty string when they hold byte-identical records and snapshots —
// the recovery-equivalence oracle's journal check. A damaged backend
// diffs by its damage.
func Diff(a, b Backend) (string, error) {
	ra, err := a.Load()
	if err != nil {
		return "", err
	}
	rb, err := b.Load()
	if err != nil {
		return "", err
	}
	if ra.Damage != "" || rb.Damage != "" {
		return fmt.Sprintf("damage: %q vs %q", ra.Damage, rb.Damage), nil
	}
	if len(ra.Records) != len(rb.Records) {
		return fmt.Sprintf("%d records vs %d", len(ra.Records), len(rb.Records)), nil
	}
	for i := range ra.Records {
		if !bytes.Equal(ra.Records[i], rb.Records[i]) {
			return fmt.Sprintf("record %d differs (%d vs %d bytes)", i, len(ra.Records[i]), len(rb.Records[i])), nil
		}
	}
	if len(ra.Snapshots) != len(rb.Snapshots) {
		return fmt.Sprintf("%d snapshots vs %d", len(ra.Snapshots), len(rb.Snapshots)), nil
	}
	seqs := make([]uint64, 0, len(ra.Snapshots))
	for seq := range ra.Snapshots {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		pb, ok := rb.Snapshots[seq]
		if !ok {
			return fmt.Sprintf("snapshot %d missing from second journal", seq), nil
		}
		if !bytes.Equal(ra.Snapshots[seq], pb) {
			return fmt.Sprintf("snapshot %d differs", seq), nil
		}
	}
	return "", nil
}
