package journal

import (
	"bytes"
	"fmt"
)

// Raw is a backend's validated contents: the payload of every trusted
// write, records and snapshots in the order they were made, and a
// description of any damage that ended the scan early.
type Raw struct {
	// Writes holds the payload of every trusted write, in order.
	Writes [][]byte
	// Damage is empty for a clean journal; otherwise it describes the
	// first untrusted byte (torn tail, CRC mismatch, implausible length).
	// Writes hold only what precedes the damage.
	Damage string
}

// Backend is a durable store for one run's framed writes. Backends are
// not safe for concurrent use; the control plane is single-threaded by
// design.
type Backend interface {
	// Append appends one record payload (the backend frames it).
	Append(payload []byte) error
	// Sync makes every write appended so far durable: it returns once
	// they would survive the process, or the machine, dying.
	Sync() error
	// PutSnapshot appends the payload of the snapshot taken at event
	// count seq to the same stream as Append. It is a method of its own
	// only so that a wrapper can count the two kinds of write apart.
	PutSnapshot(seq uint64, payload []byte) error
	// Load scans the store and returns every trusted write, stopping
	// cleanly at the first damaged byte.
	Load() (*Raw, error)
	// Truncate discards everything after the first n writes — torn
	// bytes included — so subsequent appends continue from write n.
	Truncate(n int) error
	// Close releases backend resources. The backend is unusable after.
	Close() error
}

// MemBackend is the in-memory Backend used by tests and the chaos
// harness's reference runs. It stores the framed byte stream exactly as
// FileBackend would, so both backends exercise the same decode path, and
// tests can corrupt the raw bytes directly.
type MemBackend struct {
	data []byte
}

// NewMemBackend returns an empty in-memory journal.
func NewMemBackend() *MemBackend { return &MemBackend{} }

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
func (m *MemBackend) PutSnapshot(_ uint64, payload []byte) error { return m.Append(payload) }

// Load implements Backend.
func (m *MemBackend) Load() (*Raw, error) {
	writes, damage := readFrames(m.data)
	return &Raw{Writes: writes, Damage: damage}, nil
}

// Truncate implements Backend.
func (m *MemBackend) Truncate(n int) error {
	off, err := frameEnd(m.data, n)
	if err != nil {
		return err
	}
	m.data = m.data[:off]
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// Diff compares the trusted contents of two backends and returns an
// empty string when they hold byte-identical writes — the
// recovery-equivalence oracle's journal check. A damaged backend diffs
// by its damage.
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
	if len(ra.Writes) != len(rb.Writes) {
		return fmt.Sprintf("%d writes vs %d", len(ra.Writes), len(rb.Writes)), nil
	}
	for i := range ra.Writes {
		if !bytes.Equal(ra.Writes[i], rb.Writes[i]) {
			return fmt.Sprintf("write %d differs (%d vs %d bytes)", i, len(ra.Writes[i]), len(rb.Writes[i])), nil
		}
	}
	return "", nil
}
