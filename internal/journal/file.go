package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// journalFile is the name of the journal file in a run directory. It is
// the name version 2 gave its first segment, so a directory an older
// version wrote is read, and its header refused, rather than taken for
// an empty journal and silently run again.
const journalFile = "journal-000000.seg"

// FileBackend stores a run's journal in one append-only file in its run
// directory, records and snapshots alike. Opening an existing directory
// resumes its journal; Load re-validates every frame from disk, so
// recovery trusts nothing but the bytes.
type FileBackend struct {
	path string
	f    *os.File
}

// NewFileBackend opens the journal in dir, creating the directory and
// the file as needed. A new file's directory entry is synced once, so
// the file itself survives a machine crash; Sync covers its contents.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	_, err := os.Stat(path)
	created := errors.Is(err, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if created {
		if err := SyncDir(dir); err != nil {
			return nil, errors.Join(err, f.Close())
		}
	}
	return &FileBackend{path: path, f: f}, nil
}

// SyncDir fsyncs a directory, making the names in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Append implements Backend.
func (f *FileBackend) Append(payload []byte) error { return f.AppendRaw(frame(payload)) }

// AppendRaw implements RawAppender: it writes b without framing, the
// torn-write fault-injection hook. Readers stop at the torn frame, so
// the bytes are inert damage, exactly like a real mid-write crash.
func (f *FileBackend) AppendRaw(b []byte) error {
	if _, err := f.f.Write(b); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// PutSnapshot implements Backend. Snapshots are not synced on their
// own: the next record's Sync covers them, and one lost at the tail is
// appended again by recovery.
func (f *FileBackend) PutSnapshot(_ uint64, payload []byte) error { return f.Append(payload) }

// Sync implements Backend: it fsyncs the journal file.
func (f *FileBackend) Sync() error {
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// read returns the journal file's bytes.
func (f *FileBackend) read() ([]byte, error) {
	data, err := os.ReadFile(f.path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return data, nil
}

// Load implements Backend.
func (f *FileBackend) Load() (*Raw, error) {
	data, err := f.read()
	if err != nil {
		return nil, err
	}
	writes, damage := readFrames(data)
	return &Raw{Writes: writes, Damage: damage}, nil
}

// Truncate implements Backend. The file is opened for appending, so
// later writes continue from the cut.
func (f *FileBackend) Truncate(n int) error {
	data, err := f.read()
	if err != nil {
		return err
	}
	off, err := frameEnd(data, n)
	if err != nil {
		return err
	}
	if err := f.f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close implements Backend.
func (f *FileBackend) Close() error {
	if err := f.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
