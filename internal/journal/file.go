package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DefaultSegmentBytes is the roll threshold for segment files. A framed
// Grant is 41 bytes, so one segment holds about 6,000 of them: a run
// writes one per stage plus its header and End, and fits in one segment.
const DefaultSegmentBytes = 256 << 10

// FileBackend stores the journal in a directory: records in rolling
// segment files journal-NNNNNN.seg (a record never spans segments) and
// snapshots in snap-<event count>.snap files. Opening an existing
// directory resumes it; Load re-validates every frame from disk, so
// recovery trusts nothing but the bytes.
type FileBackend struct {
	dir      string
	segBytes int

	cur     *os.File
	curSize int
	segIdx  int
	rolled  bool // a segment was created since the last Sync
}

// FileOption configures a FileBackend.
type FileOption func(*FileBackend)

// WithSegmentBytes overrides the segment roll threshold (tests use tiny
// segments to exercise rolling).
func WithSegmentBytes(n int) FileOption { //rbvet:ignore unreached — harness recovery tests force segment rolls through it
	return func(f *FileBackend) {
		if n > 0 {
			f.segBytes = n
		}
	}
}

// NewFileBackend opens (or creates) the journal directory.
func NewFileBackend(dir string, opts ...FileOption) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f := &FileBackend{dir: dir, segBytes: DefaultSegmentBytes}
	for _, o := range opts {
		o(f)
	}
	segs, err := f.segments()
	if err != nil {
		return nil, err
	}
	f.segIdx = len(segs)
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		info, err := os.Stat(last)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		f.curSize = int(info.Size())
		f.segIdx = len(segs) - 1
		f.cur, err = os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return f, nil
}

// segName returns the path of segment i.
func (f *FileBackend) segName(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("journal-%06d.seg", i))
}

// segments lists the segment files in index order.
func (f *FileBackend) segments() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".seg") {
			out = append(out, filepath.Join(f.dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// roll closes the current segment and opens the next one.
func (f *FileBackend) roll() error {
	if f.cur != nil {
		if err := f.cur.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		f.segIdx++
	}
	file, err := os.OpenFile(f.segName(f.segIdx), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f.cur = file
	f.curSize = 0
	f.rolled = true
	return nil
}

// Append implements Backend.
func (f *FileBackend) Append(payload []byte) error {
	fr := frame(payload)
	if f.cur == nil || (f.curSize > 0 && f.curSize+len(fr) > f.segBytes) {
		if err := f.roll(); err != nil {
			return err
		}
	}
	if _, err := f.cur.Write(fr); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f.curSize += len(fr)
	return nil
}

// Sync implements Backend: it fsyncs the active segment and, after a
// roll, the directory, so the new segment's name is durable too.
func (f *FileBackend) Sync() error {
	if f.cur != nil {
		if err := f.cur.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if !f.rolled {
		return nil
	}
	d, err := os.Open(f.dir)
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
	f.rolled = false
	return nil
}

// AppendRaw implements RawAppender: it writes b to the current segment
// without framing, the torn-write fault-injection hook. Readers stop at
// the torn frame, so the bytes are inert damage, exactly like a real
// mid-write crash.
func (f *FileBackend) AppendRaw(b []byte) error {
	if f.cur == nil {
		if err := f.roll(); err != nil {
			return err
		}
	}
	if _, err := f.cur.Write(b); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f.curSize += len(b)
	return nil
}

// snapName returns the path of the snapshot at event count seq.
func (f *FileBackend) snapName(seq uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("snap-%020d.snap", seq))
}

// PutSnapshot implements Backend. The snapshot is written to a temp file
// and renamed into place, so a crash mid-write leaves no torn snapshot
// under the final name. Snapshots are not synced: one lost to a machine
// crash, or found unreadable, is re-persisted by recovery.
func (f *FileBackend) PutSnapshot(seq uint64, payload []byte) error {
	final := f.snapName(seq)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, frame(payload), 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// PutSnapshotRaw implements RawAppender: it writes b, unframed, under
// the snapshot's final name.
func (f *FileBackend) PutSnapshotRaw(seq uint64, b []byte) error {
	if err := os.WriteFile(f.snapName(seq), b, 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// recLoc locates a record's end within the segment sequence.
type recLoc struct {
	seg int // index into the segments() slice
	end int // byte offset just past the record's frame
}

// scan walks every segment in order, validating frames. It returns the
// trusted payloads, each record's location (for Truncate), and damage.
// Damage in segment i discards all later segments: records are appended
// strictly in order, so nothing after the first untrusted byte can be
// trusted either.
func (f *FileBackend) scan() ([][]byte, []recLoc, string, error) {
	segs, err := f.segments()
	if err != nil {
		return nil, nil, "", err
	}
	var payloads [][]byte
	var locs []recLoc
	for i, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, nil, "", fmt.Errorf("journal: %w", err)
		}
		ps, _, damage := readFrames(data)
		off := 0
		for _, p := range ps {
			off += frameOverhead + len(p)
			payloads = append(payloads, p)
			locs = append(locs, recLoc{seg: i, end: off})
		}
		if damage != "" {
			if i < len(segs)-1 {
				damage += fmt.Sprintf(" (segment %s; %d later segment(s) discarded)", filepath.Base(seg), len(segs)-1-i)
			} else {
				damage += fmt.Sprintf(" (segment %s)", filepath.Base(seg))
			}
			return payloads, locs, damage, nil
		}
	}
	return payloads, locs, "", nil
}

// snapshots calls fn with the event count, path and contents of every
// snapshot file, in count order. Files that do not parse as snapshot
// names are skipped: the directory may hold foreign files.
func (f *FileBackend) snapshots(fn func(seq uint64, path string, data []byte) error) error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries { // ReadDir sorts by name: zero-padded counts
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
		if err != nil {
			continue
		}
		path := filepath.Join(f.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if err := fn(seq, path, data); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Backend.
func (f *FileBackend) Load() (*Raw, error) {
	payloads, _, damage, err := f.scan()
	if err != nil {
		return nil, err
	}
	raw := &Raw{Records: payloads, Snapshots: make(map[uint64][]byte), Damage: damage}
	err = f.snapshots(func(seq uint64, _ string, data []byte) error {
		raw.addSnapshot(seq, data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// Truncate implements Backend.
func (f *FileBackend) Truncate(n int) error {
	payloads, locs, _, err := f.scan()
	if err != nil {
		return err
	}
	if n > len(payloads) {
		return fmt.Errorf("journal: truncate to %d records, only %d valid", n, len(payloads))
	}
	segs, err := f.segments()
	if err != nil {
		return err
	}
	if f.cur != nil {
		if err := f.cur.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		f.cur = nil
	}

	keepSeg, keepEnd := -1, 0
	if n > 0 {
		keepSeg, keepEnd = locs[n-1].seg, locs[n-1].end
	}
	for i := len(segs) - 1; i > keepSeg; i-- {
		if err := os.Remove(segs[i]); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if keepSeg >= 0 {
		if err := os.Truncate(segs[keepSeg], int64(keepEnd)); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		f.segIdx = keepSeg
		f.curSize = keepEnd
		f.cur, err = os.OpenFile(segs[keepSeg], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	} else {
		f.segIdx = 0
		f.curSize = 0
	}

	return f.snapshots(func(_ uint64, path string, data []byte) error {
		if readable(data) {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		return nil
	})
}

// Close implements Backend.
func (f *FileBackend) Close() error {
	if f.cur == nil {
		return nil
	}
	err := f.cur.Close()
	f.cur = nil
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
