package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"mdm/internal/store"
)

// The write-ahead step journal: one JSON record per line, each framed with a
// CRC-32 over its own encoding and fsynced before the step it describes is
// considered committed. A checkpoint bounds restart work to -checkpoint-every
// steps; the journal shrinks that to zero — a kill between checkpoints
// resumes at the exact journaled step by replaying the tail over the
// checkpoint. The payload is opaque here (the mdm package owns its format:
// injector cursor + accumulated recovery report), which keeps this package
// free of upward dependencies.
//
// The journal is segmented: the path itself is the active segment, and each
// committed checkpoint turns it over (Turnover) — the active segment rotates
// to path.NNNN and every rotated segment the checkpoint has made redundant is
// retired, so the journal no longer grows without bound over a long campaign.
// All file I/O goes through the store VFS, so every durability claim here is
// exercised by fault injection: creates are atomic (temp + rename), and a
// creation or turnover is committed with a directory fsync before any record
// lands in the new segment.

// JournalVersion is the current record format version.
const JournalVersion = 1

// Typed journal failures, matched with errors.Is.
var (
	// ErrJournalCorrupt reports a record that fails its CRC or does not
	// decode, with valid records after it (a torn final line is tolerated
	// silently: that is the expected shape of a crash mid-append).
	ErrJournalCorrupt = errors.New("supervise: journal record corrupt")
	// ErrJournalVersion reports a record version this build cannot read.
	ErrJournalVersion = errors.New("supervise: unsupported journal version")
	// ErrJournalClosed reports an Append, Sync or Turnover on a journal with
	// no active segment: it was closed, or a turnover failed after the old
	// segment was given up and before the new one was committed.
	ErrJournalClosed = errors.New("supervise: journal closed")
)

// Record is one committed step.
type Record struct {
	Version int `json:"version"`
	// Step is the simulation step this record commits.
	Step int `json:"step"`
	// Stage tags the integration mode of the step ("nvt" or "nve") so a
	// resume replays the tail under the same ensemble schedule.
	Stage string `json:"stage,omitempty"`
	// Cursor is the fault injector's fired-event log as of this step; a
	// resumed run feeds it to Injector.Consume so one-shot events stay
	// consumed across the restart.
	Cursor []string `json:"cursor,omitempty"`
	// Payload is owned by the caller (mdm stores the accumulated recovery
	// report here).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Checksum is the IEEE CRC-32 of the record's JSON encoding with this
	// field zeroed.
	Checksum uint32 `json:"crc32"`
}

// recordCRC computes the checksum a record must carry.
func recordCRC(r Record) (uint32, error) {
	r.Checksum = 0
	buf, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf), nil
}

// Options configures the journal's storage behavior.
type Options struct {
	// FS is the storage layer (nil = the real filesystem).
	FS store.FS
	// SyncEvery is the group-commit interval: fsync after every Nth append
	// (<= 1 = every append, the default and the strongest guarantee; larger
	// values trade the crash-durability of up to N-1 trailing steps for
	// fewer fsyncs). Every fsync runs on the goroutine that called Append;
	// mdm.Simulation overlaps it with the next step's force evaluation one
	// level up. Turnover and Close always flush.
	SyncEvery int
}

func (o Options) fsys() store.FS {
	if o.FS == nil {
		return store.OS()
	}
	return o.FS
}

func (o Options) every() int {
	if o.SyncEvery < 1 {
		return 1
	}
	return o.SyncEvery
}

// Journal is the append side: an open active segment whose records become
// durable at each group-commit fsync. It is not safe for concurrent use, and
// every Write and Sync it issues runs on the calling goroutine.
type Journal struct {
	fs      store.FS
	f       store.File // nil once closed: every method but Close reports ErrJournalClosed
	path    string
	every   int
	pending int // appends since the last fsync
}

// CreateJournalFS starts a fresh journal: any rotated segments from a
// previous run are retired and the active segment is replaced atomically
// (temp file + rename + directory fsync), so a crash during creation leaves
// the previous run's journal fully intact — never a truncated-in-place file.
func CreateJournalFS(path string, opt Options) (*Journal, error) {
	fsys := opt.fsys()
	segs, err := store.JournalSegments(fsys, path)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		if err := fsys.Remove(seg); err != nil && !store.NotExist(err) {
			return nil, err
		}
	}
	// One directory fsync (inside the atomic replace) commits the segment
	// removals and the fresh active segment together.
	if err := store.WriteFileAtomic(fsys, path, nil); err != nil {
		return nil, err
	}
	f, err := fsys.Append(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fs: fsys, f: f, path: path, every: opt.every()}, nil
}

// AppendJournalFS opens an existing journal for appending — the resume
// path, which must keep the replayed prefix intact.
func AppendJournalFS(path string, opt Options) (*Journal, error) {
	f, err := opt.fsys().Append(path)
	if err != nil {
		return nil, err
	}
	return &Journal{fs: opt.fsys(), f: f, path: path, every: opt.every()}, nil
}

// Path returns the journal's active-segment path.
func (j *Journal) Path() string { return j.path }

// Append writes one record; it is durable once the group-commit fsync runs
// (immediately with SyncEvery <= 1).
func (j *Journal) Append(r Record) error {
	if j.f == nil {
		return ErrJournalClosed
	}
	r.Version = JournalVersion
	crc, err := recordCRC(r)
	if err != nil {
		return err
	}
	r.Checksum = crc
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.pending++
	if j.pending >= j.every {
		return j.Sync()
	}
	return nil
}

// Sync flushes any unsynced appends to durable storage.
func (j *Journal) Sync() error {
	if j.f == nil {
		return ErrJournalClosed
	}
	if j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = 0
	return nil
}

// Turnover is the journal's half of a checkpoint commit at ckptStep: the
// active segment rotates to the next path.NNNN name, a fresh active segment
// replaces it, and every rotated segment the checkpoint covers — normally
// just the one rotated a moment ago — is retired, all under one directory
// fsync before any new record lands. The caller has made the checkpoint
// itself durable first, so a crash anywhere in here leaves either the old
// segments, which the checkpoint already covers, or the new empty one: no
// record is retired ahead of its checkpoint. A failure after the old segment
// was given up leaves the journal closed (ErrJournalClosed from then on).
func (j *Journal) Turnover(ckptStep int) error {
	if err := j.Sync(); err != nil {
		return err
	}
	f := j.f
	j.f = nil
	if err := f.Close(); err != nil {
		return err
	}
	seq, err := store.NextSegmentSeq(j.fs, j.path)
	if err != nil {
		return err
	}
	if err := j.fs.Rename(j.path, store.SegmentPath(j.path, seq)); err != nil {
		return err
	}
	if f, err = j.fs.Create(j.path); err != nil {
		return err
	}
	if err = retireCovered(j.fs, j.path, ckptStep); err == nil {
		err = j.fs.SyncDir(store.Dir(j.path))
	}
	if err != nil {
		f.Close()
		return err
	}
	j.f = f
	return nil
}

// Close flushes pending appends and closes the active segment.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	syncErr := j.Sync()
	err := j.f.Close()
	j.f = nil
	if syncErr != nil {
		return syncErr
	}
	return err
}

// retireCovered removes every rotated segment whose records all commit steps
// <= ckptStep (the checkpoint already holds that state). The active segment
// and anything torn or corrupt are left alone; the caller's directory fsync
// commits the removals.
func retireCovered(fsys store.FS, path string, ckptStep int) error {
	segs, err := store.JournalSegments(fsys, path)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		data, err := fsys.ReadFile(seg)
		if err != nil {
			if store.NotExist(err) {
				continue
			}
			return err
		}
		steps, validLen, serr := ScanSegment(data)
		if serr != nil || validLen < len(data) {
			continue
		}
		if len(steps) > 0 && steps[len(steps)-1] > ckptStep {
			continue
		}
		if err := fsys.Remove(seg); err != nil && !store.NotExist(err) {
			return err
		}
	}
	return nil
}

// Rewind rewrites the active segment keeping only records through step,
// atomically — the resume path's truncation of uncommitted tail records.
// Rotated segments are untouched: they predate the checkpoint the resume is
// built on.
func Rewind(fsys store.FS, path string, step int) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if store.NotExist(err) {
			return nil
		}
		return err
	}
	var keep []byte
	err = walkSegment(data, func(rec Record, start, end int) bool {
		if rec.Step > step {
			return false
		}
		keep = append(keep, data[start:end]...)
		return true
	})
	if err != nil && !errors.Is(err, ErrJournalCorrupt) {
		return err
	}
	return store.WriteFileAtomic(fsys, path, keep)
}

// walkSegment iterates the valid newline-terminated records of a segment
// image, calling fn with each record and its byte extent; fn returning false
// stops the walk. It returns ErrJournalCorrupt for damage followed by further
// content; a torn tail ends the walk silently.
func walkSegment(data []byte, fn func(rec Record, start, end int) bool) error {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil // torn tail: an unterminated final line
		}
		line := data[off : off+nl]
		end := off + nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			off = end
			continue
		}
		rec, err := decodeRecord(string(line))
		if err != nil {
			if errors.Is(err, ErrJournalVersion) {
				return err
			}
			if len(bytes.TrimSpace(data[end:])) == 0 {
				return nil // damaged final record: the shape of a torn append
			}
			return err
		}
		if !fn(rec, off, end) {
			return nil
		}
		off = end
	}
	return nil
}

// ScanSegment validates one segment image for the recovery manager: the
// steps committed by its valid prefix (one per record, in order), the byte
// length of that prefix, and a non-nil error only for interior corruption.
// A torn tail is validLen < len(data) with a nil error.
func ScanSegment(data []byte) (steps []int, validLen int, err error) {
	err = walkSegment(data, func(rec Record, start, end int) bool {
		steps = append(steps, rec.Step)
		validLen = end
		return true
	})
	return steps, validLen, err
}

// ReadJournal decodes journal lines in order. A torn or corrupt *final*
// line is dropped silently — that is what a crash mid-append leaves behind —
// but damage followed by further valid records is real corruption and returns
// the valid prefix together with ErrJournalCorrupt.
func ReadJournal(lines []string) ([]Record, error) {
	var recs []Record
	for i, line := range lines {
		if line == "" {
			continue
		}
		rec, err := decodeRecord(line)
		if err != nil {
			if i == len(lines)-1 && !errors.Is(err, ErrJournalVersion) {
				return recs, nil
			}
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// ReadJournalFS reads a full journal through a store VFS: the records of
// every rotated segment in rotation order, then the active segment. A torn
// tail on the last thing read is tolerated; interior corruption — including
// a torn rotated segment followed by more records — returns the valid prefix
// with ErrJournalCorrupt. A missing journal is empty.
func ReadJournalFS(fsys store.FS, path string) ([]Record, error) {
	segs, err := store.JournalSegments(fsys, path)
	if err != nil {
		return nil, err
	}
	paths := append(segs, path)
	var recs []Record
	sawDamage := false
	for _, p := range paths {
		data, err := fsys.ReadFile(p)
		if err != nil {
			if store.NotExist(err) {
				continue
			}
			return recs, err
		}
		if sawDamage && len(bytes.TrimSpace(data)) > 0 {
			return recs, fmt.Errorf("%w: records beyond damaged segment", ErrJournalCorrupt)
		}
		consumed := 0
		walkErr := walkSegment(data, func(rec Record, start, end int) bool {
			recs = append(recs, rec)
			consumed = end
			return true
		})
		if walkErr != nil {
			return recs, walkErr
		}
		// A torn tail is only tolerable on the newest data; records in a
		// later segment would sit beyond lost history.
		if len(bytes.TrimSpace(data[consumed:])) > 0 {
			sawDamage = true
		}
	}
	return recs, nil
}

func decodeRecord(line string) (Record, error) {
	var rec Record
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	if rec.Version != JournalVersion {
		return Record{}, fmt.Errorf("%w: %d", ErrJournalVersion, rec.Version)
	}
	want := rec.Checksum
	crc, err := recordCRC(rec)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	if crc != want {
		return Record{}, fmt.Errorf("%w: crc32 %08x, want %08x", ErrJournalCorrupt, crc, want)
	}
	return rec, nil
}
