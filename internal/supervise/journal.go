package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"mdm/internal/store"
)

// The run log: the one durable artifact of a run. A log is a file of
// CRC-framed JSON records, one per line. Its first frame is a snapshot — the
// complete state at a committed step, the fault injector's cursor and the
// recovery report — and a step record follows for every step completed
// since, each fsynced before the step it describes is considered committed.
// A kill between commits resumes at the exact last committed step by
// replaying the records over the snapshot. Each commit (Snapshot) atomically
// replaces the log with a new file that opens with the new snapshot, so a
// log always opens with one and never outgrows the records of one commit
// interval. The state and payload are opaque here (internal/md owns the
// state's format, the mdm package the payload's), which keeps this package
// free of upward dependencies.
//
// A frame is eight lowercase hex digits of the IEEE CRC-32 of the JSON body,
// one space, the body, and a newline: the checksum covers exactly the bytes
// on disk, so the body is encoded once. All file I/O goes through the store
// VFS, so every durability claim here is exercised by fault injection.

// JournalVersion is the one format version of the run log. Version 1 was the
// unframed journal beside a separate checkpoint file; a run directory of that
// format is refused with ErrJournalVersion, never misread.
const JournalVersion = 2

// Typed log failures, matched with errors.Is.
var (
	// ErrJournalCorrupt reports a frame that fails its CRC or does not
	// decode, with valid frames after it (a torn final frame is tolerated
	// silently: that is the expected shape of a crash mid-append), or a log
	// with no intact snapshot frame to open it.
	ErrJournalCorrupt = errors.New("supervise: journal record corrupt")
	// ErrJournalVersion reports a record version this build cannot read.
	ErrJournalVersion = errors.New("supervise: unsupported journal version")
	// ErrJournalClosed reports an Append or Sync on a journal with no open
	// log: it was closed, or a commit failed after the old log was given up.
	ErrJournalClosed = errors.New("supervise: journal closed")
)

// Record is one frame of the log: the opening snapshot, or one committed
// step.
type Record struct {
	Version int `json:"version"`
	// Step is the simulation step this frame commits.
	Step int `json:"step"`
	// Stage tags the integration mode of the step ("nvt" or "nve") so a
	// resume replays the records under the same ensemble schedule.
	Stage string `json:"stage,omitempty"`
	// Cursor is the fault injector's fired-event log as of this step; a
	// resumed run feeds the snapshot's to Injector.Consume so one-shot
	// events stay consumed across the restart.
	Cursor []string `json:"cursor,omitempty"`
	// Payload is owned by the caller (mdm stores the accumulated recovery
	// report here).
	Payload json.RawMessage `json:"payload,omitempty"`
	// State is the snapshot frame's serialized dynamical state, owned by
	// the caller (internal/md's EncodeState); step records leave it empty.
	State json.RawMessage `json:"state,omitempty"`
}

// frameHead is the length of a frame's CRC prefix: eight hex digits and a
// space.
const frameHead = 9

// encodeFrame encodes rec as one frame into the empty buf through enc, an
// encoder writing to buf, and returns the frame's bytes.
func encodeFrame(buf *bytes.Buffer, enc *json.Encoder, rec Record) ([]byte, error) {
	rec.Version = JournalVersion
	buf.WriteString("00000000 ")
	if err := enc.Encode(rec); err != nil { // appends the newline
		return nil, err
	}
	b := buf.Bytes()
	crc := crc32.ChecksumIEEE(b[frameHead : len(b)-1])
	for i := 7; i >= 0; i-- {
		b[i] = "0123456789abcdef"[crc&0xf]
		crc >>= 4
	}
	return b, nil
}

// decodeFrame decodes one frame without its newline.
func decodeFrame(line []byte) (Record, error) {
	var rec Record
	if len(line) <= frameHead || line[frameHead-1] != ' ' {
		return rec, unframed(line)
	}
	want, err := strconv.ParseUint(string(line[:frameHead-1]), 16, 32)
	if err != nil {
		return rec, unframed(line)
	}
	body := line[frameHead:]
	if crc := crc32.ChecksumIEEE(body); crc != uint32(want) {
		return rec, fmt.Errorf("%w: crc32 %08x, framed %08x", ErrJournalCorrupt, crc, want)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	if rec.Version != JournalVersion {
		return Record{}, fmt.Errorf("%w: %d, want %d", ErrJournalVersion, rec.Version, JournalVersion)
	}
	return rec, nil
}

// unframed classifies a line with no CRC frame: a JSON object with a version
// is a record of a format that predates the framing (the version-1 journal,
// the separate checkpoint file) and is refused as such; anything else is
// damage.
func unframed(line []byte) error {
	var v struct {
		Version *int `json:"version"`
	}
	if json.Unmarshal(line, &v) == nil && v.Version != nil {
		return fmt.Errorf("%w: unframed version-%d record, want framed version %d", ErrJournalVersion, *v.Version, JournalVersion)
	}
	return fmt.Errorf("%w: no crc frame", ErrJournalCorrupt)
}

// Options configures the journal's storage behavior.
type Options struct {
	// FS is the storage layer (nil = the real filesystem).
	FS store.FS
	// SyncEvery is the group-commit interval: fsync after every Nth step
	// record (<= 1 = every record, the default and the strongest guarantee;
	// larger values trade the crash-durability of up to N-1 trailing steps
	// for fewer fsyncs). Every fsync runs on the goroutine that called
	// Append; mdm.Simulation overlaps it with the next step's force
	// evaluation one level up. A snapshot commit supersedes the records
	// before it, and Close flushes.
	SyncEvery int
}

func (o Options) fsys() store.FS {
	if o.FS == nil {
		return store.OS()
	}
	return o.FS
}

// Journal is the append side of a run log: an open file whose records become
// durable at each group-commit fsync. It is not safe for concurrent use, and
// every Write and Sync it issues runs on the calling goroutine.
type Journal struct {
	fs      store.FS
	f       store.File // nil once closed: Append and Sync report ErrJournalClosed
	path    string
	every   int
	pending int           // appends since the last fsync
	buf     bytes.Buffer  // a step record's frame, reused
	enc     *json.Encoder // encodes into buf
}

func newJournal(path string, opt Options) *Journal {
	j := &Journal{fs: opt.fsys(), path: path, every: max(opt.SyncEvery, 1)}
	j.enc = json.NewEncoder(&j.buf)
	return j
}

// CreateLogFS starts a fresh log at path that opens with snap. Like every
// commit it replaces the file atomically (Snapshot), so a crash during
// creation leaves a previous log at path fully intact — never a
// truncated-in-place file.
func CreateLogFS(path string, opt Options, snap Record) (*Journal, error) {
	j := newJournal(path, opt)
	if err := j.Snapshot(snap); err != nil {
		return nil, err
	}
	return j, nil
}

// CreateJournalFS starts a fresh log whose snapshot frame is empty, at step
// 0: step records with no state to resume from. Only the benchmark's
// durable-layer replay still calls it; a run creates its log with
// CreateLogFS.
func CreateJournalFS(path string, opt Options) (*Journal, error) {
	return CreateLogFS(path, opt, Record{})
}

// AppendJournalFS opens an existing log for appending — the resume path,
// which must keep the replayed records intact.
func AppendJournalFS(path string, opt Options) (*Journal, error) {
	j := newJournal(path, opt)
	f, err := j.fs.Append(path)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// Path returns the log's path.
func (j *Journal) Path() string { return j.path }

// Append writes one step record; it is durable once the group-commit fsync
// runs (immediately with SyncEvery <= 1). Besides mdm's committer, only the
// benchmark's durable-layer replay calls it.
func (j *Journal) Append(r Record) error {
	if j.f == nil {
		return ErrJournalClosed
	}
	j.buf.Reset()
	frame, err := encodeFrame(&j.buf, j.enc, r)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
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

// Snapshot commits snap: the log is atomically replaced by a new file that
// opens with snap's frame, and the records after it append to the new file.
// The frame goes to the fixed temp sibling (store.TempPath), is fsynced,
// renamed over the log, and the directory is fsynced — 1 create, 1 write,
// 2 fsyncs and 1 rename — so a crash anywhere leaves either the old log or
// the new one, complete. The old log's unsynced records are not flushed
// first: the snapshot supersedes them. The state is encoded once, into a
// buffer sized for it. A failure leaves the journal closed
// (ErrJournalClosed from then on) and the previous log whole on disk.
func (j *Journal) Snapshot(snap Record) error {
	var buf bytes.Buffer
	buf.Grow(frameHead + len(snap.State) + len(snap.Payload) + 256)
	frame, err := encodeFrame(&buf, json.NewEncoder(&buf), snap)
	if err != nil {
		return err
	}
	return j.replace(frame)
}

// Rewind drops every record after the snapshot frame, with the same atomic
// commit as Snapshot, and returns the snapshot — the in-place restart's
// return to the last commit.
func (j *Journal) Rewind() (Record, error) {
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		return Record{}, err
	}
	var snap Record
	end := 0
	err = walkLog(data, func(rec Record, e int) bool {
		snap, end = rec, e
		return false
	})
	if err == nil && end == 0 {
		err = errNoSnapshot
	}
	if err != nil {
		return Record{}, err
	}
	return snap, j.replace(data[:end])
}

// replace atomically replaces the log with one holding frame and keeps the
// new file open for appending: the handle follows its file through the
// rename.
func (j *Journal) replace(frame []byte) error {
	if f := j.f; f != nil {
		j.f = nil
		if err := f.Close(); err != nil {
			return err
		}
	}
	tmp := store.TempPath(j.path)
	f, err := j.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(frame); err == nil {
		if err = f.Sync(); err == nil {
			if err = j.fs.Rename(tmp, j.path); err == nil {
				err = j.fs.SyncDir(store.Dir(j.path))
			}
		}
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	j.f, j.pending = f, 0
	return nil
}

// Close flushes pending appends and closes the log.
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

// errNoSnapshot reports a log image with no intact frame to open it.
var errNoSnapshot = fmt.Errorf("%w: no intact snapshot frame", ErrJournalCorrupt)

// walkLog calls fn with each intact frame of a log image and the byte offset
// just past it; fn returning false stops the walk. It returns
// ErrJournalVersion at a foreign-version frame and ErrJournalCorrupt for
// damage followed by further content; a torn or damaged final frame ends the
// walk silently.
func walkLog(data []byte, fn func(rec Record, end int) bool) error {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil // torn tail: an unterminated final frame
		}
		end := off + nl + 1
		rec, err := decodeFrame(data[off : end-1])
		if err != nil {
			if errors.Is(err, ErrJournalVersion) || len(bytes.TrimSpace(data[end:])) > 0 {
				return err
			}
			return nil // damaged final frame: the shape of a torn append
		}
		if !fn(rec, end) {
			return nil
		}
		off = end
	}
	return nil
}

// readLog decodes a log image's valid prefix: its frames, snapshot first,
// and its byte length.
func readLog(data []byte) (recs []Record, validLen int, err error) {
	err = walkLog(data, func(rec Record, end int) bool {
		recs, validLen = append(recs, rec), end
		return true
	})
	if err == nil && len(recs) == 0 {
		err = errNoSnapshot
	}
	return recs, validLen, err
}

// ScanLog validates a log image for the recovery manager (store.ScanLog):
// the steps of its valid prefix, snapshot first, the byte length of that
// prefix, and a non-nil error for interior corruption or an image with no
// intact snapshot frame. A torn tail is validLen < len(data) with a nil
// error.
func ScanLog(data []byte) (steps []int, validLen int, err error) {
	recs, validLen, err := readLog(data)
	for _, rec := range recs {
		steps = append(steps, rec.Step)
	}
	return steps, validLen, err
}

// ReadJournal decodes a log image: the snapshot frame, then the step records
// after it. A torn or damaged final frame is dropped silently — that is what
// a crash mid-append leaves behind — but damage followed by further frames
// returns the valid prefix together with ErrJournalCorrupt, and so does an
// image with no intact snapshot frame.
func ReadJournal(data []byte) ([]Record, error) {
	recs, _, err := readLog(data)
	return recs, err
}

// ReadJournalFS reads the log at path through a store VFS (ReadJournal). A
// missing log is empty.
func ReadJournalFS(fsys store.FS, path string) ([]Record, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if store.NotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return ReadJournal(data)
}
