package md

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mdm/internal/store"
	"mdm/internal/vec"
)

// Checkpointing: the host computer's file-I/O duty (§3.1) for restartable
// runs — the paper's 36.5-hour campaign would have been unrecoverable
// without it. The format is versioned JSON of the complete dynamical state,
// protected by a CRC-32 so that a torn or bit-rotted file is rejected
// instead of silently restarting a corrupted trajectory.

// checkpointVersion is the one format read and written: the state plus an
// IEEE CRC-32 over the payload. The checksum-less version 1 is refused like
// any unknown version, so no bit flip in the version digit turns the
// checksum off.
const checkpointVersion = 2

// Typed checkpoint failures, matched with errors.Is so callers (the mdmsim
// restart loop in particular) can tell a useless file from a wrong-format
// one.
var (
	// ErrCheckpointTruncated marks a file that ends mid-record — the
	// signature of a crash during a non-atomic write.
	ErrCheckpointTruncated = errors.New("md: checkpoint truncated")
	// ErrCheckpointCorrupt marks a record whose checksum does not match its
	// payload, or that does not parse at all.
	ErrCheckpointCorrupt = errors.New("md: checkpoint corrupt")
	// ErrCheckpointVersion marks a record from an unknown format version.
	ErrCheckpointVersion = errors.New("md: unsupported checkpoint version")
)

type checkpoint struct {
	Version int       `json:"version"`
	L       float64   `json:"l"`
	Step    int       `json:"step"`
	Pos     []vec.V   `json:"pos"`
	Vel     []vec.V   `json:"vel"`
	Mass    []float64 `json:"mass"`
	Charge  []float64 `json:"charge"`
	Type    []int     `json:"type"`
	// Checksum is the IEEE CRC-32 of the record serialized with this field
	// zeroed.
	Checksum uint32 `json:"crc32,omitempty"`
}

// payloadCRC computes the checksum of a record: the CRC-32 of its JSON
// serialization with the Checksum field zeroed. encoding/json renders
// float64 in shortest round-tripping form, so decode→re-encode is
// byte-stable and the read side can recompute the same bytes.
func payloadCRC(cp checkpoint) (uint32, error) {
	cp.Checksum = 0
	b, err := json.Marshal(cp)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// WriteCheckpoint serializes the full dynamical state plus a step counter.
func WriteCheckpoint(w io.Writer, s *System, step int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	cp := checkpoint{
		Version: checkpointVersion,
		L:       s.L,
		Step:    step,
		Pos:     s.Pos,
		Vel:     s.Vel,
		Mass:    s.Mass,
		Charge:  s.Charge,
		Type:    s.Type,
	}
	sum, err := payloadCRC(cp)
	if err != nil {
		return err
	}
	cp.Checksum = sum
	b, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadCheckpoint restores a System and its step counter from the current
// checksummed format; failures carry ErrCheckpointTruncated,
// ErrCheckpointCorrupt, or ErrCheckpointVersion.
func ReadCheckpoint(r io.Reader) (*System, int, error) {
	var cp checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointTruncated, err)
		}
		return nil, 0, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("%w: version %d, want %d", ErrCheckpointVersion, cp.Version, checkpointVersion)
	}
	sum, err := payloadCRC(cp)
	if err != nil {
		return nil, 0, err
	}
	if sum != cp.Checksum {
		return nil, 0, fmt.Errorf("%w: crc32 %08x, recorded %08x", ErrCheckpointCorrupt, sum, cp.Checksum)
	}
	s := &System{
		L:      cp.L,
		Pos:    cp.Pos,
		Vel:    cp.Vel,
		Mass:   cp.Mass,
		Charge: cp.Charge,
		Type:   cp.Type,
	}
	if err := s.Validate(); err != nil {
		return nil, 0, fmt.Errorf("md: invalid checkpoint state: %w", err)
	}
	return s, cp.Step, nil
}

// WriteCheckpointFS writes a checkpoint crash-safely through a store VFS:
// the record goes to a fixed-name temporary sibling, is fsynced, and is
// renamed over the destination, so a crash at any instant leaves either the
// old complete file or the new complete file — never a torn one. The
// directory is fsynced too so the rename itself is durable. The temp name is
// deterministic (store.TempPath) so fault schedules keyed by operation
// counts replay exactly and the recovery scan can recognize leftovers.
func WriteCheckpointFS(fsys store.FS, path string, s *System, step int) (err error) {
	tmp := store.TempPath(path)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = fsys.Remove(tmp)
		}
	}()
	if err = WriteCheckpoint(f, s, step); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(store.Dir(path))
}

// ReadCheckpointFS restores a checkpoint through a store VFS.
func ReadCheckpointFS(fsys store.FS, path string) (*System, int, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ReadCheckpoint(bytes.NewReader(data))
}

// CheckpointStep validates a checkpoint image — parse, version, CRC, state
// invariants — and returns the step it commits. It is the format callback
// the recovery scan (store.Validators) uses to judge checkpoint artifacts.
func CheckpointStep(data []byte) (int, error) {
	_, step, err := ReadCheckpoint(bytes.NewReader(data))
	return step, err
}
