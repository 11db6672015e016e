package store

import (
	"fmt"
	"path/filepath"
)

// ScanLog validates a run's log image without this package importing the
// format (internal/supervise writes through this package, so it would
// cycle): the steps of the image's valid prefix — the opening snapshot
// frame's first, then one per record — the byte length of that prefix, and
// a non-nil error for interior corruption or an image with no intact
// snapshot frame. A torn tail is validLen < len(data) with err == nil.
type ScanLog func(data []byte) (steps []int, validLen int, err error)

// Artifact is one inventoried file.
type Artifact struct {
	Path      string `json:"path"`
	Kind      string `json:"kind"` // "log", "temp"
	Size      int    `json:"size"`
	ValidLen  int    `json:"valid_len"`            // bytes of the valid prefix
	FirstStep int    `json:"first_step,omitempty"` // the snapshot step
	LastStep  int    `json:"last_step,omitempty"`
	Status    string `json:"status"` // "ok", "torn", "corrupt", "stale"
}

// Inventory is the recovery manager's verdict on a run directory.
type Inventory struct {
	Artifacts []Artifact `json:"artifacts"`
	// SnapshotStep is the step of the log's snapshot frame (-1 if the log is
	// missing or opens with no intact snapshot).
	SnapshotStep int `json:"snapshot_step"`
	// ResumeStep is the newest step recoverable from the log: the snapshot
	// step plus the longest contiguous run of records following it. -1
	// means no resumable state exists.
	ResumeStep int `json:"resume_step"`
	// Torn lists artifacts whose tail is missing (repairable by truncation),
	// Damaged those with interior corruption or no intact snapshot frame,
	// and Stale leftover temp files from an interrupted atomic replace.
	Torn    []string `json:"torn,omitempty"`
	Damaged []string `json:"damaged,omitempty"`
	Stale   []string `json:"stale,omitempty"`
}

// Healthy reports a clean directory: nothing torn, damaged or stale.
func (inv *Inventory) Healthy() bool {
	return len(inv.Torn) == 0 && len(inv.Damaged) == 0 && len(inv.Stale) == 0
}

// Unrecoverable reports state that Repair cannot bring back to a resumable
// condition: a log whose snapshot frame is damaged.
func (inv *Inventory) Unrecoverable() bool {
	return inv.SnapshotStep < 0 && len(inv.Damaged) > 0
}

// TempPath is the hidden sibling used for atomic replacement of path. The
// name is fixed (not randomized) so fault schedules keyed by operation
// counts stay deterministic and Scan can recognize leftovers.
func TempPath(path string) string {
	return filepath.Join(Dir(path), "."+filepath.Base(path)+".tmp")
}

// Scan inventories a run's one durable artifact — the log at path — and the
// atomic-replace leftover it can leave behind, validates the log with scan,
// and computes the newest resumable step. It never mutates the directory;
// Repair applies its verdict.
func Scan(fsys FS, path string, scan ScanLog) (*Inventory, error) {
	inv := &Inventory{SnapshotStep: -1, ResumeStep: -1}

	// An atomic-replace leftover is stale whatever its content: the rename
	// that would have committed it never happened.
	tmp := TempPath(path)
	if data, err := fsys.ReadFile(tmp); err == nil {
		inv.Artifacts = append(inv.Artifacts, Artifact{Path: tmp, Kind: "temp", Size: len(data), Status: "stale"})
		inv.Stale = append(inv.Stale, tmp)
	}

	data, err := fsys.ReadFile(path)
	if err != nil {
		if NotExist(err) {
			return inv, nil
		}
		return nil, fmt.Errorf("store: scan log: %w", err)
	}
	a := Artifact{Path: path, Kind: "log", Size: len(data)}
	steps, validLen, verr := scan(data)
	a.ValidLen = validLen
	switch {
	case verr != nil:
		a.Status = "corrupt"
		inv.Damaged = append(inv.Damaged, path)
	case validLen < len(data):
		a.Status = "torn"
		inv.Torn = append(inv.Torn, path)
	default:
		a.Status = "ok"
	}
	if len(steps) > 0 {
		a.FirstStep, a.LastStep = steps[0], steps[len(steps)-1]
		inv.SnapshotStep = steps[0]
		// Records beyond a gap are not consistently reachable from the
		// snapshot: the resume step stops growing there.
		t := steps[0]
		for _, st := range steps[1:] {
			if st != t+1 {
				break
			}
			t = st
		}
		inv.ResumeStep = t
	}
	inv.Artifacts = append(inv.Artifacts, a)
	return inv, nil
}

// Repair applies Scan's verdict: a torn or interior-corrupt log is truncated
// to its valid prefix (atomic replace), a stale temp file is removed. A log
// whose snapshot frame is damaged is not touched — that state is
// Unrecoverable and deleting it is a human's call. Returns the paths
// modified or removed.
func Repair(fsys FS, inv *Inventory) ([]string, error) {
	var changed []string
	for _, a := range inv.Artifacts {
		switch {
		case a.Kind == "temp":
			if err := fsys.Remove(a.Path); err != nil && !NotExist(err) {
				return changed, fmt.Errorf("store: repair: %w", err)
			}
			changed = append(changed, a.Path)
		case a.Kind == "log" && a.Status != "ok" && inv.SnapshotStep >= 0:
			data, err := fsys.ReadFile(a.Path)
			if err != nil {
				return changed, fmt.Errorf("store: repair: %w", err)
			}
			if a.ValidLen > len(data) {
				return changed, fmt.Errorf("store: repair: %s changed underfoot", a.Path)
			}
			if err := WriteFileAtomic(fsys, a.Path, data[:a.ValidLen]); err != nil {
				return changed, fmt.Errorf("store: repair: %w", err)
			}
			changed = append(changed, a.Path)
		}
	}
	if len(changed) > 0 {
		if err := fsys.SyncDir(Dir(changed[0])); err != nil {
			return changed, fmt.Errorf("store: repair: %w", err)
		}
	}
	return changed, nil
}

// WriteFileAtomic writes data to path with the full atomic-replace
// discipline: temp sibling, file sync, rename, directory sync.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := TempPath(path)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(Dir(path))
}
