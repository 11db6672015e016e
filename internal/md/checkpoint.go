package md

import (
	"encoding/json"
	"fmt"

	"mdm/internal/store"
	"mdm/internal/supervise"
	"mdm/internal/vec"
)

// Checkpointing: the host computer's file-I/O duty (§3.1) for restartable
// runs — the paper's 36.5-hour campaign would have been unrecoverable
// without it. A checkpoint is the snapshot frame that opens a run's log
// (internal/supervise): this file owns only the state it carries, the
// complete dynamical state as JSON. The frame's CRC and the log's version
// protect it, so a torn or bit-rotted snapshot is refused instead of
// silently restarting a corrupted trajectory.

type state struct {
	L      float64   `json:"l"`
	Pos    []vec.V   `json:"pos"`
	Vel    []vec.V   `json:"vel"`
	Mass   []float64 `json:"mass"`
	Charge []float64 `json:"charge"`
	Type   []int     `json:"type"`
}

// EncodeState serializes the full dynamical state of s: the State of a
// snapshot frame. encoding/json renders float64 in shortest round-tripping
// form, so DecodeState restores it bit for bit.
func EncodeState(s *System) (json.RawMessage, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(state{L: s.L, Pos: s.Pos, Vel: s.Vel, Mass: s.Mass, Charge: s.Charge, Type: s.Type})
}

// DecodeState restores a System from a snapshot frame's State.
func DecodeState(raw []byte) (*System, error) {
	var st state
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("md: snapshot state: %w", err)
	}
	s := &System{L: st.L, Pos: st.Pos, Vel: st.Vel, Mass: st.Mass, Charge: st.Charge, Type: st.Type}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("md: invalid snapshot state: %w", err)
	}
	return s, nil
}

// WriteCheckpointFS writes a fresh log at path that holds only a snapshot of
// s at step, with the log's atomic commit (supervise.Journal.Snapshot): a
// crash at any instant leaves either the old complete file or the new
// complete one. Only the benchmark's durable-layer replay still calls it; a
// run commits through its own log.
func WriteCheckpointFS(fsys store.FS, path string, s *System, step int) error {
	raw, err := EncodeState(s)
	if err != nil {
		return err
	}
	j, err := supervise.CreateLogFS(path, supervise.Options{FS: fsys}, supervise.Record{Step: step, State: raw})
	if err != nil {
		return err
	}
	return j.Close()
}
