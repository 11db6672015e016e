package supervise

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdm/internal/store"
)

// FuzzReadJournal drives the log reader with arbitrary bytes. It must never
// panic, never return a frame of a foreign version, and anything it accepts
// must survive a rewrite-and-reread round trip.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	j, err := CreateLogFS(path, Options{}, Record{Step: 0, State: json.RawMessage(`{"l":5.64}`)})
	if err != nil {
		f.Fatal(err)
	}
	for step := 1; step <= 2; step++ {
		err := j.Append(Record{
			Step:    step,
			Stage:   "nvt",
			Cursor:  []string{"step 1: mdg:transient"},
			Payload: json.RawMessage(`{"Retries":1}`),
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if recs, err := ReadJournal(seed); err != nil || len(recs) != 3 {
		f.Fatalf("seed log unreadable: %d frames, %v", len(recs), err)
	}
	f.Add(string(seed))
	f.Add(string(seed) + "0badcafe {\"torn")
	f.Add(`{"version":99,"step":1,"crc32":0}`)
	f.Add("")
	f.Add("{}\nnot json at all")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadJournal([]byte(data))
		for _, r := range recs {
			if r.Version != JournalVersion {
				t.Fatalf("accepted foreign version %d", r.Version)
			}
		}
		if err != nil {
			return
		}
		// Rewrite what was read: the result must read back identically.
		path := filepath.Join(t.TempDir(), "rt.wal")
		j, werr := CreateLogFS(path, Options{}, recs[0])
		if werr != nil {
			t.Fatal(werr)
		}
		for _, r := range recs[1:] {
			if werr := j.Append(r); werr != nil {
				t.Fatal(werr)
			}
		}
		if werr := j.Close(); werr != nil {
			t.Fatal(werr)
		}
		back, rerr := ReadJournalFS(store.OS(), path)
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip lost frames: %d -> %d", len(recs), len(back))
		}
		for i := range back {
			if back[i].Step != recs[i].Step || back[i].Stage != recs[i].Stage {
				t.Fatalf("frame %d changed in round trip", i)
			}
		}
	})
}
