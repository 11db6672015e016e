package supervise

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/store"
)

// FuzzReadJournal drives the journal reader with arbitrary bytes. It must
// never panic, never return a record of a foreign version, and anything it
// accepts must survive a rewrite-and-reread round trip.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	j, err := CreateJournalFS(path, Options{})
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
	recs, err := ReadJournalFS(store.OS(), path)
	if err != nil || len(recs) != 2 {
		f.Fatalf("seed journal unreadable: %d records, %v", len(recs), err)
	}
	seed, err := json.Marshal(recs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed) + "\n" + string(seed))
	f.Add(string(seed) + "\n{\"torn")
	f.Add(`{"version":99,"step":1,"crc32":0}`)
	f.Add("")
	f.Add("{}\nnot json at all")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadJournal(strings.Split(data, "\n"))
		for _, r := range recs {
			if r.Version != JournalVersion {
				t.Fatalf("accepted foreign version %d", r.Version)
			}
		}
		if err != nil {
			return
		}
		// Re-append what was read: the result must read back identically.
		path := filepath.Join(t.TempDir(), "rt.wal")
		j, werr := CreateJournalFS(path, Options{})
		if werr != nil {
			t.Fatal(werr)
		}
		for _, r := range recs {
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
			t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
		}
		for i := range back {
			if back[i].Step != recs[i].Step || back[i].Stage != recs[i].Stage {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
	})
}
