package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mdm/internal/store"
)

// stallCounter counts OnStall callbacks.
type stallCounter struct {
	mu sync.Mutex
	n  int
}

func (c *stallCounter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }

func (c *stallCounter) get() int { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

func TestWatchdogDeclaresStall(t *testing.T) {
	w := NewWatchdog(20 * time.Millisecond)
	var c stallCounter
	w.OnStall(c.inc)
	w.Start()
	defer w.Stop()
	w.Arm()
	defer w.Disarm()
	w.Beat()
	deadline := time.Now().Add(2 * time.Second)
	for c.get() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no stall declared for a silent armed watchdog")
		}
		time.Sleep(time.Millisecond)
	}
	if n := w.StallCount(); n != 1 {
		t.Errorf("StallCount = %d, want 1", n)
	}
}

func TestWatchdogQuietWhenDisarmedOrBeating(t *testing.T) {
	w := NewWatchdog(10 * time.Millisecond)
	w.OnStall(func() { t.Error("stall declared") })
	w.Start()
	defer w.Stop()
	// Disarmed: silence is idle, not stalled.
	w.Beat()
	time.Sleep(50 * time.Millisecond)
	// Armed but beating: alive.
	w.Arm()
	for i := 0; i < 20; i++ {
		w.Beat()
		time.Sleep(2 * time.Millisecond)
	}
	w.Disarm()
}

// A watchdog nothing has beaten yet cannot stall, however long it is armed:
// no hardware call has been in flight to fall silent.
func TestWatchdogNeverBeatenCannotStall(t *testing.T) {
	w := NewWatchdog(time.Millisecond)
	w.Arm()
	defer w.Disarm()
	w.check(time.Now().Add(time.Hour))
	if n := w.StallCount(); n != 0 {
		t.Errorf("StallCount = %d before any beat, want 0", n)
	}
}

// Silence counts from the later of the outermost Arm and the last beat: a
// beat long before the window opens does not trip the monitor at once.
func TestWatchdogArmRestartsTheClock(t *testing.T) {
	w := NewWatchdog(time.Minute)
	w.Beat()
	w.last = w.last.Add(-time.Hour) // stale before the window opens
	w.Arm()
	defer w.Disarm()
	now := time.Now()
	w.check(now)
	if n := w.StallCount(); n != 0 {
		t.Fatalf("stale beat tripped a fresh window: StallCount = %d", n)
	}
	w.check(now.Add(2 * time.Minute))
	if n := w.StallCount(); n != 1 {
		t.Errorf("StallCount = %d past the deadline, want 1", n)
	}
}

func TestWatchdogStallLatchClearsOnBeat(t *testing.T) {
	w := NewWatchdog(10 * time.Millisecond)
	var c stallCounter
	w.OnStall(c.inc)
	w.Start()
	defer w.Stop()
	w.Arm()
	defer w.Disarm()
	w.Beat()
	time.Sleep(60 * time.Millisecond) // one stall, then latched
	if n := c.get(); n != 1 {
		t.Fatalf("stall count after silence = %d, want 1 (latched)", n)
	}
	w.Beat() // recovery: latch clears
	time.Sleep(60 * time.Millisecond)
	if n := c.get(); n != 2 {
		t.Errorf("stall count after beat + silence = %d, want 2", n)
	}
}

func TestWatchdogStopIdempotent(t *testing.T) {
	w := NewWatchdog(time.Millisecond)
	w.Start()
	w.Stop()
	w.Stop()
}

func TestBreakerLifecycle(t *testing.T) {
	var b breaker
	// Two failures inside the window: still closed.
	if b.Fail(1) || b.Fail(2) {
		t.Fatal("tripped before breakerTrip failures")
	}
	if !b.Allow(3) {
		t.Fatal("closed breaker rejects")
	}
	// Third failure trips it open.
	if !b.Fail(3) {
		t.Fatal("third failure in window did not trip")
	}
	if b.Allow(4) || b.State(4) != Open {
		t.Fatal("open breaker allows")
	}
	// Cooldown (8 steps) elapses: half-open probe allowed.
	if b.Allow(10) {
		t.Fatal("open breaker allowed before its cooldown")
	}
	if !b.Allow(11) || b.State(11) != HalfOpen {
		t.Fatalf("state at step 11 = %v, want half-open", b.State(11))
	}
	// Probe fails: reopens with doubled cooldown (16 steps).
	if !b.Fail(11) {
		t.Fatal("half-open probe failure did not reopen")
	}
	if b.Allow(26) {
		t.Fatal("reopened breaker allowed before doubled cooldown")
	}
	if !b.Allow(27) {
		t.Fatal("breaker still open after doubled cooldown")
	}
	// Probe succeeds: closed, backoff reset.
	b.OK(27)
	if b.State(28) != Closed {
		t.Fatalf("state after good probe = %v, want closed", b.State(28))
	}
}

// The reopen backoff doubles up to breakerMaxCooldown and stays there.
func TestBreakerBackoffCaps(t *testing.T) {
	var b breaker
	b.Fail(1)
	b.Fail(2)
	b.Fail(3)
	step := 3
	for b.cooldown < breakerMaxCooldown {
		step += b.cooldown
		if !b.Fail(step) { // the half-open probe fails
			t.Fatalf("probe failure at step %d did not reopen", step)
		}
	}
	step += b.cooldown
	b.Fail(step)
	if b.cooldown != breakerMaxCooldown {
		t.Errorf("cooldown = %d past the cap, want %d", b.cooldown, breakerMaxCooldown)
	}
}

func TestBreakerWindowExpiresFailures(t *testing.T) {
	var b breaker
	b.Fail(1)
	b.Fail(2)
	// Step 30 is outside the window of both: only one live failure.
	if b.Fail(30) {
		t.Fatal("stale failures counted toward trip")
	}
	if !b.Allow(30) {
		t.Fatal("breaker opened on expired window")
	}
}

func TestBreakerSetQuarantineFlow(t *testing.T) {
	s := NewBreakerSet()
	if s.Fail("mdg/board1", 1) || s.Fail("mdg/board1", 2) {
		t.Fatal("tripped before the third failure")
	}
	if !s.Fail("mdg/board1", 3) {
		t.Fatal("did not trip on the third failure")
	}
	if scope, open := s.FirstOpen(4); !open || scope != "mdg/board1" {
		t.Fatalf("FirstOpen = %q, %v", scope, open)
	}
	// Quarantined: the board left the stripe, its breaker retires with it.
	s.Drop("mdg/board1")
	if _, open := s.FirstOpen(4); open {
		t.Fatal("dropped scope still gates dispatch")
	}
	if s.Trips() != 1 {
		t.Errorf("Trips = %d, want 1 (survives Drop)", s.Trips())
	}
	// OK on an empty set is fine.
	s.OK(5)
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.wal")
}

// A log reads back as its snapshot frame — state, cursor and payload
// included — followed by its step records.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	payload, _ := json.Marshal(map[string]int{"steps": 3})
	snap := Record{Step: 0, Cursor: []string{"step 0: none"}, Payload: payload, State: json.RawMessage(`{"l":5.64}`)}
	j, err := CreateLogFS(path, Options{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Step: 1, Stage: "nvt", Cursor: []string{"step 1: mdg:transient@step=1"}},
		{Step: 2, Stage: "nvt"},
		{Step: 3, Stage: "nve", Payload: payload},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalFS(store.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("read %d frames, want %d", len(got), len(want)+1)
	}
	if string(got[0].State) != string(snap.State) || string(got[0].Payload) != string(payload) || got[0].Cursor[0] != snap.Cursor[0] {
		t.Errorf("snapshot frame = %+v, want %+v", got[0], snap)
	}
	for i, r := range got[1:] {
		if r.Step != want[i].Step || r.Stage != want[i].Stage {
			t.Errorf("record %d = step %d stage %q, want step %d stage %q",
				i, r.Step, r.Stage, want[i].Step, want[i].Stage)
		}
		if r.Version != JournalVersion {
			t.Errorf("record %d: version %d", i, r.Version)
		}
	}
	if got[1].Cursor[0] != want[0].Cursor[0] {
		t.Errorf("cursor = %v", got[1].Cursor)
	}
	if string(got[3].Payload) != string(payload) {
		t.Errorf("payload = %s", got[3].Payload)
	}
}

// stepsOf lists the steps of the records after a log's snapshot frame.
func stepsOf(recs []Record) []int {
	var steps []int
	for _, r := range recs[min(len(recs), 1):] {
		steps = append(steps, r.Step)
	}
	return steps
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournalFS(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Step: 1})
	j.Append(Record{Step: 2})
	j.Close()
	// A kill mid-append leaves a truncated final frame.
	buf, _ := os.ReadFile(path)
	torn := append(buf, []byte(`0badcafe {"version":2,"step":3,"st`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournalFS(store.OS(), path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if got := stepsOf(recs); len(got) != 2 || got[1] != 2 {
		t.Fatalf("records = %+v, want steps 1,2", recs)
	}
}

func TestJournalRejectsInteriorCorruption(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournalFS(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Step: 1})
	j.Append(Record{Step: 2})
	j.Append(Record{Step: 3})
	j.Close()
	buf, _ := os.ReadFile(path)
	buf = bytes.Replace(buf, []byte(`"step":2`), []byte(`"step":20`), 1) // breaks the CRC
	recs, err := ReadJournal(buf)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("interior corruption: err = %v, want ErrJournalCorrupt", err)
	}
	if got := stepsOf(recs); len(got) != 1 || got[0] != 1 {
		t.Fatalf("valid prefix = %+v, want step 1", recs)
	}
}

// A frame of a foreign version is refused, even as the final frame, and so
// is a run directory of the unframed format the log replaced: the version-1
// journal record and the separate checkpoint file.
func TestJournalRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	frame, err := encodeFrame(&buf, json.NewEncoder(&buf), Record{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(frame, []byte(`"version":2`), []byte(`"version":9`), 1)
	crc := crc32.ChecksumIEEE(future[frameHead : len(future)-1])
	copy(future, fmt.Sprintf("%08x", crc))
	for _, data := range [][]byte{
		future,
		[]byte(`{"version":1,"step":1,"stage":"nvt","crc32":123}` + "\n"),
		[]byte(`{"version":2,"l":5.64,"step":7,"pos":[],"crc32":12345}` + "\n"),
	} {
		if _, err := ReadJournal(data); !errors.Is(err, ErrJournalVersion) {
			t.Errorf("%q: err = %v, want ErrJournalVersion", data, err)
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, err := ReadJournalFS(store.OS(), filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v", recs, err)
	}
}

func TestAppendJournalPreservesPrefix(t *testing.T) {
	path := journalPath(t)
	j, _ := CreateJournalFS(path, Options{})
	j.Append(Record{Step: 1})
	j.Close()
	j2, err := AppendJournalFS(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(Record{Step: 2})
	j2.Close()
	recs, err := ReadJournalFS(store.OS(), path)
	if got := stepsOf(recs); err != nil || len(got) != 2 {
		t.Fatalf("recs=%v err=%v, want 2 records after the snapshot", recs, err)
	}
}
