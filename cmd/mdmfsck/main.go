// Command mdmfsck inspects, verifies and repairs the one durable artifact of
// an mdm run — its log, a snapshot frame followed by step records, which
// ResumeFromJournal needs to rebuild a killed simulation:
//
//	go run ./cmd/mdmfsck -journal run.wal
//	go run ./cmd/mdmfsck -verify -journal run.wal
//	go run ./cmd/mdmfsck -repair -journal run.wal
//
// The default mode prints the recovery manager's inventory (store.Scan) as
// JSON: the log and any stale atomic-replace temp with their validation
// status, the snapshot step, the newest resumable step, and the lists of
// torn, damaged and stale files. -repair applies the inventory's verdict the
// same way resume does — a torn or interior-corrupt log is truncated to its
// valid prefix with a full atomic replace, a stale temp is removed — and
// prints the post-repair inventory. A damaged snapshot frame is never
// touched: that state is unrecoverable and deleting it is a human's call.
//
// Exit status is 0 when the log is healthy (with -repair: healthy after
// repair), 1 when anomalies exist that -repair could fix (or -verify found
// the directory unclean), and 2 when the state is unrecoverable — the log's
// snapshot frame is damaged — or the scan itself fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mdm/internal/store"
	"mdm/internal/supervise"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the JSON document mdmfsck emits: the scan inventory plus the
// tool's verdict and, after -repair, the paths it changed.
type report struct {
	*store.Inventory
	Healthy       bool     `json:"healthy"`
	Unrecoverable bool     `json:"unrecoverable"`
	Repaired      []string `json:"repaired,omitempty"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mdmfsck", flag.ExitOnError)
	journal := fs.String("journal", "run.wal", "run log path")
	verify := fs.Bool("verify", false, "verify only: exit 0 iff the run directory is clean")
	repair := fs.Bool("repair", false, "truncate torn journal tails and remove stale temps, then re-verify")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mdmfsck [-verify|-repair] [-journal path]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *verify && *repair {
		fmt.Fprintln(stderr, "mdmfsck: -verify and -repair are mutually exclusive")
		return 2
	}

	fsys := store.OS()
	inv, err := store.Scan(fsys, *journal, supervise.ScanLog)
	if err != nil {
		fmt.Fprintln(stderr, "mdmfsck:", err)
		return 2
	}
	rep := report{Inventory: inv}
	if *repair && !inv.Healthy() && !inv.Unrecoverable() {
		changed, err := store.Repair(fsys, inv)
		if err != nil {
			fmt.Fprintln(stderr, "mdmfsck: repair:", err)
			return 2
		}
		rep.Repaired = changed
		if inv, err = store.Scan(fsys, *journal, supervise.ScanLog); err != nil {
			fmt.Fprintln(stderr, "mdmfsck:", err)
			return 2
		}
		rep.Inventory = inv
	}
	rep.Healthy = inv.Healthy()
	rep.Unrecoverable = inv.Unrecoverable()

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "mdmfsck:", err)
		return 2
	}
	switch {
	case rep.Unrecoverable:
		return 2
	case !rep.Healthy:
		return 1
	}
	return 0
}
