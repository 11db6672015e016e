package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mdm"
	"mdm/internal/serve"
	"mdm/internal/store"
)

// setupSample is one cold set-up measurement: the raw time and the
// calibration spins run just before and just after it.
type setupSample struct {
	RawNs    int64 `json:"raw_ns"`
	BeforeNs int64 `json:"spin_before_ns"`
	AfterNs  int64 `json:"spin_after_ns"`
}

// setUp performs a workload's set-up once: for an MD workload
// mdm.NewSimulation (machine build, table load, first force evaluation); for
// the served workload serve.Open on an empty root until the first submitted
// 8-step session reports done (manager start, machine build, first
// checkpoint commit).
func setUp(ctx context.Context, w workload, seed int64, dir string) error {
	if !w.served {
		sim, err := mdm.NewSimulation(w.simConfig(seed))
		if err != nil {
			return err
		}
		return sim.Free()
	}
	m, root, err := openManager(dir, &countFS{FS: store.OS()})
	if err != nil {
		return err
	}
	defer func() {
		m.Close()
		_ = os.RemoveAll(root)
	}()
	sess, err := m.Submit(ctx, jobSpec(seed, 0, setupSteps))
	if err != nil {
		return err
	}
	state, _, err := awaitDone(ctx, sess)
	if err == nil && state != serve.StateDone {
		err = fmt.Errorf("set-up session ended %s: %s", state, sess.Status().Error)
	}
	return err
}

// setupChild is the body of a set-up child process: process entry → set-up
// complete, minus the time spent in the two leading spins, printed as one
// JSON line.
func setupChild(opt options) error {
	w, ok := findWorkload(opt.child)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.child)
	}
	cal := newCalibrator(w.cores)
	defer cal.close()
	cal.spin() // cold
	before := cal.spin()
	spun := time.Since(processStart)
	if err := setUp(context.Background(), w, opt.seed, opt.dir); err != nil {
		return err
	}
	raw := time.Since(processStart) - spun
	s := setupSample{RawNs: int64(raw), BeforeNs: int64(before), AfterNs: int64(cal.spin())}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureSetup returns the calibrated cold set-up time in seconds as the
// median over setupRuns fresh child processes, run one after another, and
// the number of samples. The quick mode sets up once in this process (no
// child processes, so not cold).
func measureSetup(ctx context.Context, opt options, w workload, c *calibrator, scratch string) (float64, int, error) {
	var cal []float64
	if opt.quick {
		c.spin()
		before := c.spin()
		t0 := time.Now()
		if err := setUp(ctx, w, opt.seed, scratch); err != nil {
			return 0, 0, err
		}
		s := sample{t: time.Since(t0), before: before, after: c.spin()}
		return s.calMs(w.elasticity) / 1e3, 1, nil
	}
	for i := 0; i < setupRuns; i++ {
		var s setupSample
		_, err := childResult(ctx, &s, "-setup-child", w.name, "-seed", fmt.Sprint(opt.seed), "-dir", scratch)
		if err != nil {
			return 0, 0, err
		}
		cal = append(cal, sample{
			t: time.Duration(s.RawNs), before: time.Duration(s.BeforeNs), after: time.Duration(s.AfterNs),
		}.calMs(w.elasticity))
	}
	return median(cal) / 1e3, len(cal), nil
}
