package main

import (
	"mdm/internal/core"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json (a unit test keeps them equal):
// the timed run reports every end-to-end metric, the traced run every
// per-layer metric, on every workload — a layer a workload does not touch
// reports 0, which is itself the prediction ("MD workloads write nothing").
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_cal_ms", "ms"},
	{"force_rms_rel_err", "ratio"},
	{"alloc_bytes_per_step", "B"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"mdm.step_raw_ms_p50", "ms"},
	{"mdm.step_raw_ms_p95", "ms"},
	{"mdm.wall_s", "s"},
	{"mdm.ns_per_particle_step", "ns"},
	{"mdm.cal_ms_p10", "ms"},
	{"mdm.cal_ms_p50", "ms"},
	{"mdm.new_simulation_ms", "ms"},
	{"mdm.trace_overhead_ratio", "ratio"},
	{"core.forces_ms", "ms"},
	{"core.forces_self_ms", "ms"},
	{"core.potential_ms", "ms"},
	{"core.jset_rebuild_ratio", "ratio"},
	{"core.overlap_gain", "ratio"},
	{"core.new_machine_ms", "ms"},
	{"mdgrape2.sweep_ms", "ms"},
	{"mdgrape2.pairs_per_step", "count"},
	{"mdgrape2.ns_per_pair", "ns"},
	{"mdgrape2.calls_per_step", "count"},
	{"mdgrape2.jset_build_ms", "ms"},
	{"mdgrape2.table_load_ms", "ms"},
	{"wine2.quantize_ms", "ms"},
	{"wine2.dft_ms", "ms"},
	{"wine2.idft_ms", "ms"},
	{"wine2.ops_per_step", "count"},
	{"wine2.ns_per_particle_wave", "ns"},
	{"wine2.waves", "count"},
	{"md.integrate_self_ms", "ms"},
	{"md.checkpoint_ms", "ms"},
	{"md.checkpoint_bytes", "count"},
	{"supervise.journal_append_ms", "ms"},
	{"supervise.journal_bytes_per_step", "count"},
	{"store.fsyncs_per_step", "count"},
	{"store.fsync_ms_mean", "ms"},
	{"store.bytes_written_per_step", "count"},
	{"store.renames_per_session", "count"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.session_ms_p50", "ms"},
	{"serve.session_ms_p90", "ms"},
	{"serve.sessions_per_s", "1/s"},
	{"serve.commit_share", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.rejected_ratio", "ratio"},
	{"mpi.msgs_per_step", "count"},
	{"mpi.bytes_per_step", "count"},
	{"mpi.halo_bytes_per_rebuild", "count"},
	{"mpi.migrants_per_rebuild", "count"},
	{"parallelize.dispatch_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs values with the units of defs; a name without a value
// reports 0.
func collect(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// endToEndValues are the timed run's five figures.
func endToEndValues(o *outcome, setupS float64) map[string]float64 {
	step, _ := o.stepCalMs()
	return map[string]float64{
		"setup_s":              setupS,
		"step_cal_ms":          step,
		"force_rms_rel_err":    o.probeErr,
		"alloc_bytes_per_step": o.allocPerStep(),
		"live_heap_mb":         o.liveHeapMB,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues turns the traced invocation's two passes — plain (untraced,
// the context figures of layer mdm) and traced (spans, replays, counts) —
// into the per-layer metrics. Span times are medians over replays of the
// calibrated duration.
func perLayerValues(plain, traced *outcome, tr *tracer, dispatch float64) map[string]float64 {
	v := map[string]float64{}
	w := traced.w
	perOp := float64(plain.stepsPerOp)
	particles := 8 * servedCells * servedCells * servedCells
	if !w.served {
		particles = 8 * w.cfg.Cells * w.cfg.Cells * w.cfg.Cells
	}

	// Layer mdm: the plain pass.
	raw := make([]float64, len(plain.samples))
	var spins []float64
	for i, s := range plain.samples {
		raw[i] = ms(s.t) / perOp
		spins = append(spins, ms(s.before))
	}
	plainStep, _ := plain.stepCalMs()
	tracedStep, _ := traced.stepCalMs()
	v["mdm.step_raw_ms_p50"] = median(raw)
	v["mdm.step_raw_ms_p95"] = percentile(raw, 0.95)
	v["mdm.wall_s"] = plain.window.Seconds()
	v["mdm.ns_per_particle_step"] = plainStep * 1e6 / float64(particles)
	v["mdm.cal_ms_p10"] = percentile(spins, 0.10)
	v["mdm.cal_ms_p50"] = median(spins)
	v["mdm.new_simulation_ms"] = plain.newSimMs
	v["mdm.trace_overhead_ratio"] = ratio(tracedStep, plainStep) - 1

	// Force layers: the replay spans.
	total, self := tr.durations(func(step int) float64 {
		if f, ok := traced.replayFactor[step]; ok {
			return f
		}
		return 1
	})
	med := func(name string) float64 {
		if len(total[name]) == 0 {
			return 0
		}
		return median(total[name])
	}
	if rp := traced.rp; rp != nil && rp.replays > 0 {
		n := float64(rp.replays)
		forces, alt := total["core.forces"], total["core.forces_alt"]
		diffs := make([]float64, min(len(forces), len(alt)))
		for i := range diffs {
			diffs[i] = alt[i] - forces[i]
			if rp.potInPrimary {
				diffs[i] = -diffs[i]
			}
		}
		potential := median(diffs)
		// No workload sets a skin, so every step rebuilds its j-set; the
		// decomposed session's own counters say so, and the single-process
		// machine's are not reachable through mdm.
		rebuild := 1.0
		if sh := traced.shadow; sh != nil {
			rebuild = ratio(float64(sh.rebuilds), float64(sh.rebuilds+sh.reuses))
		}
		jset := med("mdgrape2.jset_build")
		sweep := med("mdgrape2.sweep")
		wave := med("wine2.quantize") + med("wine2.dft") + med("wine2.idft")
		bare := med("core.forces") // forces without the potential evaluation
		if rp.potInPrimary {
			bare -= potential
		}
		blocking := sweep + wave
		if rp.cfg.Pipeline {
			blocking = max(sweep, wave) // the arms overlap; the longer one blocks
		}
		v["core.forces_ms"] = med("core.forces")
		v["core.forces_self_ms"] = bare - jset - blocking
		v["core.potential_ms"] = potential
		v["core.jset_rebuild_ratio"] = rebuild
		v["core.overlap_gain"] = ratio(sweep+wave, bare)
		v["core.new_machine_ms"] = rp.newMachineMs
		v["mdgrape2.sweep_ms"] = sweep
		v["mdgrape2.pairs_per_step"] = float64(rp.pairs) / n
		v["mdgrape2.ns_per_pair"] = ratio(sweep*1e6, float64(rp.pairs)/n)
		v["mdgrape2.calls_per_step"] = float64(rp.mdgCalls) / n
		v["mdgrape2.jset_build_ms"] = med("mdgrape2.jset_build")
		v["mdgrape2.table_load_ms"] = rp.tableLoadMs
		v["wine2.quantize_ms"] = med("wine2.quantize")
		v["wine2.dft_ms"] = med("wine2.dft")
		v["wine2.idft_ms"] = med("wine2.idft")
		v["wine2.ops_per_step"] = float64(rp.wineOps) / n
		v["wine2.ns_per_particle_wave"] = ratio((med("wine2.dft")+med("wine2.idft"))*1e6, float64(particles*len(rp.waves)))
		v["wine2.waves"] = float64(len(rp.waves))
		v["md.integrate_self_ms"] = median(self["md.step"])
	}

	// Durable-write layers: the served workload's replay and live counts.
	if w.served {
		steps := float64(traced.fixedOps * traced.stepsPerOp)
		session := traced.calMs()
		v["md.checkpoint_ms"] = med("md.checkpoint")
		v["md.checkpoint_bytes"] = traced.checkpointBytes
		v["supervise.journal_append_ms"] = median(self["supervise.journal_append"])
		v["supervise.journal_bytes_per_step"] = traced.journalBytesPerStep
		v["store.fsyncs_per_step"] = float64(traced.fs.fsyncs) / steps
		v["store.fsync_ms_mean"] = traced.fsyncMs
		v["store.bytes_written_per_step"] = float64(traced.fs.bytes) / steps
		v["store.renames_per_session"] = float64(traced.fs.renames) / float64(traced.fixedOps)
		v["serve.admit_ms_p50"] = median(traced.admitMs)
		v["serve.session_ms_p50"] = median(session)
		v["serve.session_ms_p90"] = percentile(session, 0.90)
		v["serve.sessions_per_s"] = ratio(1000, median(session))
		v["serve.commit_share"] = 1 - ratio(perOp*traced.bareStepMs, median(session))
		v["serve.queue_wait_ms_p50"] = median(traced.queueMs)
		v["serve.rejected_ratio"] = ratio(float64(traced.rejected), float64(traced.attempted))
	}

	// Layer mpi: the shadow session's traffic over the fixed portion.
	if s := traced.shadow; s != nil {
		steps := float64(traced.fixedOps)
		v["mpi.msgs_per_step"] = float64(s.total.Messages) / steps
		v["mpi.bytes_per_step"] = float64(s.total.Bytes) / steps
		v["mpi.halo_bytes_per_rebuild"] = ratio(float64(s.byTag[core.TagHalo].Bytes), float64(s.rebuilds))
		v["mpi.migrants_per_rebuild"] = ratio(float64(s.byTag[core.TagMigrate].Bytes)/8, float64(s.rebuilds))
	}
	v["parallelize.dispatch_us"] = dispatch
	return v
}
