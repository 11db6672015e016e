package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is the machine state a run was taken in; a number is never
// read without it.
type environment struct {
	GitCommit    string  `json:"git_commit"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	CPUModel     string  `json:"cpu_model"`
	CalNominalMs float64 `json:"cal_nominal_ms"`
	CalMsP10     float64 `json:"cal_ms_p10"`
	CalMsP50     float64 `json:"cal_ms_p50"`
	StealTicks   int64   `json:"steal_ticks"`
	WallS        float64 `json:"wall_s"`
	Seed         int64   `json:"seed"`
}

func readEnvironment(seed int64, spins []float64, steal int64, wall time.Duration) environment {
	return environment{
		GitCommit:    gitCommit(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		CalNominalMs: calNominalMs,
		CalMsP10:     percentile(spins, 0.10),
		CalMsP50:     median(spins),
		StealTicks:   steal,
		WallS:        wall.Seconds(),
		Seed:         seed,
	}
}

// gitCommit is HEAD's hash, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// stealTicks is the cumulative steal time of /proc/stat's aggregate cpu line
// (0 where it cannot be read): time the hypervisor ran someone else while
// this VM wanted the CPU.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
