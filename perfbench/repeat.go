package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each in its own process with
// seeds cfg.seed, cfg.seed+1, …, one after another, and prints for
// every metric, and for each of the workload's own latencies, the
// median, the quartiles and the spread — the distance between the
// quartiles as a share of the median — together with the share of
// failed operations in each run.
func repeatRuns(cfg config, size string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var failShares []string
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-size", size}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", fmt.Sprintf("%s.seed%d", cfg.traceOut, seed))
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: outputs failed their checks", seed)
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		// The workload's own latencies are on the human-readable lines:
		// "  <name>  ms  median <value> …".
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "ms" && f[2] == "median" && slices.Contains(workloadLatencies, f[0]) {
				if v, err := strconv.ParseFloat(f[3], 64); err == nil {
					values[f[0]] = append(values[f[0]], v)
					units[f[0]] = "ms"
				}
			}
		}
		fmt.Printf("seed %d: %s\n", seed, lines[len(lines)-1])
	}
	fmt.Printf("\n%s, %d runs (failed/attempted per run: %s)\n", cfg.workload, n, strings.Join(failShares, " "))
	fmt.Printf("%-28s %-6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-28s %-6s %12.4f %12.4f %12.4f %8.4f\n", name, units[name], q1, med, q3, spread)
	}
	return nil
}
