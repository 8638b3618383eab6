package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs the workload n times, each in its own process with its
// own seed (1..n), and prints every end-to-end metric's median and the
// distance between its quartiles as a share of the median: the evidence a
// metric's bound is set from.
func steadiness(name string, seconds, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 1; i <= n; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(i),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w\n%s", i, err, out)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		fmt.Printf("run %d (seed %d): attempted %d, failed %d:", i, i, res.Attempted, res.Failed)
		for _, k := range e2eMetrics {
			m := res.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			fmt.Printf(" %s=%.4g", k, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("%s: %d runs of %d s\n", name, n, seconds)
	fmt.Printf("  %-20s %14s %8s %12s\n", "metric", "median", "unit", "IQR/median")
	for _, k := range e2eMetrics {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("  %-20s %14.4f %8s %11.2f%%\n", k, med, units[k], 100*spread)
	}
	return nil
}

// lastResult parses the JSON result on a run's last output line.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
