package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// calibrate makes runs runs of every selected workload the way the driver
// does (one process and one seed each) and prints, per end-to-end metric,
// the median, the quartiles, the quartile spread as a share of the median
// and whether that spread stays within the metric's bound. The ungated
// extras each run leaves in result.json get the same row without a verdict.
func calibrate(sp spec, selected []workload, rc runConfig, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range selected {
		values := map[string][]float64{}
		fmt.Printf("%s  %d runs x %g s, each its own process\n  %6s", w.name, runs, rc.seconds, "seed")
		for _, m := range sp.EndToEnd {
			fmt.Printf(" %s", m.Name)
		}
		fmt.Println()
		for i := 0; i < runs; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(rc.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			l, err := lastLine(out)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			if !l.Correct || l.Failed > 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d", w.name, i, l.Correct, l.Failed)
			}
			fmt.Printf("  %6d", rc.seed+int64(i))
			for _, m := range sp.EndToEnd {
				v := l.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Printf(" %.5g", v)
			}
			fmt.Println()
			extra, err := readExtras()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			for k, m := range extra {
				values[k] = append(values[k], m.Value)
			}
		}
		gated := "gated"
		if !w.gated {
			gated = "not gated: absent from BENCHMARK.json"
		}
		fmt.Printf("%s  (%s)\n", w.name, gated)
		fmt.Printf("  %-28s %-6s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "within")
		for _, m := range sp.EndToEnd {
			v := values[m.Name]
			if len(v) < 2 {
				fmt.Printf("  %-28s %-6s %v\n", m.Name, m.Unit, v)
				continue
			}
			q := quartiles(v)
			verdict := "yes"
			if spread(v) > m.Bound && m.Name != "setup_s" {
				verdict = "NO: spread exceeds bound"
			}
			fmt.Printf("  %-28s %-6s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, q[0], q[1], q[2], spread(v)*100, m.Bound*100, verdict)
		}
		for _, name := range []string{"write_p99_us", "erase_p50_us", "erase_p99_us", "stall_ops_over_1ms"} {
			if v := values[name]; len(v) >= 2 {
				q := quartiles(v)
				fmt.Printf("  %-28s %-6s %12.4f %12.4f %12.4f %7.1f%% %6s  not gated\n", name, "", q[0], q[1], q[2], spread(v)*100, "-")
			}
		}
	}
	return nil
}

// readExtras returns the ungated metrics of the run that last wrote
// result.json.
func readExtras() (map[string]metric, error) {
	b, err := os.ReadFile(filepath.Join(outDir, "result.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Workloads []e2eResult `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	if len(doc.Workloads) != 1 {
		return nil, fmt.Errorf("result.json holds %d workloads, want the one just run", len(doc.Workloads))
	}
	return doc.Workloads[0].Extra, nil
}

// lastLine parses the driver's JSON object off the end of a run's output.
func lastLine(out []byte) (driverLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = bytes.Clone(sc.Bytes())
		}
	}
	var l driverLine
	if err := json.Unmarshal(last, &l); err != nil {
		return l, fmt.Errorf("last output line is not the result object: %w", err)
	}
	return l, nil
}
