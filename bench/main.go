// Command bench is the repository's benchmark: four named workloads, the
// end-to-end and per-layer metrics BENCHMARK.json lists, and a traced run.
// It drives the system only through exported functions and claims no gain;
// it is what later claims are measured with. See README.md.
//
//	bash bench/run.sh                       every workload, writes bench/out/result.json
//	bash bench/run.sh -trace 1              every workload traced: per-layer tables, bench/out/trace-*.json
//	bash bench/run.sh -runs 10              calibration: ten runs of every workload, quartiles and verdicts
//	bash bench/run.sh --workload wire-read --seed 7 --seconds 10 --trace 0    one run, as the driver makes it
//
// The last line of standard output of a one-workload run is the JSON
// object the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// outDir receives result.json and the trace files; bench/.gitignore
// ignores it. tmpDir is where runs keep their stores: inside the checkout's
// build directory, so a run writes nothing outside the checkout.
var (
	outDir = filepath.Join("bench", "out")
	tmpDir = filepath.Join(".bench_build", "data")
)

// spec is BENCHMARK.json, the one place metric names, directions and
// bounds are written down.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// driverLine is the object a one-workload run prints last.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line keeps exactly the metrics BENCHMARK.json names, in its units.
func line(correct bool, attempted, failed int, got map[string]metric, want []metricSpec) (driverLine, error) {
	l := driverLine{correct, attempted, failed, map[string]driverValue{}}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return l, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if g.Unit != m.Unit {
			return l, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
		l.Metrics[m.Name] = driverValue{g.Value, g.Unit}
	}
	return l, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print the driver's JSON line last (default: all)")
		seed    = flag.Int64("seed", 1, "seed of key choice, op choice and values")
		seconds = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced single-client run reporting the per-layer metrics")
		runs    = flag.Int("runs", 0, "calibration: this many runs per workload, each its own process and seed")
		smoke   = flag.Bool("smoke", false, "1/100-size datasets and a 0.3 s timed phase: a quick check of every code path")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *runs, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, runs int, smoke bool) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	rc := runConfig{seed: seed, seconds: seconds, setups: 5, div: 1, tmp: tmpDir}
	if rc.seconds <= 0 {
		rc.seconds = float64(sp.RunSeconds)
	}
	if smoke {
		rc.seconds, rc.setups, rc.div = 0.3, 1, 100
	}
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	if runs > 0 {
		return calibrate(sp, selected, rc, runs)
	}

	allCorrect := true
	var last driverLine
	var results []any
	for _, w := range selected {
		if trace == 1 {
			r, err := runTraced(w, rc)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printTraced(r, sp.PerLayer)
			if last, err = line(r.Correct, r.Attempted, r.Failed, r.Metrics, sp.PerLayer); err != nil {
				return err
			}
			allCorrect = allCorrect && r.Correct
			results = append(results, r)
			continue
		}
		r, err := runE2E(w, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printE2E(r, sp.EndToEnd)
		if last, err = line(r.Correct, r.Attempted, r.Failed, r.Metrics, sp.EndToEnd); err != nil {
			return err
		}
		allCorrect = allCorrect && r.Correct
		results = append(results, r)
	}
	if err := writeResult(results, rc); err != nil {
		return err
	}
	if name != "" {
		b, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// writeResult records the run with what is needed to read it later:
// commit, toolchain, processors, seed.
func writeResult(results []any, rc runConfig) error {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	doc := map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"seed": rc.seed, "seconds": rc.seconds, "clients": numClients, "segments": numSegments, "workloads": results,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func printMetric(name string, m metric) {
	fmt.Printf("  %-28s %14.4f %-6s", name, m.Value, m.Unit)
	if m.Segments != nil {
		fmt.Printf(" segments min %.4f max %.4f", m.Segments.Min, m.Segments.Max)
	}
	if m.Samples > 0 {
		fmt.Printf(" n=%d", m.Samples)
	}
	fmt.Println()
}

func printE2E(r e2eResult, want []metricSpec) {
	fmt.Printf("%s  seed %d  %.1f s  %d clients  attempted %d failed %d correct %v\n",
		r.Workload, r.Seed, r.Seconds, numClients, r.Attempted, r.Failed, r.Correct)
	for _, m := range want {
		printMetric(m.Name, r.Metrics[m.Name])
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	slices.Sort(extra)
	for _, k := range extra {
		printMetric(k+" (not gated)", r.Extra[k])
	}
}

func printTraced(r traceResult, want []metricSpec) {
	fmt.Printf("%s  seed %d  traced, 1 client  attempted %d failed %d correct %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	fmt.Printf("  %-14s %12s %8s   (end-to-end mean %.3f us/op)\n", "layer", "self us/op", "share", r.MeanUs)
	for _, row := range r.Table {
		fmt.Printf("  %-14s %12.3f %7.1f%%\n", row.Layer, row.SelfUs, row.Share*100)
	}
	for _, m := range want {
		printMetric(m.Name, r.Metrics[m.Name])
	}
	names := make([]string, 0, len(r.SpanUs))
	for k := range r.SpanUs {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		printMetric("span "+k, metric{Value: r.SpanUs[k], Unit: "us"})
	}
	fmt.Println("  spans:", r.TraceFile)
}
