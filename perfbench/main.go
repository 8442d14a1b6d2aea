// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload against nodes, a gateway and a durable store built in this
// process through their public constructors (release.Open, server.New,
// cluster.New) behind real loopback listeners, checks every answer it
// samples, and prints the end-to-end metrics by name and unit. With
// --trace 1 it runs the workload again with spans recorded around every
// call into a layer, replays the workload's inputs up the layer ladder
// (estimator → engine → handler → loopback → gateway with 1 and 3
// nodes), and prints the per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dashboard-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A results file carrying the
// environment, the checks and every measurement (and, for traced runs, a
// spans file) is written under .bench_build/results/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// buildDir holds, relative to the working directory (the checkout's
// root), everything a run leaves behind: scratch data and result files.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result;
// it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	quick := fs.Bool("quick", false, "toy-size inputs, for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	cfg := newConfig(*seed, *seconds, *quick)
	cfg.trace = *traceFlag == 1
	res, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, res)
	if err := writeResultFile(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or answered wrong\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runWorkload executes one workload under cfg: the untraced end-to-end
// measurement, or the traced per-layer one.
func runWorkload(w workload, cfg config, log io.Writer) (*result, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	scratch, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	res := newResult(w, cfg)
	env := &runEnv{cfg: cfg, res: res, log: log}
	if cfg.trace {
		env.tr = newTracer()
	}
	start := time.Now()
	if err := w.run(env); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := runLadder(env); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		if err := env.tr.finish(res, cfg); err != nil {
			return nil, err
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.finish(cfg.trace)
	return res, nil
}

// printResult prints every reported metric by name and unit, the checks,
// and — as the last line — the JSON summary.
func printResult(out io.Writer, res *result) {
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  (%s)\n", res.Workload, res.Seed, res.Trace, res.Why)
	for _, name := range res.order {
		m := res.Metrics[name]
		note := ""
		if _, ok := res.Reported[name]; !ok {
			note = "  (not gated)"
		}
		fmt.Fprintf(out, "  %-36s %16.6g %s%s\n", name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(out, "  %-36s %16.6g %s\n", "error_rate", res.ErrorRate, "fraction")
	for _, c := range res.Checks {
		fmt.Fprintf(out, "  check %-30s %8d checked %6d wrong\n", c.Name, c.Checked, c.Wrong)
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Reported}
	data, err := json.Marshal(summary)
	if err != nil {
		// Only a NaN or Inf can fail here; finish replaces those.
		panic(fmt.Sprintf("perfbench: marshaling summary: %v", err))
	}
	fmt.Fprintln(out, string(data))
}

// writeResultFile stores the full result under .bench_build/results.
func writeResultFile(res *result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating results dir: %w", err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	path := filepath.Join(dir, res.baseName()+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
