package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// metricDef names one reported metric and its unit. endToEnd and
// perLayer are the benchmark's contract with BENCHMARK.json (the tests
// pin that they agree): an end-to-end run reports exactly endToEnd, a
// traced run exactly perLayer.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_qps", "queries/s"},
	{"batch_p50_ms", "ms"},
	{"allocs_per_query", "allocs"},
	{"heap_peak_mb", "MB"},
	{"disk_bytes_per_row", "bytes"},
}

// ungated are end-to-end metrics an untraced run prints by name and unit
// and keeps in its results file, but leaves out of the summary line and
// of BENCHMARK.json. Over ten seeded runs on a shared 2-core machine,
// within an hour in which query_qps and batch_p50_ms spread by less
// than 0.085, their spread (IQR / median) reached 0.15–0.31, up to and
// past the largest bound BENCHMARK.json may set (0.25): batch tails and
// the fsync-bound plant and restart times follow the machine's other
// tenants more than the program.
var ungated = []metricDef{
	{"batch_p99_ms", "ms"},
	{"publish_p50_ms", "ms"},
	{"publish_rows_per_s", "rows/s"},
	{"restart_ms", "ms"},
}

// rungs and modes of the layer ladder, bottom to top.
var (
	rungNames = []string{"estimator", "engine", "server", "loopback", "gateway1", "gateway3"}
	rungModes = []string{"cold", "warm"}
)

// modesOf returns the cache modes a rung is measured in: the estimator
// has no cache, so its rung is measured once, with no mode.
func modesOf(rung string) []string {
	if rung == "estimator" {
		return []string{""}
	}
	return rungModes
}

// rungScope names a ladder point's metrics: rung.<rung>.<mode>, or
// rung.<rung> without a mode.
func rungScope(rung, mode string) string {
	if mode == "" {
		return "rung." + rung
	}
	return "rung." + rung + "." + mode
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"anon.build_ms.burel", "ms"},
		{"anon.build_ms.anatomy", "ms"},
		{"anon.build_ms.perturb", "ms"},
		{"anon.build_ms.sabre", "ms"},
		{"anon.ecs.burel", "count"},
		{"anon.ecs.sabre", "count"},
		{"codec.encode_ms", "ms"},
		{"codec.snapshot_bytes", "bytes"},
		{"codec.decode_ms", "ms"},
		{"index.build_ms", "ms"},
		{"store.open_ms", "ms"},
		{"store.ready_lag_ms", "ms"},
		{"store.snapshot_write_ms", "ms"},
		{"index.estimate_us", "us"},
		{"index.candidates_per_unit", "count"},
		{"index.useful_ratio", "fraction"},
		{"scan.estimate_us.anatomy", "us"},
		{"scan.estimate_us.perturb", "us"},
		{"engine.execute_us.cold", "us"},
		{"engine.execute_us.warm", "us"},
		{"engine.overhead_us", "us"},
		{"engine.cache_hit_ratio", "fraction"},
		{"engine.queue_wait_us", "us"},
		{"engine.allocs_per_batch", "allocs"},
		{"server.handler_us", "us"},
		{"server.allocs_per_batch", "allocs"},
		{"server.response_bytes_per_query", "bytes"},
		{"http.loopback_us", "us"},
		{"cluster.gateway_us", "us"},
		{"cluster.fanout_us", "us"},
		{"cluster.subbatch_ms", "ms"},
		{"cluster.merge_us", "us"},
		{"cluster.allocs_per_batch", "allocs"},
		{"harness.late_p99_ms", "ms"},
		{"harness.trace_overhead_pct", "%"},
	}
	for _, r := range rungNames {
		for _, m := range modesOf(r) {
			defs = append(defs,
				metricDef{rungScope(r, m) + ".batch_us", "us"},
				metricDef{rungScope(r, m) + ".batch_allocs", "allocs"})
		}
	}
	return defs
}()

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check tallies one answer check: how many answers it compared and how
// many were wrong, with the first few mismatches spelled out.
type check struct {
	Name     string   `json:"name"`
	Checked  int64    `json:"checked"`
	Wrong    int64    `json:"wrong"`
	Examples []string `json:"examples,omitempty"`
}

// environment records where and how a result was measured.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// OpenLoopRate is the open-loop analyst's batch rate (batches/s),
	// 0 for the closed-loop workloads.
	OpenLoopRate float64 `json:"open_loop_rate_per_s"`
	// Durability states the store's flush policy.
	Durability string `json:"durability"`
}

// result is everything one run measured. Reported holds the metrics the
// JSON summary carries; Metrics every value the run measured.
type result struct {
	Workload    string               `json:"workload"`
	Why         string               `json:"why"`
	Seed        int64                `json:"seed"`
	Trace       bool                 `json:"trace"`
	Seconds     float64              `json:"seconds"`
	Quick       bool                 `json:"quick,omitempty"`
	Env         environment          `json:"env"`
	Config      map[string]any       `json:"config"`
	Correct     bool                 `json:"correct"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	ErrorRate   float64              `json:"error_rate"`
	Checks      []*check             `json:"checks"`
	Reported    map[string]metric    `json:"reported"`
	Metrics     map[string]metric    `json:"metrics"`
	Samples     map[string]int       `json:"samples"`
	Raw         map[string][]float64 `json:"raw"`
	Ladder      []rungPoint          `json:"ladder,omitempty"`
	SpanSelfUS  map[string]float64   `json:"span_self_us,omitempty"`
	SpansFile   string               `json:"spans_file,omitempty"`
	WallSeconds float64              `json:"wall_seconds"`

	order     []string
	mu        sync.Mutex
	attempted atomic.Int64
	failed    atomic.Int64
}

func newResult(w workload, cfg config) *result {
	return &result{
		Workload: w.name,
		Why:      w.why,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  cfg.seconds,
		Quick:    cfg.quick,
		Env:      newEnvironment(cfg),
		Config: map[string]any{
			"qi": cfg.qi, "ecs": cfg.ecs, "rows": cfg.rows, "pool": cfg.poolSize,
			"batch": cfg.batch, "clients": cfg.clients, "setups": cfg.setups,
			"restarts": cfg.restarts, "publish_restarts": cfg.publishRestarts,
			"probes": cfg.probes, "check_every_s": cfg.keepEvery.Seconds(),
			"slice_s": cfg.slice.Seconds(),
		},
		Metrics: map[string]metric{},
		Samples: map[string]int{},
		Raw:     map[string][]float64{},
	}
}

func (r *result) baseName() string {
	return fmt.Sprintf("%s-seed%d-trace%v", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
}

// set records one measured value. A value that is not finite (a
// statistic of no samples) is not recorded; finish reports a reported
// metric that is missing.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// sample records the sample count behind a measured value.
func (r *result) sample(name string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Samples[name] = n
}

// raw keeps the individual values behind a median, for diagnosis.
func (r *result) raw(name string, xs []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Raw[name] = append([]float64(nil), xs...)
}

// newCheck registers an answer check on the result.
func (r *result) newCheck(name string) *check {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &check{Name: name}
	r.Checks = append(r.Checks, c)
	return c
}

// compare counts one checked answer and records it when wrong, as a
// failed operation (the operation itself was counted when it was sent).
// It is called from one goroutine per check.
func (r *result) compare(c *check, ok bool, format string, args ...any) {
	c.Checked++
	if ok {
		return
	}
	c.Wrong++
	r.failed.Add(1)
	if len(c.Examples) < 5 {
		c.Examples = append(c.Examples, fmt.Sprintf(format, args...))
	}
}

// finish fixes the summary fields: the reported metric set for the run's
// mode and the correctness verdict. A metric the run failed to measure
// makes the run incorrect.
func (r *result) finish(traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r.Attempted = r.attempted.Load()
	r.Failed = r.failed.Load()
	r.Correct = r.Failed == 0
	r.Reported = make(map[string]metric, len(defs))
	r.order = r.order[:0]
	if !traced {
		defs = append(slices.Clone(defs), ungated...)
	}
	for i, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			r.Correct = false
			m = metric{Value: -1, Unit: d.Unit}
			r.Metrics[d.Name] = m
		}
		if traced || i < len(endToEnd) {
			r.Reported[d.Name] = m
		}
		r.order = append(r.order, d.Name)
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Correct = false
	}
	r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
}

func newEnvironment(cfg config) environment {
	env := environment{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID("."),
		Seed:       cfg.seed,
		Durability: "every store write (snapshot file, manifest record, data directory) is fsynced before a release reads ready; the store has no other flush policy",
	}
	return env
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID names the measured code: the git commit run.sh passes in, or —
// in a checkout that is not a git repository — a hash of the module's
// Go sources and go.mod files.
func commitID(root string) string {
	if c := strings.TrimSpace(os.Getenv("BENCH_COMMIT")); c != "" {
		return c
	}
	h, err := sourceHash(root)
	if err != nil {
		return "unknown"
	}
	return "tree:" + h
}

// sourceHash hashes every .go and go.mod file under root (skipping
// dot-directories) in path order.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return hashFiles(root, files)
}
