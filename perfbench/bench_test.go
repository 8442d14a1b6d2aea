package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestMetricNamesAndUnits pins BENCHMARK.json to what the harness
// reports: the same workloads, end-to-end and per-layer metrics, units.
// publish-restart is left out of BENCHMARK.json and runs by hand only
// (see README.md).
func TestMetricNamesAndUnits(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %q: why in BENCHMARK.json differs from the harness's", w.Name)
		}
	}
	sort.Strings(names)
	gated := slices.DeleteFunc(strings.Split(workloadNames(), ", "), func(n string) bool { return n == publishName })
	if got, want := strings.Join(names, ", "), strings.Join(gated, ", "); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), harness %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// summary is the last line of the command's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runQuick runs one workload at toy size in a scratch working directory and
// returns its exit code, its summary line and its results file.
func runQuick(t *testing.T, workload, trace string) (int, summary, map[string]any) {
	t.Helper()
	t.Chdir(t.TempDir())
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--quick"}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: last line %q: %v\nstderr: %s", workload, lines[len(lines)-1], err, errOut.String())
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("%s: summary has keys %v, want exactly correct, attempted, failed, metrics", workload, raw)
	}
	base := workload + "-seed3-trace" + trace
	data, err := os.ReadFile(filepath.Join(buildDir, "results", base+".json"))
	if err != nil {
		t.Fatalf("%s: results file: %v", workload, err)
	}
	var res map[string]any
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("%s: results file: %v", workload, err)
	}
	if code != 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, s, res
}

func checkReported(t *testing.T, workload string, s summary, defs []metricDef) {
	t.Helper()
	if len(s.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", workload, len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s in %s, want %s", workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestQuickWorkloads runs every workload at toy size, untraced and
// traced, and checks the summary line and the results file.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range strings.Split(workloadNames(), ", ") {
		t.Run(name, func(t *testing.T) {
			code, s, res := runQuick(t, name, "0")
			if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Fatalf("exit %d, summary %+v", code, s)
			}
			checkReported(t, name, s, endToEnd)
			for k, m := range s.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
			metrics, _ := res["metrics"].(map[string]any)
			for _, d := range ungated {
				if m, _ := metrics[d.Name].(map[string]any); m == nil || m["unit"] != d.Unit {
					t.Errorf("results file lacks ungated metric %s in %s: %v", d.Name, d.Unit, m)
				}
			}
			for _, key := range []string{"workload", "why", "seed", "env", "checks", "reported", "metrics", "samples", "correct", "attempted", "failed", "error_rate"} {
				if _, ok := res[key]; !ok {
					t.Errorf("results file lacks %q", key)
				}
			}
			env, _ := res["env"].(map[string]any)
			for _, key := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "commit", "seed", "open_loop_rate_per_s", "durability"} {
				if _, ok := env[key]; !ok {
					t.Errorf("results env lacks %q", key)
				}
			}
			if checks, _ := res["checks"].([]any); len(checks) == 0 {
				t.Error("results file records no answer checks")
			}

			code, s, res = runQuick(t, name, "1")
			if code != 0 || !s.Correct {
				t.Fatalf("traced: exit %d, summary %+v", code, s)
			}
			checkReported(t, name, s, perLayer)
			if f, _ := res["spans_file"].(string); f == "" {
				t.Error("traced run wrote no spans file")
			} else if info, err := os.Stat(f); err != nil || info.Size() == 0 {
				t.Errorf("spans file %s: %v", f, err)
			}
			points := 0
			for _, r := range rungNames {
				points += len(modesOf(r)) * 2 // single and batch
			}
			if ladder, _ := res["ladder"].([]any); len(ladder) != points {
				t.Errorf("ladder has %d points, want %d", len(ladder), points)
			}
		})
	}
}

// TestQueryStreamsNeverRepeat draws from streams of two lanes and
// requires every query to be valid, to carry its lane and index in its
// tag, and to be distinct.
func TestQueryStreamsNeverRepeat(t *testing.T) {
	schema := census.Schema().Project(3)
	seen := map[string]bool{}
	for _, lane := range []int{laneTimed, laneWarm} {
		s, err := newQueryStream(schema, 4, 0.05, []int{1, 2, 3}, []string{"count", "sum", "groupby"}, lane)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			aq := s.next()
			if err := query.Validate(schema, fromAPI(aq)); err != nil {
				t.Fatalf("lane %d query %d: %v", lane, i, err)
			}
			d := slices.IndexFunc(aq.Dims, func(d int) bool { return schema.QI[d].Kind == microdata.Numeric })
			if d < 0 {
				t.Fatalf("lane %d query %d has no numeric predicate: %+v", lane, i, aq)
			}
			if got, want := math.Float64bits(aq.Lo[d])&(1<<tagBits-1), uint64(lane)<<(tagBits-laneBits)|uint64(i); got != want {
				t.Fatalf("lane %d query %d: tag %#x, want %#x", lane, i, got, want)
			}
			k := queryKey(aq)
			if seen[k] {
				t.Fatalf("lane %d query %d repeats: %s", lane, i, k)
			}
			seen[k] = true
		}
	}
}

// TestChecksFireOnWrongAnswers feeds the answer checks wrong answers.
func TestChecksFireOnWrongAnswers(t *testing.T) {
	schema := census.Schema().Project(3)
	snap := release.SyntheticSnapshot(schema, 300, rand.New(rand.NewSource(5)))
	stream, err := newQueryStream(schema, 9, 0.05, []int{2}, []string{"count", "sum", "groupby"}, laneTimed)
	if err != nil {
		t.Fatal(err)
	}
	qs := stream.batch(9)
	right := make([]api.QueryResult, len(qs))
	for i, aq := range qs {
		q := fromAPI(aq)
		if len(q.GroupBy) == 0 {
			if right[i].Estimate, err = snap.Estimate(q); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cells := snapCells(t, snap, aq)
		right[i].Groups = cells
	}
	for i := range qs {
		if ok, why := estimateMatches(snap, qs[i], right[i]); !ok {
			t.Fatalf("query %d: right answer rejected: %s", i, why)
		}
	}

	wrong := slices.Clone(right)
	wrong[0].Estimate += 1e-9
	wrong[2].Groups = slices.Clone(wrong[2].Groups)
	wrong[2].Groups[1].Estimate++

	e := &runEnv{cfg: newConfig(1, 1, true), res: newResult(workloads[dashboardName], newConfig(1, 1, true)), log: &bytes.Buffer{}}
	e.res.attempted.Add(int64(len(qs)))
	e.checkEstimates([]answered{{id: "r-1", qs: qs, res: wrong}}, map[string]*release.Snapshot{"r-1": snap})
	e.res.finish(false)
	if e.res.Correct || e.res.Failed != 2 {
		t.Fatalf("wrong answers not caught: correct %v, failed %d, checks %+v", e.res.Correct, e.res.Failed, e.res.Checks[0])
	}
	if e.res.ErrorRate <= 0 {
		t.Errorf("error rate %v with wrong answers", e.res.ErrorRate)
	}

	// Gateway and restart checks compare canonical answers: cache flags
	// do not count, estimates do.
	cached := slices.Clone(right)
	cached[0].Cached = true
	if canonical(cached) != canonical(right) {
		t.Error("a cache flag changed the canonical answer")
	}
	if canonical(wrong) == canonical(right) {
		t.Error("a wrong estimate left the canonical answer unchanged")
	}
}

func snapCells(t *testing.T, snap *release.Snapshot, aq api.Query) []api.GroupResult {
	t.Helper()
	var out []api.GroupResult
	for _, c := range query.GroupCells(snap.Schema, fromAPI(aq)) {
		est, err := snap.Estimate(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, api.GroupResult{Lo: c.Lo, Hi: c.Hi, Estimate: est})
	}
	return out
}

// TestSelfTimes checks span linking and self times on a hand-built
// trace: a client span over a round trip over a handler.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: "a", ID: 1, Name: spanClient, Start: 0, End: 100},
		{Trace: "a", ID: 2, Parent: 1, Name: spanRoundTrip, Addr: "h:1", Start: 10, End: 90},
		{Trace: "a", ID: 3, Name: spanServer, Addr: "h:1", Start: 20, End: 70},
		{Trace: "a", ID: 4, Name: spanServer, Addr: "h:2", Start: 20, End: 70}, // other address: no parent
	}
	link(spans)
	if spans[2].Parent != 2 || spans[3].Parent != 0 {
		t.Fatalf("parents %d, %d; want 2, 0", spans[2].Parent, spans[3].Parent)
	}
	got := selfTimes(spans)
	want := []int64{20, 30, 50, 50}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Errorf("span %d self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

// TestFailsWithoutSources runs run.sh in a directory that holds only
// BENCHMARK.json and the benchmark's own files: it must fail without
// printing a result.
func TestFailsWithoutSources(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark")
	}
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	dir := t.TempDir()
	copyFile(t, "../BENCHMARK.json", filepath.Join(dir, "BENCHMARK.json"))
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		copyFile(t, f, filepath.Join(dir, "perfbench", f))
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", dashboardName, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	err = cmd.Run()
	if err == nil {
		t.Fatal("run.sh succeeded without the repository's sources")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("run.sh printed a result without the sources: %s", out.String())
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
