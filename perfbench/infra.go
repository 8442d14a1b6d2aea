package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

// config sizes one run. newConfig holds the benchmark's fixed sizes; the
// quick mode shrinks them to toy size for the benchmark's own tests.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	scratch string

	qi       int // QI attributes of every release's schema
	ecs      int // ECs of the query workloads' synthetic release
	rows     int // rows per published census table
	poolSize int // distinct queries in dashboard-hot's replay pool
	batch    int // queries per closed-loop batch
	clients  int // closed-loop clients; ≤ nproc
	setups   int // set-ups per run; setup_s is their median
	restarts int // node restarts per query-workload run; restart_ms is their median
	// publishRestarts is publish-restart's restart count: each of its
	// restarts recovers every release the run published.
	publishRestarts int
	probes          int // probe queries per release across restarts
	// restartGap is the idle time before each restart and setupGap before
	// each set-up: short phases are sampled across seconds of the run
	// instead of one burst. A garbage collection also runs before each
	// set-up, window and restart, so each starts from the same heap state
	// instead of inheriting a collection cycle half-way done.
	restartGap, setupGap time.Duration
	// keepEvery keeps, per worker, the first batch answered in each
	// keepEvery tick for the answer checks: a 128th of the window, so
	// that the kept answers of two workers are about the maxChecked the
	// checks compare. Sampling by time rather than by count holds the kept
	// answers — which share the heap the window measures — to the same
	// size however fast the program answers.
	keepEvery time.Duration
	// rampUp is how long closed loops run before their window opens.
	rampUp time.Duration
	// slice is the length of the window slices query_qps takes its median
	// over; traced runs alternate tracing on and off per slice.
	slice time.Duration

	cycles       int     // publish-restart: upload cycles over the four methods
	rate         float64 // publish-restart: open-loop analyst batches per second
	analystBatch int     // publish-restart: queries per analyst batch
	// analystWorkers is the analyst's connections: the publisher holds
	// the endpoint's other one, so that the load generator keeps to at
	// most nproc connections per endpoint.
	analystWorkers int

	ladderBatches int // batches per ladder rung point
	ladderSingles int // single queries per ladder rung point
}

func newConfig(seed int64, seconds float64, quick bool) config {
	c := config{
		seed: seed, seconds: seconds, quick: quick,
		qi: 3, ecs: 10000, rows: 50000, poolSize: 1024, batch: 64,
		clients: min(2, runtime.NumCPU()), setups: 21, restarts: 15, publishRestarts: 9, probes: 8,
		rampUp: 2 * time.Second, slice: 500 * time.Millisecond,
		restartGap: 100 * time.Millisecond, setupGap: 200 * time.Millisecond,
		cycles: 24, rate: 100, analystBatch: 2, analystWorkers: max(1, min(2, runtime.NumCPU())-1),
		ladderBatches: 24, ladderSingles: 200,
	}
	if quick {
		c.ecs, c.rows, c.poolSize, c.batch = 400, 2000, 64, 16
		c.setups, c.restarts, c.publishRestarts, c.probes = 1, 2, 2, 4
		c.slice, c.rampUp = 100*time.Millisecond, 100*time.Millisecond
		c.restartGap, c.setupGap = 0, 0
		c.cycles, c.rate = 1, 40
		c.ladderBatches, c.ladderSingles = 3, 8
	}
	c.keepEvery = c.window() / 128
	return c
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	run  func(*runEnv) error
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runEnv is the state one workload run shares with the harness.
type runEnv struct {
	cfg config
	res *result
	log io.Writer
	tr  *tracer // nil on untraced runs
	// lad is what the workload hands the traced layer ladder.
	lad ladderInput
}

func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: %6.2fs "+format+"\n", append([]any{time.Since(processStart).Seconds()}, args...)...)
}

// quietLogger drops the nodes' and gateway's log lines: the benchmark
// reports through its own output.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))

// storeWorkers is the build pool size of every store.
const storeWorkers = 2

// node is one serve process's worth of parts: a durable store, the HTTP
// server over it, and a loopback listener.
type node struct {
	id   string
	dir  string
	st   *release.Store
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startNode opens (or reopens) the store in dir and serves it on a fresh
// loopback port.
func startNode(tr *tracer, dir, id string) (*node, error) {
	st, err := release.OpenNode(dir, storeWorkers, id)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	n, err := serveStore(tr, st, id, 0)
	if err != nil {
		st.Close()
		return nil, err
	}
	n.dir = dir
	return n, nil
}

// serveStore wraps an open store in a server on a loopback listener.
// cache is the engine's result-cache capacity (0: the default, < 0: off).
func serveStore(tr *tracer, st *release.Store, id string, cache int) (*node, error) {
	srv, err := server.New(st, server.Options{Logger: quietLogger, Engine: engine.Options{CacheCapacity: cache}})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	n := &node{id: id, st: st, srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.hs = &http.Server{Handler: tr.handler(spanServer, srv), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // always ErrServerClosed after close
	}()
	return n, nil
}

// close stops the listener and the server and closes the store
// (fsync-and-wait). Nothing is in flight when the harness closes a node;
// the short grace only lets idle keep-alive connections go, since a
// connection a client dialed but never used would hold Shutdown for
// seconds.
func (n *node) close() {
	shutdown(n.hs)
	<-n.done
	n.srv.Close()
	n.st.Close()
}

// shutdown stops an HTTP server: gracefully for a moment, then hard.
func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close() // only unused or stuck connections are left
	}
}

// gateway is a cluster gateway over nodes, on its own loopback listener.
type gateway struct {
	gw   *cluster.Gateway
	hs   *http.Server
	url  string
	done chan struct{}
}

func startGateway(tr *tracer, nodes []*node, replication int) (*gateway, error) {
	members := make([]cluster.Node, len(nodes))
	for i, n := range nodes {
		members[i] = cluster.Node{ID: n.id, URL: n.url}
	}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: tr.transport(spanGatewayHop, newTransport(8))}
	gw, err := cluster.New(cluster.Options{
		Nodes:       members,
		Replication: replication,
		Client:      hc,
		Logger:      quietLogger,
		// Releases are planted on every replica by hand, so no
		// replication traffic runs while the benchmark measures.
		ReconcileInterval: time.Hour,
		ProbeInterval:     time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	g := &gateway{gw: gw, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	g.hs = &http.Server{Handler: tr.handler(spanGateway, gw), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.done)
		_ = g.hs.Serve(ln)
	}()
	return g, nil
}

func (g *gateway) close() {
	shutdown(g.hs)
	<-g.done
	g.gw.Close()
}

// newTransport is a loopback transport holding at most conns connections
// per endpoint.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// newClient is the load generator's SDK client for one endpoint: at most
// conns connections, no retries (a refused request is a failure).
func newClient(tr *tracer, url string, conns int) *client.Client {
	hc := &http.Client{Timeout: 60 * time.Second, Transport: tr.transport(spanRoundTrip, newTransport(conns))}
	return client.New(url, client.WithHTTPClient(hc), client.WithMaxRetries(0))
}

// ---- queries ----

func toAPI(q query.Query) api.Query {
	return api.Query{
		Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		Agg: string(q.Agg), GroupBy: q.GroupBy, GroupBuckets: q.GroupBuckets,
	}
}

func fromAPI(q api.Query) query.Query {
	return query.Query{
		Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		Agg: query.Aggregate(q.Agg), GroupBy: q.GroupBy, GroupBuckets: q.GroupBuckets,
	}
}

// groupify turns a generated query into a GROUP BY + SUM query over one
// QI dimension that carries no predicate; when every dimension does, the
// last predicate is dropped to free its dimension.
func groupify(schema *microdata.Schema, q query.Query) query.Query {
	used := make(map[int]bool, len(q.Dims))
	for _, d := range q.Dims {
		used[d] = true
	}
	free := -1
	for d := range schema.QI {
		if !used[d] {
			free = d
			break
		}
	}
	if free == -1 {
		free = q.Dims[len(q.Dims)-1]
		q.Dims = q.Dims[:len(q.Dims)-1]
		q.Lo = q.Lo[:len(q.Lo)-1]
		q.Hi = q.Hi[:len(q.Hi)-1]
	}
	q.Agg = query.AggSum
	q.GroupBy = []int{free}
	return q
}

// Every query a stream returns carries a tag in the low tagBits bits of
// its first numeric predicate's lower bound: the stream's lane in the top
// laneBits of them, the query's index in the stream below. Two queries of
// one run that share lane and dimensions thus differ in that bound, so no
// query repeats and none is answered from another's cache entry, without
// the stream keeping any record of what it returned. The tag moves the
// bound by less than 2⁻²⁰ of its value.
const (
	tagBits  = 32
	laneBits = 4
)

// Lanes of a run's query streams: the timed stream, the warm-up stream
// and the restart probes.
const (
	laneTimed = iota
	laneWarm
	laneProbe
)

// queryStream generates queries of the paper's §6 shape, cycling through
// aggregate kinds and predicate counts. No query repeats within a stream,
// nor across streams of distinct lanes (see tagBits). With stratify
// set, query i leaves QI dimension (i / len(kinds)) mod |QI| without a
// predicate (group-by queries group over it), so a stream's shapes —
// which dimensions, how many group cells — are the same for every seed
// and only the ranges vary. It is safe for concurrent use.
type queryStream struct {
	mu       sync.Mutex
	schema   *microdata.Schema
	gen      *query.Generator
	kinds    []string
	lambdas  []int
	lane     uint64
	stratify bool
	i        int
}

func newQueryStream(schema *microdata.Schema, seed int64, theta float64, lambdas []int, kinds []string, lane int) (*queryStream, error) {
	if lane < 0 || lane >= 1<<laneBits {
		return nil, fmt.Errorf("query stream lane %d outside [0, %d)", lane, 1<<laneBits)
	}
	gen, err := query.NewGenerator(schema, lambdas[0], theta, newRand(seed))
	if err != nil {
		return nil, err
	}
	return &queryStream{schema: schema, gen: gen, kinds: kinds, lambdas: lambdas, lane: uint64(lane)}, nil
}

// next returns the next query.
func (s *queryStream) next() api.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	const indexBits = tagBits - laneBits
	if s.i >= 1<<indexBits {
		panic(fmt.Sprintf("perfbench: query stream exhausted after %d queries", s.i))
	}
	free := (s.i / len(s.kinds)) % len(s.schema.QI)
	for {
		s.gen.Lambda = s.lambdas[s.i%len(s.lambdas)]
		q := s.gen.Next()
		if s.stratify && slices.Contains(q.Dims, free) {
			continue // the generator's own draw, conditioned on the free dimension
		}
		switch kind := s.kinds[s.i%len(s.kinds)]; kind {
		case "count":
		case "groupby":
			q = groupify(s.schema, q)
		default:
			q.Agg = query.Aggregate(kind)
		}
		if !tag(s.schema, q, s.lane<<indexBits|uint64(s.i)) {
			continue // no numeric predicate to carry the tag: draw again
		}
		s.i++
		return toAPI(q)
	}
}

// tag writes t into the low tagBits bits of q's first numeric lower
// bound; it reports false when q has no numeric predicate.
func tag(schema *microdata.Schema, q query.Query, t uint64) bool {
	const mask = 1<<tagBits - 1
	for i, d := range q.Dims {
		if schema.QI[d].Kind == microdata.Numeric {
			q.Lo[i] = math.Float64frombits(math.Float64bits(q.Lo[i])&^mask | t&mask)
			return true
		}
	}
	return false
}

// batch returns the next n queries.
func (s *queryStream) batch(n int) []api.Query {
	qs := make([]api.Query, n)
	for i := range qs {
		qs[i] = s.next()
	}
	return qs
}

func queryKey(q api.Query) string {
	data, err := json.Marshal(q)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling a query: %v", err)) // finite floats always marshal
	}
	return string(data)
}

// ---- measurement helpers ----

// sample is one finished batch request of a load loop.
type sample struct {
	due     time.Time     // when the request was due (its send time in a closed loop)
	lat     time.Duration // due → response
	queries int
	failed  bool
	traced  bool
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// sorting xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// median returns the median of xs (mean of the middle two for even
// lengths), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// mallocs reads the process-wide allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCycles reads the number of completed garbage collections.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the heap that stays live. It is
// read once the window's traffic has stopped, so the collection sees
// only what the program and the harness retain. Heap in use during the
// window would also count what is allocated while a cycle marks — Go
// counts that live too — which grows with the allocation rate: a faster
// program would read as a bigger one.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// p99Parts is how many equal parts of the window batch_p99_ms is the
// median p99 of: a burst of interference from outside the program lands
// in one or two parts, so it does not set the run's tail on its own.
const p99Parts = 5

// windowStats turns a load loop's samples into the end-to-end query
// metrics. A closed loop's throughput is the median over the window's
// full slices, so one disturbed slice cannot move it; an open loop's is
// what it answered over the window, since its schedule sets the rate.
func windowStats(res *result, out *loopOut, slice time.Duration) {
	var lats []float64
	var partLats [p99Parts][]float64
	var answered, attempted, failed int64
	nSlices := int(out.window / slice)
	perSlice := make([]float64, max(nSlices, 1))
	for _, s := range out.samples {
		attempted += int64(s.queries)
		if s.failed {
			failed += int64(s.queries)
			continue
		}
		answered += int64(s.queries)
		lats = append(lats, ms(s.lat))
		done := s.due.Add(s.lat).Sub(out.start)
		if k := int(done / slice); k >= 0 && k < len(perSlice) {
			perSlice[k] += float64(s.queries)
		}
		p := min(max(int(done*p99Parts/out.window), 0), p99Parts-1)
		partLats[p] = append(partLats[p], ms(s.lat))
	}
	res.attempted.Add(attempted)
	res.failed.Add(failed)
	qps := float64(answered) / out.window.Seconds()
	if !out.open && nSlices >= 3 {
		for i := range perSlice {
			perSlice[i] /= slice.Seconds()
		}
		res.raw("query_qps_slices", perSlice)
		qps = median(perSlice)
		res.sample("query_qps", len(perSlice))
	}
	res.set("query_qps", "queries/s", qps)
	res.set("queries_answered", "queries", float64(answered))
	if out.open {
		res.raw("batch_ms", lats)
	}
	var p99s []float64
	for _, l := range partLats {
		if len(l) > 0 {
			p99s = append(p99s, percentile(l, 0.99))
		}
	}
	res.raw("batch_p99_ms_parts", p99s)
	res.set("batch_p50_ms", "ms", percentile(lats, 0.50))
	res.set("batch_p99_ms", "ms", median(p99s))
	res.sample("batch_p50_ms", len(lats))
	res.sample("batch_p99_ms", len(lats))
}

// scrapeClient reads the nodes' and the gateway's /metrics.
var scrapeClient = &http.Client{Timeout: 30 * time.Second}

// scrapeStages scrapes a /metrics exposition and returns sum (seconds)
// and count per stage label of one histogram family.
func scrapeStages(ctx context.Context, hc *http.Client, url, family string) (map[string][2]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", url, err)
	}
	defer resp.Body.Close()
	out := map[string][2]float64{}
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(family) + `_(sum|count)\{stage="([^"]+)"\} (\S+)`)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		m := re.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		cur := out[m[2]]
		if m[1] == "sum" {
			cur[0] = v
		} else {
			cur[1] = v
		}
		out[m[2]] = cur
	}
	return out, sc.Err()
}

// stageMean returns the mean duration of one stage between two scrapes,
// and the number of observations behind it.
func stageMean(before, after map[string][2]float64, stage string) (time.Duration, int) {
	d := after[stage][0] - before[stage][0]
	n := after[stage][1] - before[stage][1]
	if n <= 0 {
		return 0, 0
	}
	return time.Duration(d / n * 1e9), int(n)
}

// dirSize returns the bytes held by the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// hashFiles hashes the named files' relative paths and contents.
func hashFiles(root string, files []string) (string, error) {
	h := sha256.New()
	for _, f := range files {
		rel, err := filepath.Rel(root, f)
		if err != nil {
			return "", err
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// processStart anchors the elapsed times of the progress lines.
var processStart = time.Now()
