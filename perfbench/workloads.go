package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/release"
	"repro/pkg/api"
	"repro/pkg/client"
)

const (
	dashboardName = "dashboard-hot"
	adhocName     = "adhoc-cold-gw3"
	publishName   = "publish-restart"
)

var workloads = map[string]workload{
	dashboardName: {
		name: dashboardName,
		why:  "Repeated dashboard queries from a 1024-query Zipf pool, direct to one node: the result cache and the JSON edge do the work, the estimator almost none.",
		run:  runDashboard,
	},
	adhocName: {
		name: adhocName,
		why:  "Never-repeating ad-hoc queries through a gateway over 3 replicas: the estimator, the engine's worker pool and scatter/gather do the work, the cache none.",
		run:  runAdhoc,
	},
	publishName: {
		name: publishName,
		why:  "Fsynced uploads of 50k-row tables by 4 methods beside an open-loop analyst at 100 batches/s of 2 unique queries, then restarts: the write and recovery side.",
		run:  runPublish,
	},
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Stage histogram families of the nodes' and the gateway's /metrics.
const (
	nodeStages    = "repro_stage_duration_seconds"
	gatewayStages = "repro_gateway_stage_duration_seconds"
)

// syntheticSeed fixes the query workloads' synthetic release: every run
// serves the same 10k ECs, and the workload seed drives only the queries.
const syntheticSeed = 99

// plantSpec labels the synthetic release planted on the query workloads'
// nodes.
var plantSpec = release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams()}

// dataDir is a fresh data directory for node i of set-up k.
func (e *runEnv) dataDir(k, i int) string {
	return filepath.Join(e.cfg.scratch, fmt.Sprintf("setup%d-node%d", k, i))
}

// publishStats collects upload-to-ready (or plant-to-durable) times.
type publishStats struct {
	lat    []float64 // ms
	rows   []float64
	group  []int     // the set-up or cycle each publish belongs to
	method []string  // anon method; "" for planted releases
	lag    []float64 // ms: (ReadyAt − CreatedAt) − BuildMillis
}

func (p *publishStats) add(d time.Duration, rows, group int, method string) {
	p.lat = append(p.lat, ms(d))
	p.rows = append(p.rows, float64(rows))
	p.group = append(p.group, group)
	p.method = append(p.method, method)
}

// report sets publish_p50_ms and publish_rows_per_s. Built releases'
// times cluster by method, and the median of the mix would jump between
// clusters, so the methods' medians are averaged instead, each method
// weighing the same. Throughput is rows over busy time per set-up or
// cycle, median over those.
func (p *publishStats) report(res *result) {
	res.sample("publish_p50_ms", len(p.lat))
	res.raw("publish_ms", p.lat)
	byMethod := map[string][]float64{}
	for i, m := range p.method {
		byMethod[m] = append(byMethod[m], p.lat[i])
	}
	var sum float64
	for name, ds := range byMethod {
		m := median(ds)
		if name != "" {
			res.set("publish_p50_ms."+name, "ms", m)
		}
		sum += m
	}
	res.set("publish_p50_ms", "ms", sum/float64(len(byMethod)))
	rows, busy := map[int]float64{}, map[int]float64{}
	for i, g := range p.group {
		rows[g] += p.rows[i]
		busy[g] += p.lat[i] / 1e3
	}
	var rates []float64
	for g := range rows {
		rates = append(rates, rows[g]/busy[g])
	}
	res.set("publish_rows_per_s", "rows/s", median(rates))
	res.sample("publish_rows_per_s", len(rates))
	if len(p.lag) > 0 {
		res.set("store.ready_lag_ms", "ms", median(p.lag))
	}
}

// plant registers a pre-built snapshot on a durable store — the
// "release is ready" path of a shipped corpus: encode, fsync, manifest.
// An empty id mints one.
func plant(st *release.Store, id string, snap *release.Snapshot) (release.Meta, time.Duration, error) {
	t0 := time.Now()
	var meta release.Meta
	var err error
	if id == "" {
		meta, err = st.Register(snap, plantSpec)
	} else {
		meta, _, err = st.RegisterAs(id, snap, plantSpec)
	}
	if err != nil {
		return meta, 0, fmt.Errorf("planting release: %w", err)
	}
	return meta, time.Since(t0), nil
}

// setupTimes reports setup_s as the median of the run's set-ups, and
// the warm-ups that follow them apart: warm-up is query traffic, whose
// cost the query metrics already carry.
func (e *runEnv) setupTimes(setups, warmups []float64) {
	e.res.sample("setup_s", len(setups))
	e.res.raw("setup_s", setups)
	e.res.raw("warmup_s", warmups)
	e.res.set("setup_s", "s", median(setups))
	e.res.set("warmup_s", "s", median(warmups))
}

// nodeStageMetrics reports the engine and store stage means between two
// scrapes of the nodes' /metrics.
func (e *runEnv) nodeStageMetrics(before, after map[string][2]float64) {
	if d, n := stageMean(before, after, "engine.queue_wait"); n > 0 {
		e.res.set("engine.queue_wait_us", "us", us(d))
		e.res.sample("engine.queue_wait_us", n)
	}
	if d, n := stageMean(before, after, "store.snapshot_write"); n > 0 {
		e.res.set("store.snapshot_write_ms", "ms", ms(d))
		e.res.sample("store.snapshot_write_ms", n)
	}
}

// gatewayStageMetrics reports the gateway's sub-batch and merge stages.
func (e *runEnv) gatewayStageMetrics(before, after map[string][2]float64) {
	if d, n := stageMean(before, after, "gateway.subbatch"); n > 0 {
		e.res.set("cluster.subbatch_ms", "ms", ms(d))
		e.res.sample("cluster.subbatch_ms", n)
	}
	if d, n := stageMean(before, after, "gateway.merge"); n > 0 {
		e.res.set("cluster.merge_us", "us", us(d))
		e.res.sample("cluster.merge_us", n)
	}
}

// sumStages adds scrapes of several nodes.
func sumStages(scrapes ...map[string][2]float64) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, s := range scrapes {
		for k, v := range s {
			cur := out[k]
			out[k] = [2]float64{cur[0] + v[0], cur[1] + v[1]}
		}
	}
	return out
}

// scrapeAll scrapes a stage family from every node and sums it.
func scrapeAll(ctx context.Context, nodes []*node) (map[string][2]float64, error) {
	var all []map[string][2]float64
	for _, n := range nodes {
		s, err := scrapeStages(ctx, scrapeClient, n.url, nodeStages)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	return sumStages(all...), nil
}

// probeQueries generates a release's probe set: scalar aggregates of
// every kind, from the run's seed.
func probeQueries(e *runEnv, salt int64, schema *microdata.Schema) ([]api.Query, error) {
	s, err := newQueryStream(schema, e.cfg.seed*7919+salt, 0.05, []int{1, 2, 3}, []string{"count", "sum", "avg", "min", "max"}, laneProbe)
	if err != nil {
		return nil, err
	}
	return s.batch(e.cfg.probes), nil
}

// restartNodes records every release's probe answers, then closes and
// reopens the nodes in turn, count times. A restart is timed from
// release.Open until every release of the node answered its probe set,
// and each answer must equal the one from before the first restart. It
// returns the live nodes (the caller closes them).
func (e *runEnv) restartNodes(ctx context.Context, nodes []*node, ids [][]string, schema *microdata.Schema, count int) ([]*node, error) {
	probes := make([]map[string]*probeSet, len(nodes))
	for i, n := range nodes {
		c := newClient(nil, n.url, 1)
		probes[i] = map[string]*probeSet{}
		for j, id := range ids[i] {
			qs, err := probeQueries(e, int64(j), schema)
			if err != nil {
				return nodes, err
			}
			want, err := probe(ctx, c, id, qs)
			if err != nil {
				return nodes, fmt.Errorf("probing %s before restart: %w", id, err)
			}
			probes[i][id] = &probeSet{qs: qs, want: want}
		}
	}
	chk := e.res.newCheck("restart_answers_unchanged")
	if e.tr != nil {
		e.tr.setScope("restart")
		e.tr.on.Store(true)
		defer e.tr.on.Store(false)
	}
	var restarts, opens []float64
	for r := 0; r < count; r++ {
		i := r % len(nodes)
		old := nodes[i]
		old.close()
		runtime.GC()
		time.Sleep(e.cfg.restartGap) // see config.restartGap
		t0 := time.Now()
		_, endOpen := e.tr.start(ctx, "store.open")
		st, err := release.OpenNode(old.dir, storeWorkers, old.id)
		endOpen(fmt.Sprintf("restart-%d", r))
		opened := time.Since(t0)
		if err != nil {
			nodes = append(nodes[:i], nodes[i+1:]...)
			return nodes, fmt.Errorf("reopening %s: %w", old.dir, err)
		}
		n, err := serveStore(e.tr, st, old.id, 0)
		if err != nil {
			st.Close()
			nodes = append(nodes[:i], nodes[i+1:]...)
			return nodes, err
		}
		n.dir = old.dir
		nodes[i] = n
		c := newClient(nil, n.url, 1)
		got := map[string]string{}
		for _, id := range ids[i] {
			ps := probes[i][id]
			e.res.attempted.Add(int64(len(ps.qs)))
			ans, err := probe(ctx, c, id, ps.qs)
			if err != nil {
				ans = "error: " + err.Error()
			}
			got[id] = ans
		}
		restarts = append(restarts, ms(time.Since(t0)))
		opens = append(opens, ms(opened))
		for _, id := range ids[i] {
			e.res.compare(chk, got[id] == probes[i][id].want, "restart %d, %s: answered %.200s, before %.200s", r, id, got[id], probes[i][id].want)
		}
	}
	e.res.sample("restart_ms", len(restarts))
	e.res.raw("restart_ms", restarts)
	e.res.set("restart_ms", "ms", median(restarts))
	e.res.set("store.open_ms", "ms", median(opens))
	return nodes, nil
}

func closeAll(nodes []*node) {
	for _, n := range nodes {
		if n != nil {
			n.close()
		}
	}
}

// ---- dashboard-hot ----

func runDashboard(e *runEnv) error {
	cfg := e.cfg
	ctx := context.Background()
	schema := census.Schema().Project(cfg.qi)
	stream, err := newQueryStream(schema, cfg.seed, 0.05, []int{2}, []string{"count", "sum", "groupby"}, laneTimed)
	if err != nil {
		return err
	}
	// The few most popular pool entries carry much of the traffic; their
	// shapes are fixed so that the seed moves only their ranges.
	stream.stratify = true
	pool := stream.batch(cfg.poolSize)

	var (
		n       *node
		snap    *release.Snapshot
		meta    release.Meta
		c       *client.Client
		before  map[string][2]float64
		pub     publishStats
		setups  []float64
		warmups []float64
		nodes   []*node
		cleanup = func() { closeAll(nodes) }
	)
	defer func() { cleanup() }()
	for k := 0; k < cfg.setups; k++ {
		closeAll(nodes)
		nodes = nil
		runtime.GC()
		time.Sleep(cfg.setupGap) // see config.setupGap
		t0 := time.Now()
		snap = release.SyntheticSnapshot(schema, cfg.ecs, newRand(syntheticSeed))
		if n, err = startNode(e.tr, e.dataDir(k, 0), ""); err != nil {
			return err
		}
		nodes = []*node{n}
		if before, err = scrapeAll(ctx, nodes); err != nil {
			return err
		}
		var d time.Duration
		if meta, d, err = plant(n.st, "", snap); err != nil {
			return err
		}
		pub.add(d, meta.Rows, k, "")
		c = newClient(e.tr, n.url, cfg.clients)
		setups = append(setups, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			continue // only the last set-up serves the window
		}
		// Warm-up: every pool query once, so the cache holds the pool.
		t0 = time.Now()
		for i := 0; i < len(pool); i += cfg.batch {
			if _, err := c.QueryBatch(ctx, meta.ID, pool[i:min(i+cfg.batch, len(pool))]); err != nil {
				return fmt.Errorf("warming the cache: %w", err)
			}
		}
		warmups = append(warmups, time.Since(t0).Seconds())
	}
	e.setupTimes(setups, warmups)

	zipfs := make([]*rand.Zipf, cfg.clients)
	for w := range zipfs {
		zipfs[w] = rand.NewZipf(newRand(cfg.seed*31+int64(w)), 1.2, 1, uint64(len(pool)-1))
	}
	pick := func(z *rand.Zipf, n int) []api.Query {
		qs := make([]api.Query, n)
		for i := range qs {
			qs[i] = pool[z.Uint64()]
		}
		return qs
	}
	out := e.closedLoop(ctx, []*client.Client{c}, func(w int) (string, []api.Query) {
		return meta.ID, pick(zipfs[w], cfg.batch)
	})
	e.report(out)
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	e.nodeStageMetrics(before, after)
	e.checkEstimates(out.kept, map[string]*release.Snapshot{meta.ID: snap})
	pub.report(e.res)
	e.res.set("disk_bytes_per_row", "bytes", float64(dirSize(n.dir))/float64(meta.Rows))

	lz := rand.NewZipf(newRand(cfg.seed*37), 1.2, 1, uint64(len(pool)-1))
	e.lad = ladderInput{mode: "warm", targets: []ladderTarget{{id: meta.ID, snap: snap}}}
	for i := 0; i < cfg.ladderBatches; i++ {
		e.lad.batches = append(e.lad.batches, ladderBatch{id: meta.ID, qs: pick(lz, cfg.batch)})
	}
	nodes, err = e.restartNodes(ctx, nodes, [][]string{{meta.ID}}, schema, cfg.restarts)
	return err
}

// ---- adhoc-cold-gw3 ----

func runAdhoc(e *runEnv) error {
	cfg := e.cfg
	ctx := context.Background()
	schema := census.Schema().Project(cfg.qi)
	kinds := []string{"count", "sum", "avg", "min", "max", "groupby"}
	stream, err := newQueryStream(schema, cfg.seed, 0.05, []int{2, 3}, kinds, laneTimed)
	if err != nil {
		return err
	}
	warm, err := newQueryStream(schema, cfg.seed+1_000_003, 0.05, []int{2, 3}, kinds, laneWarm)
	if err != nil {
		return err
	}
	const replicas = 3
	var (
		nodes   []*node
		gw      *gateway
		snap    *release.Snapshot
		id      string
		rows    int
		before  map[string][2]float64
		gwBase  map[string][2]float64
		gc      *client.Client
		pub     publishStats
		setups  []float64
		warmups []float64
		cleanup = func() {
			if gw != nil {
				gw.close()
			}
			closeAll(nodes)
		}
	)
	defer func() { cleanup() }()
	for k := 0; k < cfg.setups; k++ {
		cleanup()
		gw, nodes = nil, nil
		runtime.GC()
		time.Sleep(cfg.setupGap) // see config.setupGap
		t0 := time.Now()
		snap = release.SyntheticSnapshot(schema, cfg.ecs, newRand(syntheticSeed))
		for i := 0; i < replicas; i++ {
			n, err := startNode(e.tr, e.dataDir(k, i), fmt.Sprintf("n%d", i+1))
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
		}
		if before, err = scrapeAll(ctx, nodes); err != nil {
			return err
		}
		id = ""
		for _, n := range nodes {
			meta, d, err := plant(n.st, id, snap)
			if err != nil {
				return err
			}
			id, rows = meta.ID, meta.Rows
			pub.add(d, meta.Rows, k, "")
		}
		if gw, err = startGateway(e.tr, nodes, replicas); err != nil {
			return err
		}
		if gwBase, err = scrapeStages(ctx, scrapeClient, gw.url, gatewayStages); err != nil {
			return err
		}
		gc = newClient(e.tr, gw.url, cfg.clients)
		setups = append(setups, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			continue // only the last set-up serves the window
		}
		t0 = time.Now()
		for i := 0; i < 2*cfg.clients; i++ {
			if _, err := gc.QueryBatch(ctx, id, warm.batch(cfg.batch)); err != nil {
				return fmt.Errorf("warming the gateway: %w", err)
			}
		}
		warmups = append(warmups, time.Since(t0).Seconds())
	}
	e.setupTimes(setups, warmups)

	out := e.closedLoop(ctx, []*client.Client{gc}, func(int) (string, []api.Query) {
		return id, stream.batch(cfg.batch)
	})
	e.report(out)
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	e.nodeStageMetrics(before, after)
	gwAfter, err := scrapeStages(ctx, scrapeClient, gw.url, gatewayStages)
	if err != nil {
		return err
	}
	e.gatewayStageMetrics(gwBase, gwAfter)
	e.checkEstimates(out.kept, map[string]*release.Snapshot{id: snap})
	direct := make([]*client.Client, len(nodes))
	for i, n := range nodes {
		direct[i] = newClient(nil, n.url, 1)
	}
	e.checkGateway(ctx, out.kept, direct)
	gw.close()
	gw = nil
	pub.report(e.res)
	var disk int64
	for _, n := range nodes {
		disk += dirSize(n.dir)
	}
	e.res.set("disk_bytes_per_row", "bytes", float64(disk)/float64(replicas*rows))

	e.lad = ladderInput{mode: "cold", targets: []ladderTarget{{id: id, snap: snap}}}
	for i := 0; i < cfg.ladderBatches; i++ {
		e.lad.batches = append(e.lad.batches, ladderBatch{id: id, qs: stream.batch(cfg.batch)})
	}
	ids := make([][]string, len(nodes))
	for i := range ids {
		ids[i] = []string{id}
	}
	nodes, err = e.restartNodes(ctx, nodes, ids, schema, cfg.restarts)
	return err
}

// ---- publish-restart ----

// publishMethod is one upload flavour of the publisher's cycle.
type publishMethod struct {
	name   string
	params anon.Params
}

func publishMethods() []publishMethod {
	return []publishMethod{
		{anon.MethodBUREL, anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(1))},
		{anon.MethodAnatomy, anon.NewAnatomyParams(anon.AnatomySeed(1))},
		{anon.MethodPerturb, anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(1))},
		{anon.MethodSABRE, anon.NewSABREParams(anon.SABRET(0.15), anon.SABRESeed(1))},
	}
}

// analystRotation is the order the analyst's batches visit the releases
// of publishMethods: every estimator family, the two row-scanning ones
// (anatomy, perturb) twice, so that two thirds of the batches scan rows
// and the median batch is a scanning one rather than one on the border
// between the fast and the slow families.
var analystRotation = []int{1, 0, 2, 1, 3, 2}

// censusTable generates the i-th census table of a run, as cmd/datagen
// writes it, projected to the run's QI count.
func censusTable(cfg config, i int) (*microdata.Table, string, error) {
	t := census.Generate(census.Options{N: cfg.rows, Seed: cfg.seed*1000 + int64(i)}).Project(cfg.qi)
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, "", fmt.Errorf("writing census CSV: %w", err)
	}
	return t, buf.String(), nil
}

// upload publishes one table through POST /v1/releases and waits until
// the release is ready (durable): the publisher's operation.
func upload(ctx context.Context, c *client.Client, csv string, qi int, m publishMethod) (api.Release, time.Duration, error) {
	t0 := time.Now()
	rel, err := c.CreateRelease(ctx, client.CreateSpec{Method: m.name, Params: m.params, QI: qi, CSV: csv})
	if err != nil {
		return rel, 0, fmt.Errorf("uploading %s: %w", m.name, err)
	}
	if rel, err = c.WaitReady(ctx, rel.ID, time.Millisecond); err != nil {
		return rel, 0, fmt.Errorf("waiting for %s (%s): %w", rel.ID, m.name, err)
	}
	return rel, time.Since(t0), nil
}

func runPublish(e *runEnv) error {
	cfg := e.cfg
	ctx := context.Background()
	schema := census.Schema().Project(cfg.qi)
	methods := publishMethods()
	e.res.Env.OpenLoopRate = cfg.rate
	e.res.Config["analyst_batch"] = cfg.analystBatch
	e.res.Config["publish_cycles"] = cfg.cycles

	// Inputs: table 0 backs the analyst's releases, tables 1..cycles the
	// publisher's uploads. The analyst's answers are checked against an
	// independent in-process anonymization of table 0.
	csvs := make([]string, cfg.cycles+1)
	var base *microdata.Table
	for i := range csvs {
		t, csv, err := censusTable(cfg, i)
		if err != nil {
			return err
		}
		if i == 0 {
			base = t
		}
		csvs[i] = csv
	}
	refSnaps := make([]*release.Snapshot, len(methods))
	for i, m := range methods {
		rel, err := anon.Anonymize(ctx, base, m.params)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", m.name, err)
		}
		if refSnaps[i], err = release.NewSnapshot(rel, 0); err != nil {
			return err
		}
	}
	kinds := []string{"count", "sum", "avg", "min", "max"}
	stream, err := newQueryStream(schema, cfg.seed, 0.05, []int{2}, kinds, laneTimed)
	if err != nil {
		return err
	}
	warm, err := newQueryStream(schema, cfg.seed+1_000_003, 0.05, []int{2}, kinds, laneWarm)
	if err != nil {
		return err
	}

	var (
		n       *node
		nodes   []*node
		c, pc   *client.Client
		before  map[string][2]float64
		baseIDs []string
		setups  []float64
		warmups []float64
	)
	defer func() { closeAll(nodes) }()
	for k := 0; k < cfg.setups; k++ {
		closeAll(nodes)
		nodes = nil
		runtime.GC()
		time.Sleep(cfg.setupGap) // see config.setupGap
		t0 := time.Now()
		if n, err = startNode(e.tr, e.dataDir(k, 0), ""); err != nil {
			return err
		}
		nodes = []*node{n}
		if before, err = scrapeAll(ctx, nodes); err != nil {
			return err
		}
		c, pc = newClient(e.tr, n.url, cfg.clients), newClient(nil, n.url, 1)
		baseIDs = baseIDs[:0]
		for _, m := range methods {
			e.res.attempted.Add(1)
			rel, _, err := upload(ctx, pc, csvs[0], cfg.qi, m)
			if err != nil {
				return err
			}
			baseIDs = append(baseIDs, rel.ID)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			continue // only the last set-up serves the window
		}
		t0 = time.Now()
		for _, id := range baseIDs {
			for i := 0; i < 2; i++ {
				if _, err := c.QueryBatch(ctx, id, warm.batch(cfg.analystBatch)); err != nil {
					return fmt.Errorf("warming %s: %w", id, err)
				}
			}
		}
		warmups = append(warmups, time.Since(t0).Seconds())
	}
	e.setupTimes(setups, warmups)

	// The window: the publisher uploads cfg.cycles tables by each method,
	// closed loop; the analyst sends batches on its schedule until the
	// window has passed and the publisher is done.
	var pub publishStats
	var published []string
	pubErr := make(chan error, 1)
	pubDone := make(chan struct{})
	// Uploads are paced over the window — upload i starts no earlier than
	// i window-shares in — so the analyst meets a publisher throughout
	// and the upload times sample the whole window; an upload running
	// late starts the next one at once.
	slot := cfg.window() / time.Duration(cfg.cycles*len(methods))
	pubStart := time.Now()
	go func() {
		defer close(pubDone)
		i := 0
		for cyc := 1; cyc <= cfg.cycles; cyc++ {
			for _, m := range methods {
				time.Sleep(time.Until(pubStart.Add(time.Duration(i) * slot)))
				i++
				e.res.attempted.Add(1)
				rel, d, err := upload(ctx, pc, csvs[cyc], cfg.qi, m)
				if err != nil {
					e.res.failed.Add(1)
					select {
					case pubErr <- err:
					default:
					}
					continue
				}
				pub.add(d, rel.Rows, cyc, m.name)
				pub.lag = append(pub.lag, ms(rel.ReadyAt.Sub(rel.CreatedAt))-float64(rel.BuildMillis))
				published = append(published, rel.ID)
			}
		}
	}()
	stop := make(chan struct{})
	go func() {
		time.Sleep(cfg.window())
		<-pubDone
		close(stop)
	}()
	out := e.openLoop(ctx, c, cfg.rate, func(i int) (string, []api.Query) {
		return baseIDs[analystRotation[i%len(analystRotation)]], stream.batch(cfg.analystBatch)
	}, stop)
	<-pubDone
	select {
	case err := <-pubErr:
		e.logf("publisher: %v", err)
	default:
	}
	e.report(out)
	e.res.set("publish_window_s", "s", out.window.Seconds())
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	e.nodeStageMetrics(before, after)
	refs := map[string]*release.Snapshot{}
	for i, id := range baseIDs {
		refs[id] = refSnaps[i]
	}
	e.checkEstimates(out.kept, refs)
	pub.report(e.res)
	all := append(append([]string(nil), baseIDs...), published...)
	e.res.set("disk_bytes_per_row", "bytes", float64(dirSize(n.dir))/float64(len(all)*cfg.rows))

	e.lad = ladderInput{mode: "cold", anonTable: base}
	for i, id := range baseIDs {
		e.lad.targets = append(e.lad.targets, ladderTarget{id: id, snap: refSnaps[i], spec: release.Spec{Method: methods[i].name, Params: methods[i].params, QI: cfg.qi}})
	}
	for i := 0; i < cfg.ladderBatches; i++ {
		e.lad.batches = append(e.lad.batches, ladderBatch{id: baseIDs[analystRotation[i%len(analystRotation)]], qs: stream.batch(cfg.analystBatch)})
	}
	nodes, err = e.restartNodes(ctx, nodes, [][]string{all}, schema, cfg.publishRestarts)
	return err
}
