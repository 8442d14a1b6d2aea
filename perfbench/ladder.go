package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/anon"
	"repro/internal/engine"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

// ladderTarget is one release the ladder replays queries against.
type ladderTarget struct {
	id   string
	snap *release.Snapshot
	spec release.Spec // zero: plantSpec
}

// ladderBatch is one of the workload's batches, against one target.
type ladderBatch struct {
	id string
	qs []api.Query
}

// ladderInput is what a workload hands the traced layer ladder: its
// releases, a sample of its batches, and the cache state its traffic
// runs in.
type ladderInput struct {
	// mode is the workload's cache state, "cold" or "warm": the engine's
	// allocations per batch and, without a gateway of its own, the
	// gateway's stage times are read from rungs in this mode.
	mode      string
	targets   []ladderTarget
	batches   []ladderBatch
	anonTable *microdata.Table // the anon probe's table; nil: census table 0 of the run
	// scan holds the anon probe's anatomy and perturbed releases, for
	// workloads without scan-kind releases of their own.
	scan map[string]*release.Snapshot
}

// rungPoint is one measured point of the ladder: a rung, a cache mode
// (none on the estimator rung) and an operation shape ("batch": one of
// the workload's batches, "single": one query). NsPerOp is the median
// span duration.
type rungPoint struct {
	Rung        string  `json:"rung"`
	Mode        string  `json:"mode,omitempty"`
	Shape       string  `json:"shape"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ladderPasses is how many times each rung point replays its batches.
const ladderPasses = 2

// op is one ladder operation: it runs the call into the rung's layer,
// recording its span under the given trace ID.
type op func(ctx context.Context, trace string) error

// measure runs ops (passes times over) with tracing on, and returns the
// median span duration of the ops' root spans and the allocations per
// op across the loop.
func (e *runEnv) measure(rung, mode, shape string, ops []op) (rungPoint, error) {
	scope := rungScope(rung, mode) + "." + shape
	e.tr.setScope(scope)
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	traces := make([]string, ladderPasses*len(ops))
	for i := range traces {
		traces[i] = fmt.Sprintf("%s-%d", scope, i)
	}
	root := "ladder." + rung
	durs := make([]float64, 0, len(traces))
	a0 := mallocs()
	n := 0
	for p := 0; p < ladderPasses; p++ {
		for _, o := range ops {
			trace := traces[n]
			ctx, end := e.tr.start(context.Background(), root)
			t0 := time.Now()
			err := o(ctx, trace)
			durs = append(durs, float64(time.Since(t0)))
			end(trace)
			if err != nil {
				return rungPoint{}, fmt.Errorf("%s: %w", scope, err)
			}
			n++
		}
	}
	allocs := float64(mallocs()-a0) / float64(n)
	pt := rungPoint{Rung: rung, Mode: mode, Shape: shape, Ops: n, NsPerOp: median(durs), AllocsPerOp: allocs}
	e.logf("ladder %s: %d ops, %.0f ns/op, %.1f allocs/op", scope, n, pt.NsPerOp, allocs)
	e.res.Ladder = append(e.res.Ladder, pt)
	if shape == "batch" {
		e.res.set(rungScope(rung, mode)+".batch_us", "us", pt.NsPerOp/1e3)
		e.res.set(rungScope(rung, mode)+".batch_allocs", "allocs", allocs)
	}
	return pt, nil
}

// runLadder measures every layer from outside: probes of the write-side
// layers (anon, codec, index build, store), then the six query rungs,
// each cold and warm, single query and batch.
func runLadder(e *runEnv) error {
	lad := e.lad
	if err := e.anonProbe(lad); err != nil {
		return err
	}
	if err := e.codecProbe(lad); err != nil {
		return err
	}
	if _, ok := e.res.Metrics["store.ready_lag_ms"]; !ok {
		if err := e.storeProbe(lad); err != nil {
			return err
		}
	}
	return e.rungs(lad)
}

// anonProbe times anon.Anonymize of every publish method on the census
// table (median of three runs) and counts the ECs each publishes. The
// anatomy and perturbed releases it builds also serve the scan
// estimator rung of workloads that have none of their own.
func (e *runEnv) anonProbe(lad ladderInput) error {
	tab := lad.anonTable
	if tab == nil {
		t, _, err := censusTable(e.cfg, 0)
		if err != nil {
			return err
		}
		tab = t
	}
	for _, m := range publishMethods() {
		var ds []float64
		var rel *anon.Release
		e.tr.setScope("probe.anon." + m.name)
		e.tr.on.Store(true)
		for i := 0; i < 3; i++ {
			_, end := e.tr.start(context.Background(), "anon.anonymize")
			t0 := time.Now()
			r, err := anon.Anonymize(context.Background(), tab, m.params)
			ds = append(ds, ms(time.Since(t0)))
			end(fmt.Sprintf("anon-%s-%d", m.name, i))
			if err != nil {
				return fmt.Errorf("anonymizing with %s: %w", m.name, err)
			}
			rel = r
		}
		e.tr.on.Store(false)
		e.res.set("anon.build_ms."+m.name, "ms", median(ds))
		switch m.name {
		case anon.MethodBUREL, anon.MethodSABRE:
			e.res.set("anon.ecs."+m.name, "count", float64(rel.NumECs()))
		case anon.MethodAnatomy, anon.MethodPerturb:
			if e.lad.scan == nil {
				e.lad.scan = map[string]*release.Snapshot{}
			}
			snap, err := release.NewSnapshot(rel, 0)
			if err != nil {
				return err
			}
			e.lad.scan[m.name] = snap
		}
	}
	return nil
}

// codecProbe encodes and decodes every target's snapshot and rebuilds
// the grid index of the generalized ones (medians of three runs, summed
// over the targets).
func (e *runEnv) codecProbe(lad ladderInput) error {
	var enc, dec, idx float64
	var size int
	e.tr.setScope("probe.codec")
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	for _, t := range lad.targets {
		spec := t.spec
		if spec.Method == "" {
			spec = plantSpec
		}
		var es, ds, is []float64
		for i := 0; i < 3; i++ {
			trace := fmt.Sprintf("codec-%s-%d", t.id, i)
			_, end := e.tr.start(context.Background(), "codec.encode")
			t0 := time.Now()
			data, err := release.EncodeSnapshot(t.snap, spec)
			es = append(es, ms(time.Since(t0)))
			end(trace)
			if err != nil {
				return fmt.Errorf("encoding %s: %w", t.id, err)
			}
			size = len(data)
			_, end = e.tr.start(context.Background(), "codec.decode")
			t0 = time.Now()
			_, _, err = release.DecodeSnapshot(data)
			ds = append(ds, ms(time.Since(t0)))
			end(trace)
			if err != nil {
				return fmt.Errorf("decoding %s: %w", t.id, err)
			}
			if t.snap.Index != nil {
				ecs := append([]microdata.PublishedEC(nil), t.snap.Index.ECs()...)
				_, end = e.tr.start(context.Background(), "index.build")
				t0 = time.Now()
				release.BuildIndex(t.snap.Schema, ecs, 0)
				is = append(is, ms(time.Since(t0)))
				end(trace)
			}
		}
		enc += median(es)
		dec += median(ds)
		if len(is) > 0 {
			idx += median(is)
		}
		e.res.set("codec.snapshot_bytes", "bytes", float64(size)+e.res.Metrics["codec.snapshot_bytes"].Value)
	}
	e.res.set("codec.encode_ms", "ms", enc)
	e.res.set("codec.decode_ms", "ms", dec)
	e.res.set("index.build_ms", "ms", idx)
	return nil
}

// storeProbe submits the census table by every publish method to a
// fresh durable store and reports the ready lag the store's metadata
// shows — for workloads whose releases are planted rather than built.
func (e *runEnv) storeProbe(lad ladderInput) error {
	tab := lad.anonTable
	if tab == nil {
		t, _, err := censusTable(e.cfg, 0)
		if err != nil {
			return err
		}
		tab = t
	}
	st, err := release.Open(e.dataDir(99, 0), storeWorkers)
	if err != nil {
		return err
	}
	defer st.Close()
	var lag []float64
	for _, m := range publishMethods() {
		meta, err := st.Submit(context.Background(), tab, release.Spec{Method: m.name, Params: m.params})
		if err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		if meta, err = st.WaitReady(meta.ID, time.Minute); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		lag = append(lag, ms(meta.ReadyAt.Sub(meta.CreatedAt))-float64(meta.BuildMillis))
	}
	e.res.set("store.ready_lag_ms", "ms", median(lag))
	return nil
}

// unit is one scalar estimation a batch expands to.
type unit struct {
	snap *release.Snapshot
	q    query.Query
}

// units expands queries into the distinct scalar estimations the engine
// runs for them: grouped queries into their cells, repeats within the
// batch estimated once.
func units(snap *release.Snapshot, qs []api.Query) []unit {
	var out []unit
	seen := map[string]bool{}
	add := func(q query.Query) {
		if k := queryKey(toAPI(q)); !seen[k] {
			seen[k] = true
			out = append(out, unit{snap, q})
		}
	}
	for _, aq := range qs {
		q := fromAPI(aq)
		if len(q.GroupBy) == 0 {
			add(q)
			continue
		}
		for _, c := range query.GroupCells(snap.Schema, q) {
			add(c.Query)
		}
	}
	return out
}

// estimateUnit runs the rung-1 call for one unit: EstimateScratch on a
// generalized release's index, EstimateWith on the scan kinds.
func estimateUnit(u unit, sc *release.Scratch) error {
	if u.snap.Index != nil {
		u.snap.Index.EstimateScratch(u.q, sc)
		return nil
	}
	_, err := u.snap.EstimateWith(u.q, sc)
	return err
}

// rungs measures the six query rungs and derives the layer metrics.
func (e *runEnv) rungs(lad ladderInput) error {
	snaps := map[string]*release.Snapshot{}
	for _, t := range lad.targets {
		snaps[t.id] = t.snap
	}
	var singles []ladderBatch
	for _, b := range lad.batches {
		for _, q := range b.qs {
			if len(singles) < e.cfg.ladderSingles {
				singles = append(singles, ladderBatch{id: b.id, qs: []api.Query{q}})
			}
		}
	}
	shapes := map[string][]ladderBatch{"batch": lad.batches, "single": singles}
	shapeOrder := []string{"batch", "single"}
	pts := map[string]rungPoint{}
	key := func(r, m, s string) string { return r + "/" + m + "/" + s }

	// Rung 1: the estimator, serially over each batch's units. It has no
	// cache, so it is measured once, without a mode.
	sc := &release.Scratch{}
	for _, shape := range shapeOrder {
		bs := shapes[shape]
		ops := make([]op, len(bs))
		for i, b := range bs {
			us := units(snaps[b.id], b.qs)
			ops[i] = func(ctx context.Context, trace string) error {
				_, end := e.tr.start(ctx, spanEstimate)
				defer end(trace)
				for _, u := range us {
					if err := estimateUnit(u, sc); err != nil {
						return err
					}
				}
				return nil
			}
		}
		pt, err := e.measure("estimator", "", shape, ops)
		if err != nil {
			return err
		}
		pts[key("estimator", "", shape)] = pt
	}
	if err := e.unitProbe(lad, snaps); err != nil {
		return err
	}

	// Rung 2: engine.Execute; cold runs without a result cache, warm
	// after one pass has filled it.
	for _, mode := range rungModes {
		eng := engine.New(engineOptions(mode))
		for _, shape := range shapeOrder {
			bs := shapes[shape]
			ops := make([]op, len(bs))
			for i, b := range bs {
				qs := make([]query.Query, len(b.qs))
				for j, q := range b.qs {
					qs[j] = fromAPI(q)
				}
				snap, id := snaps[b.id], b.id
				ops[i] = func(ctx context.Context, trace string) error {
					_, end := e.tr.start(ctx, spanExecute)
					defer end(trace)
					_, err := eng.Execute(id, snap, qs)
					return err
				}
			}
			if err := warmOps(mode, ops); err != nil {
				eng.Close()
				return err
			}
			pt, err := e.measure("engine", mode, shape, ops)
			if err != nil {
				eng.Close()
				return err
			}
			pts[key("engine", mode, shape)] = pt
		}
		eng.Close()
	}
	if err := e.engineOverhead(lad, snaps); err != nil {
		return err
	}

	// Rung 3: Server.ServeHTTP through a recorder.
	var respBytes, respQueries float64
	for _, mode := range rungModes {
		st, err := plantedStore(lad, "")
		if err != nil {
			return err
		}
		srv, err := server.New(st, server.Options{Logger: quietLogger, Engine: engineOptions(mode)})
		if err != nil {
			st.Close()
			return err
		}
		for _, shape := range shapeOrder {
			bs := shapes[shape]
			count := mode == "warm" && shape == "batch"
			ops := make([]op, len(bs))
			for i, b := range bs {
				body, err := json.Marshal(api.BatchQueryRequest{ReleaseID: b.id, Queries: b.qs})
				if err != nil {
					return err
				}
				nq := len(b.qs)
				ops[i] = func(ctx context.Context, trace string) error {
					req := httptest.NewRequest(http.MethodPost, "/v1/query:batch", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					_, end := e.tr.start(ctx, spanServer)
					srv.ServeHTTP(rec, req)
					end(trace)
					if rec.Code != http.StatusOK {
						return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					}
					if count {
						respBytes += float64(rec.Body.Len())
						respQueries += float64(nq)
					}
					return nil
				}
			}
			if err := warmOps(mode, ops); err != nil {
				srv.Close()
				st.Close()
				return err
			}
			if count {
				respBytes, respQueries = 0, 0 // count the measured passes only
			}
			pt, err := e.measure("server", mode, shape, ops)
			if err != nil {
				srv.Close()
				st.Close()
				return err
			}
			pts[key("server", mode, shape)] = pt
		}
		srv.Close()
		st.Close()
	}
	if respQueries > 0 {
		e.res.set("server.response_bytes_per_query", "bytes", respBytes/respQueries)
	}

	// Rungs 4–6: the SDK client over loopback, straight to a node, then
	// through a gateway over one node and over three.
	for _, top := range []struct {
		rung  string
		nodes int
	}{{"loopback", 1}, {"gateway1", 1}, {"gateway3", 3}} {
		for _, mode := range rungModes {
			var nodes []*node
			for i := 0; i < top.nodes; i++ {
				id := ""
				if top.rung != "loopback" {
					id = fmt.Sprintf("n%d", i+1)
				}
				st, err := plantedStore(lad, id)
				if err != nil {
					closeAll(nodes)
					return err
				}
				n, err := serveStore(e.tr, st, id, engineOptions(mode).CacheCapacity)
				if err != nil {
					st.Close()
					closeAll(nodes)
					return err
				}
				nodes = append(nodes, n)
			}
			url := nodes[0].url
			var gw *gateway
			if top.rung != "loopback" {
				g, err := startGateway(e.tr, nodes, top.nodes)
				if err != nil {
					closeAll(nodes)
					return err
				}
				gw, url = g, g.url
			}
			err := e.clientRung(top.rung, mode, shapeOrder, shapes, newClient(e.tr, url, 1), pts, gw)
			if gw != nil {
				gw.close()
			}
			closeAll(nodes)
			if err != nil {
				return err
			}
		}
	}

	// Layer gaps are taken between warm rungs: there the estimator does no
	// work, so a layer's own cost is not buried in estimation noise.
	const m = "warm"
	gap := func(upper, lower string) float64 {
		return (pts[key(upper, m, "batch")].NsPerOp - pts[key(lower, m, "batch")].NsPerOp) / 1e3
	}
	allocGap := func(upper, lower string) float64 {
		return pts[key(upper, m, "batch")].AllocsPerOp - pts[key(lower, m, "batch")].AllocsPerOp
	}
	e.res.set("engine.execute_us.cold", "us", pts[key("engine", "cold", "batch")].NsPerOp/1e3)
	e.res.set("engine.execute_us.warm", "us", pts[key("engine", "warm", "batch")].NsPerOp/1e3)
	e.res.set("engine.allocs_per_batch", "allocs", pts[key("engine", lad.mode, "batch")].AllocsPerOp)
	e.res.set("server.handler_us", "us", gap("server", "engine"))
	e.res.set("server.allocs_per_batch", "allocs", allocGap("server", "engine"))
	e.res.set("http.loopback_us", "us", gap("loopback", "server"))
	e.res.set("cluster.gateway_us", "us", gap("gateway1", "loopback"))
	e.res.set("cluster.fanout_us", "us", gap("gateway3", "gateway1"))
	e.res.set("cluster.allocs_per_batch", "allocs", allocGap("gateway1", "loopback"))
	return nil
}

// clientRung measures one client-facing rung; on the three-node gateway
// rung it also reads the gateway's stage histograms, when the workload's
// own traffic did not.
func (e *runEnv) clientRung(rung, mode string, order []string, shapes map[string][]ladderBatch, c *client.Client, pts map[string]rungPoint, gw *gateway) error {
	bg := context.Background()
	for _, shape := range order {
		bs := shapes[shape]
		ops := make([]op, len(bs))
		for i, b := range bs {
			// The root span of a client op takes its trace ID from the
			// response, like the workload's requests.
			ops[i] = func(ctx context.Context, _ string) error {
				sctx, end := e.tr.start(ctx, spanClient)
				br, err := c.QueryBatch(sctx, b.id, b.qs)
				if err != nil {
					end("")
					return err
				}
				end(br.RequestID)
				return nil
			}
		}
		if err := warmOps(mode, ops); err != nil {
			return err
		}
		stages := rung == "gateway3" && shape == "batch" && mode == e.lad.mode
		if _, done := e.res.Metrics["cluster.subbatch_ms"]; done {
			stages = false
		}
		var before map[string][2]float64
		if stages {
			var err error
			if before, err = scrapeStages(bg, scrapeClient, gw.url, gatewayStages); err != nil {
				return err
			}
		}
		pt, err := e.measure(rung, mode, shape, ops)
		if err != nil {
			return err
		}
		pts[rung+"/"+mode+"/"+shape] = pt
		if stages {
			after, err := scrapeStages(bg, scrapeClient, gw.url, gatewayStages)
			if err != nil {
				return err
			}
			e.gatewayStageMetrics(before, after)
		}
	}
	return nil
}

// warmOps runs every op once before a warm measurement, so caches hold
// its answers; cold measurements start from components without a cache.
func warmOps(mode string, ops []op) error {
	if mode != "warm" {
		return nil
	}
	for _, o := range ops {
		if err := o(context.Background(), "warm-up"); err != nil {
			return err
		}
	}
	return nil
}

// engineOptions configures a rung's engine: no result cache when cold,
// the default one when warm.
func engineOptions(mode string) engine.Options {
	if mode == "cold" {
		return engine.Options{CacheCapacity: -1}
	}
	return engine.Options{}
}

// plantedStore is a memory-only store holding every target under its
// workload ID.
func plantedStore(lad ladderInput, node string) (*release.Store, error) {
	st, err := release.NewStoreNode(storeWorkers, node)
	if err != nil {
		return nil, err
	}
	for _, t := range lad.targets {
		spec := t.spec
		if spec.Method == "" {
			spec = plantSpec
		}
		if _, _, err := st.RegisterAs(t.id, t.snap, spec); err != nil {
			st.Close()
			return nil, fmt.Errorf("planting %s: %w", t.id, err)
		}
	}
	return st, nil
}

// unitProbe measures the estimator per unit: index.estimate_us,
// candidates and useful ratio on generalized releases, and the scan
// estimators on the anatomy and perturbed ones.
func (e *runEnv) unitProbe(lad ladderInput, snaps map[string]*release.Snapshot) error {
	var all []query.Query
	var gen []unit
	for _, b := range lad.batches {
		for _, u := range units(snaps[b.id], b.qs) {
			all = append(all, u.q)
			if u.snap.Index != nil {
				gen = append(gen, u)
			}
		}
	}
	if len(gen) == 0 {
		return fmt.Errorf("workload has no generalized release for the index probe")
	}
	sc := &release.Scratch{}
	var est []float64
	var cands, useful float64
	e.tr.setScope("probe.index")
	e.tr.on.Store(true)
	for i, u := range gen {
		_, end := e.tr.start(context.Background(), spanEstimate)
		t0 := time.Now()
		u.snap.Index.EstimateScratch(u.q, sc)
		est = append(est, us(time.Since(t0)))
		end(fmt.Sprintf("unit-%d", i))
		if i < 256 {
			cands += float64(u.snap.Index.Candidates(u.q))
			for _, ec := range u.snap.Index.ECs() {
				if query.OverlapFraction(u.snap.Schema, ec.Box, u.q) > 0 {
					useful++
				}
			}
		}
	}
	e.tr.on.Store(false)
	probed := float64(min(len(gen), 256))
	e.res.set("index.estimate_us", "us", median(est))
	e.res.sample("index.estimate_us", len(est))
	e.res.set("index.candidates_per_unit", "count", cands/probed)
	if cands > 0 {
		e.res.set("index.useful_ratio", "fraction", useful/cands)
	} else {
		e.res.set("index.useful_ratio", "fraction", 1)
	}

	// Scan estimators: the workload's own anatomy and perturbed releases
	// if it has them, else the anon probe's, over the workload's units.
	scan := map[string]*release.Snapshot{}
	for _, t := range lad.targets {
		if t.snap.Kind == release.KindAnatomy {
			scan[anon.MethodAnatomy] = t.snap
		}
		if t.snap.Kind == release.KindPerturbed {
			scan[anon.MethodPerturb] = t.snap
		}
	}
	for k, s := range e.lad.scan {
		if scan[k] == nil {
			scan[k] = s
		}
	}
	n := min(len(all), 64)
	if e.cfg.quick {
		n = min(len(all), 8)
	}
	for _, name := range []string{anon.MethodAnatomy, anon.MethodPerturb} {
		snap := scan[name]
		if snap == nil {
			return fmt.Errorf("no %s release for the scan probe", name)
		}
		var ts []float64
		e.tr.setScope("probe.scan." + name)
		e.tr.on.Store(true)
		for i, q := range all[:n] {
			_, end := e.tr.start(context.Background(), "scan.estimate")
			t0 := time.Now()
			_, err := snap.EstimateWith(q, sc)
			ts = append(ts, us(time.Since(t0)))
			end(fmt.Sprintf("scan-%s-%d", name, i))
			if err != nil {
				e.tr.on.Store(false)
				return fmt.Errorf("scan estimate on %s: %w", name, err)
			}
		}
		e.tr.on.Store(false)
		e.res.set("scan.estimate_us."+name, "us", median(ts))
	}
	return nil
}

// engineOverhead is the engine's serial bookkeeping per batch: a
// one-worker, cache-less engine's Execute minus the estimator rung's
// serial estimation of the same batch.
func (e *runEnv) engineOverhead(lad ladderInput, snaps map[string]*release.Snapshot) error {
	eng := engine.New(engine.Options{Workers: 1, CacheCapacity: -1})
	defer eng.Close()
	sc := &release.Scratch{}
	var over []float64
	for p := 0; p < ladderPasses; p++ {
		for _, b := range lad.batches {
			snap := snaps[b.id]
			qs := make([]query.Query, len(b.qs))
			for j, q := range b.qs {
				qs[j] = fromAPI(q)
			}
			us0 := units(snap, b.qs)
			t0 := time.Now()
			for _, u := range us0 {
				if err := estimateUnit(u, sc); err != nil {
					return err
				}
			}
			est := time.Since(t0)
			t0 = time.Now()
			if _, err := eng.Execute(b.id, snap, qs); err != nil {
				return err
			}
			over = append(over, us(time.Since(t0)-est))
		}
	}
	e.res.set("engine.overhead_us", "us", median(over))
	return nil
}
