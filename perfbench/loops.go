package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// batchFn returns the release and the queries of worker w's next batch.
type batchFn func(w int) (id string, qs []api.Query)

// answered is one batch kept for the answer checks.
type answered struct {
	id  string
	qs  []api.Query
	res []api.QueryResult
}

// loopOut is what one load loop measured.
type loopOut struct {
	samples []sample
	kept    []answered // per worker, the first answered batch of each cfg.keepEvery tick
	hits    int64      // results served from the cache
	results int64
	start   time.Time
	window  time.Duration
	heapMB  float64 // live heap once the window's traffic has stopped
	allocs  uint64
	gcs     uint64    // garbage collections during the window
	late    []float64 // ms each request was sent after it was due
	open    bool      // an open loop: the schedule sets the throughput
}

// worker state of a load loop: its own samples, merged when it ends.
type loopWorker struct {
	samples []sample
	kept    []answered
	hits    int64
	results int64
	late    []float64
	n       int
	tick    int64 // the last keepEvery tick a batch was kept in
}

// send issues one batch and records its sample. Latency counts from due;
// the harness's lateness is how long after free the request was sent —
// its due time in an open loop, the previous answer in a closed one.
func (e *runEnv) send(ctx context.Context, c *client.Client, lw *loopWorker, id string, qs []api.Query, due, free time.Time) {
	sent := time.Now()
	traced := e.tr.enabled()
	sctx, end := e.tr.start(ctx, spanClient)
	br, err := c.QueryBatch(sctx, id, qs)
	done := time.Now()
	s := sample{due: due, lat: done.Sub(due), queries: len(qs), traced: traced}
	lw.late = append(lw.late, ms(sent.Sub(free)))
	if err != nil {
		end("")
		s.failed = true
		if lw.n < 3 {
			e.logf("batch against %s failed: %v", id, err)
		}
	} else {
		end(br.RequestID)
		if len(br.Results) != len(qs) {
			s.failed = true
		} else {
			for _, r := range br.Results {
				if r.Cached {
					lw.hits++
				}
			}
			lw.results += int64(len(qs))
			if tick := done.UnixNano() / int64(e.cfg.keepEvery); tick != lw.tick {
				lw.tick = tick
				lw.kept = append(lw.kept, answered{id: id, qs: qs, res: br.Results})
			}
		}
	}
	lw.n++
	lw.samples = append(lw.samples, s)
}

// begin starts a window's process-wide measurements and, on traced
// runs, the tracing toggle: tracing is on in even slices and off in odd
// ones, so traced and untraced throughput are measured side by side.
func (e *runEnv) begin(out *loopOut) (stop func()) {
	runtime.GC() // see config.setupGap
	allocs0, gcs0 := mallocs(), gcCycles()
	out.start = time.Now()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if e.tr == nil {
			return
		}
		for k := 0; ; k++ {
			e.tr.on.Store(k%2 == 0)
			select {
			case <-quit:
				e.tr.on.Store(false)
				return
			case <-time.After(time.Until(out.start.Add(time.Duration(k+1) * e.cfg.slice))):
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		out.window = time.Since(out.start)
		out.allocs = mallocs() - allocs0
		out.gcs = gcCycles() - gcs0
		out.heapMB = liveHeapMB()
	}
}

func (out *loopOut) merge(ws []*loopWorker) {
	for _, w := range ws {
		out.samples = append(out.samples, w.samples...)
		out.kept = append(out.kept, w.kept...)
		out.hits += w.hits
		out.results += w.results
		out.late = append(out.late, w.late...)
	}
}

// closedLoop runs cfg.clients workers for cfg.rampUp, untimed, and then
// for the window; each sends its next batch as soon as the previous one
// is answered. Worker w uses clients[w % len(clients)].
func (e *runEnv) closedLoop(ctx context.Context, clients []*client.Client, next batchFn) *loopOut {
	// Over its first second or so the workload's throughput climbs to its
	// steady rate; the ramp-up runs that part outside the window. Its
	// answers are not kept, but its failures count.
	for _, w := range e.drive(ctx, clients, next, time.Now().Add(e.cfg.rampUp)) {
		for _, s := range w.samples {
			e.res.attempted.Add(int64(s.queries))
			if s.failed {
				e.res.failed.Add(int64(s.queries))
			}
		}
	}
	out := &loopOut{}
	stop := e.begin(out)
	ws := e.drive(ctx, clients, next, out.start.Add(e.cfg.window()))
	stop()
	out.merge(ws)
	return out
}

// drive runs cfg.clients closed-loop workers until end.
func (e *runEnv) drive(ctx context.Context, clients []*client.Client, next batchFn, end time.Time) []*loopWorker {
	ws := make([]*loopWorker, e.cfg.clients)
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = &loopWorker{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for free := time.Now(); free.Before(end); free = time.Now() {
				id, qs := next(w)
				// Generating the batch is the client's think time; the
				// request is due once it is built.
				e.send(ctx, c, ws[w], id, qs, time.Now(), free)
			}
		}(w)
	}
	wg.Wait()
	return ws
}

// openLoop sends batch i at start + i/rate from cfg.analystWorkers workers,
// whether or not earlier batches were answered, until stop is closed;
// latency counts from each batch's due time.
func (e *runEnv) openLoop(ctx context.Context, c *client.Client, rate float64, next func(i int) (string, []api.Query), stop <-chan struct{}) *loopOut {
	type job struct {
		i   int
		due time.Time
	}
	out := &loopOut{open: true}
	// The buffer absorbs a backlog of up to ten seconds of due batches
	// while both workers are busy; the dispatcher blocks beyond it, and
	// the wait still counts, since latency runs from the due time.
	jobs := make(chan job, int(10*rate)+1)
	ws := make([]*loopWorker, e.cfg.analystWorkers)
	end := e.begin(out)
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = &loopWorker{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				id, qs := next(j.i)
				e.send(ctx, c, ws[w], id, qs, j.due, j.due)
			}
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
dispatch:
	for i := 0; ; i++ {
		due := out.start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			break dispatch
		case <-time.After(time.Until(due)):
		}
		select {
		case <-stop:
			break dispatch
		case jobs <- job{i, due}:
		}
	}
	close(jobs)
	wg.Wait()
	end()
	out.merge(ws)
	return out
}

// report turns a loop's measurements into the run's query metrics.
func (e *runEnv) report(out *loopOut) {
	res := e.res
	windowStats(res, out, e.cfg.slice)
	if out.results > 0 {
		res.set("allocs_per_query", "allocs", float64(out.allocs)/float64(out.results))
		res.set("engine.cache_hit_ratio", "fraction", float64(out.hits)/float64(out.results))
	}
	res.set("heap_peak_mb", "MB", out.heapMB)
	res.set("gc_cycles", "count", float64(out.gcs))
	res.set("harness.late_p99_ms", "ms", percentile(append([]float64(nil), out.late...), 0.99))
	res.sample("harness.late_p99_ms", len(out.late))
	if e.tr != nil {
		e.traceOverhead(out)
	}
}

// traceOverhead compares the traced slices of the window with the
// untraced ones: throughput on closed loops, median latency on the open
// loop (whose throughput the schedule fixes).
func (e *runEnv) traceOverhead(out *loopOut) {
	var qOn, qOff float64
	var latOn, latOff []float64
	nSlices := int(out.window / e.cfg.slice)
	var sOn, sOff int
	for k := 0; k < nSlices; k++ {
		if k%2 == 0 {
			sOn++
		} else {
			sOff++
		}
	}
	for _, s := range out.samples {
		if s.failed {
			continue
		}
		k := int(s.due.Add(s.lat).Sub(out.start) / e.cfg.slice)
		if k >= nSlices {
			continue
		}
		if s.traced {
			latOn = append(latOn, ms(s.lat))
		} else {
			latOff = append(latOff, ms(s.lat))
		}
		if k%2 == 0 {
			qOn += float64(s.queries)
		} else {
			qOff += float64(s.queries)
		}
	}
	pct := 0.0
	if e.res.Workload == publishName {
		if off := median(latOff); off > 0 {
			pct = (median(latOn) - off) / off * 100
		}
	} else if sOn > 0 && sOff > 0 && qOff > 0 {
		on, off := qOn/float64(sOn), qOff/float64(sOff)
		pct = (off - on) / off * 100
	}
	e.res.set("harness.trace_overhead_pct", "%", pct)
}
