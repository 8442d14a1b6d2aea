package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
	"repro/pkg/client"
)

// canonical encodes answers with the cache flags cleared: the part of a
// response that must be byte-identical however it was served.
func canonical(res []api.QueryResult) string {
	cp := make([]api.QueryResult, len(res))
	for i, r := range res {
		cp[i] = api.QueryResult{Estimate: r.Estimate, Groups: r.Groups}
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(data)
}

// estimateMatches reports whether a served answer equals the in-process
// estimate of the same query on the reference snapshot — bit for bit,
// per group cell for grouped queries.
func estimateMatches(snap *release.Snapshot, aq api.Query, r api.QueryResult) (bool, string) {
	q := fromAPI(aq)
	if len(q.GroupBy) == 0 {
		want, err := snap.Estimate(q)
		if err != nil {
			return false, fmt.Sprintf("in-process estimate failed: %v", err)
		}
		if r.Estimate != want || len(r.Groups) != 0 {
			return false, fmt.Sprintf("served %v, in-process %v", r.Estimate, want)
		}
		return true, ""
	}
	cells := query.GroupCells(snap.Schema, q)
	if len(cells) != len(r.Groups) {
		return false, fmt.Sprintf("served %d group cells, in-process %d", len(r.Groups), len(cells))
	}
	for i, c := range cells {
		want, err := snap.Estimate(c.Query)
		if err != nil {
			return false, fmt.Sprintf("in-process estimate of cell %d failed: %v", i, err)
		}
		g := r.Groups[i]
		if g.Estimate != want || !slices.Equal(g.Lo, c.Lo) || !slices.Equal(g.Hi, c.Hi) {
			return false, fmt.Sprintf("cell %d: served %v over %v–%v, in-process %v over %v–%v", i, g.Estimate, g.Lo, g.Hi, want, c.Lo, c.Hi)
		}
	}
	return true, ""
}

// maxChecked caps the kept batches a check compares, spread evenly over
// the window, so that checking stays cheap on fast workloads.
const maxChecked = 256

// spreadOut returns at most maxChecked of kept, evenly spaced.
func spreadOut(kept []answered) []answered {
	if len(kept) <= maxChecked {
		return kept
	}
	out := make([]answered, maxChecked)
	for i := range out {
		out[i] = kept[i*len(kept)/maxChecked]
	}
	return out
}

// checkEstimates compares kept answers with the in-process estimate on
// the reference snapshot of their release.
func (e *runEnv) checkEstimates(kept []answered, refs map[string]*release.Snapshot) {
	c := e.res.newCheck("served_equals_inprocess")
	for _, b := range spreadOut(kept) {
		snap := refs[b.id]
		for i, q := range b.qs {
			if snap == nil {
				e.res.compare(c, false, "%s: no reference snapshot", b.id)
				continue
			}
			ok, why := estimateMatches(snap, q, b.res[i])
			e.res.compare(c, ok, "%s query %d: %s", b.id, i, why)
		}
	}
}

// checkGateway re-sends kept gateway answers straight to the nodes, in
// turn, and requires byte-identical answers.
func (e *runEnv) checkGateway(ctx context.Context, kept []answered, direct []*client.Client) {
	c := e.res.newCheck("gateway_equals_direct")
	for i, b := range spreadOut(kept) {
		e.res.attempted.Add(int64(len(b.qs)))
		br, err := direct[i%len(direct)].QueryBatch(ctx, b.id, b.qs)
		if err != nil {
			e.res.compare(c, false, "%s: direct batch failed: %v", b.id, err)
			continue
		}
		got, want := canonical(br.Results), canonical(b.res)
		e.res.compare(c, got == want, "%s: gateway %s, direct %s", b.id, want, got)
	}
}

// probeSet is one release's probe queries and the answers it gave
// before any restart.
type probeSet struct {
	qs   []api.Query
	want string
}

// probe answers a release's probe set through c.
func probe(ctx context.Context, c *client.Client, id string, qs []api.Query) (string, error) {
	br, err := c.QueryBatch(ctx, id, qs)
	if err != nil {
		return "", err
	}
	return canonical(br.Results), nil
}
