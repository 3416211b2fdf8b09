package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/serve"
)

// served-r1-mixed: an in-process cliffguardd with two workers, driven over
// loopback HTTP by a closed loop of two clients. Session k creates a tenant
// (vertica for even k, rowstore for odd k), posts R1 month k mod 13, runs a
// small robust design, polls it to completion, fetches the design and the
// report, and deletes the tenant.
const (
	servedWorkers     = 2
	servedClients     = 2
	servedGamma       = 0.002
	servedSamples     = 12
	servedIterations  = 4
	servedPollEvery   = 5 * time.Millisecond
	servedCycle       = 13  // sessions in one cycle over the R1 months
	servedBlock       = 20  // throughput is the median rate over blocks of this many completions
	heapCheckpointAt  = 120 // sessions completed when heap_mb is taken
	servedHTTPTimeout = 60 * time.Second
)

type servedWorkload struct {
	r1      *r1
	scorers map[string]*designableFilter // per engine kind
	seed    int64
}

func setupServed(r *r1, seed int64) (runner, error) {
	sw := &servedWorkload{r1: r, scorers: map[string]*designableFilter{}, seed: seed}
	for kind, budget := range map[string]int64{engine.KindVertica: serve.DefaultBudgetBytes, engine.KindRowStore: serve.DefaultBudgetBytes} {
		eng, err := engine.Open(engine.Spec{Kind: kind, Schema: r.schema})
		if err != nil {
			return nil, err
		}
		f, err := newDesignableFilter(eng, budget)
		if err != nil {
			return nil, err
		}
		for _, m := range r.set.Months {
			f.slice(m)
		}
		sw.scorers[kind] = f
	}
	return sw, nil
}

func sessionKind(k int) string {
	if k%2 == 0 {
		return engine.KindVertica
	}
	return engine.KindRowStore
}

func (sw *servedWorkload) request(k int) serve.RunRequest {
	return serve.RunRequest{
		Gamma: servedGamma, Samples: servedSamples, Iterations: servedIterations,
		Parallelism: 1, Seed: designSeed(sw.seed, 0, k),
	}
}

// sessionResult is what one session saw.
type sessionResult struct {
	k      int
	end    time.Time
	dur    time.Duration
	polls  int
	design []string // structure keys, sorted
	err    error
}

func (sw *servedWorkload) run(ctx context.Context, seconds float64, tr *tracer, met *obs.Metrics) (*measure, error) {
	srv := serve.NewServer(serve.Config{Workers: servedWorkers, Metrics: met})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: servedClients}
	c := &client{base: "http://" + srv.Addr(), http: &http.Client{Transport: transport, Timeout: servedHTTPTimeout}, tr: tr}

	m := &measure{}
	var (
		next      atomic.Int64
		completed atomic.Int64
		mu        sync.Mutex
		results   []sessionResult
		wg        sync.WaitGroup
	)
	m.beginTimed()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < servedClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Past the deadline, sessions of the first cycle still start:
			// the library comparison below needs all of them.
			for {
				k := int(next.Add(1) - 1)
				if k >= servedCycle && !time.Now().Before(deadline) {
					return
				}
				res := sw.session(ctx, c, k)
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
				if completed.Add(1) == heapCheckpointAt {
					heap := liveHeapMB()
					mu.Lock()
					m.heapMB = heap
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m.elapsed = time.Since(start).Seconds()
	m.finishTimed()
	sdCtx, cancel := context.WithTimeout(ctx, servedHTTPTimeout)
	err := srv.Shutdown(sdCtx)
	cancel()
	transport.CloseIdleConnections()
	if err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}

	sort.Slice(results, func(i, j int) bool { return results[i].k < results[j].k })
	polls := 0
	var ends []time.Time
	for _, r := range results {
		if r.end.Before(deadline) {
			ends = append(ends, r.end)
		}
		m.attempted++
		m.lat = append(m.lat, r.dur.Seconds())
		polls += r.polls
		if r.err != nil {
			m.fail("session %d: %v", r.k, r.err)
		}
	}
	m.units = float64(len(results))
	m.allocUnits = m.units
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	for i := servedBlock; i < len(ends); i += servedBlock {
		m.rates = append(m.rates, servedBlock/ends[i].Sub(ends[i-servedBlock]).Seconds())
	}

	// Outside the timed region: the first cycle's served designs must equal
	// a library StartRun of the same RunSpec; those designs are then scored
	// on the following month.
	var sum float64
	scored := 0
	for _, r := range results {
		if r.k >= servedCycle {
			break
		}
		m.attempted++
		d, err := sw.library(ctx, r.k)
		if err != nil {
			m.fail("session %d library run: %v", r.k, err)
			continue
		}
		if got, want := strings.Join(r.design, ","), strings.Join(designKeys(d), ","); r.err == nil && got != want {
			m.fail("session %d: served design differs from the library run's", r.k)
		}
		if r.k+1 < len(sw.r1.set.Months) {
			avg, err := sw.scorers[sessionKind(r.k)].avgLatency(sw.r1.set.Months[r.k+1], d)
			if err != nil {
				m.fail("scoring session %d: %v", r.k, err)
				continue
			}
			sum += avg
			scored++
		}
	}
	if scored < servedCycle-1 {
		m.fail("only %d sessions of the first cycle were scored", scored)
	}
	m.futureMs = ratio(sum, float64(scored))

	if tr != nil {
		sw.layers(m, tr, met, polls)
	}
	return m, nil
}

// library designs session k's workload through serve.StartRun, the path the
// server itself uses, without HTTP.
func (sw *servedWorkload) library(ctx context.Context, k int) (*designer.Design, error) {
	month := k % servedCycle
	w, _, err := serve.ParseWorkload(sw.r1.schema, strings.NewReader(sw.r1.sql[month]), 1)
	if err != nil {
		return nil, err
	}
	req := sw.request(k)
	h, err := serve.StartRun(ctx, serve.RunSpec{
		Engine:   engine.Spec{Kind: sessionKind(k)},
		Options:  req.Options(),
		Workload: w,
	})
	if err != nil {
		return nil, err
	}
	d, _, err := h.Await(ctx)
	return d, err
}

func designKeys(d *designer.Design) []string {
	keys := make([]string, 0, d.Len())
	for k := range d.Keys() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// session runs one closed-loop session; every span it records is a child of
// its "served.session" span.
func (sw *servedWorkload) session(ctx context.Context, c *client, k int) (res sessionResult) {
	res.k = k
	sctx, sp := c.tr.start(ctx, "served.session")
	t0 := time.Now()
	defer func() {
		res.end = time.Now()
		res.dur = res.end.Sub(t0)
		c.tr.end(ctx, sp)
	}()
	tenant := fmt.Sprintf("s%d", k)
	tenantPath := "/v1/tenants/" + tenant
	body, _ := json.Marshal(serve.TenantSpec{ID: tenant, Engine: serve.EngineSpecWire{Kind: sessionKind(k)}})
	if res.err = c.do(sctx, "http.tenant_create", "POST", "/v1/tenants", "application/json", body, http.StatusCreated, nil); res.err != nil {
		return res
	}
	// Delete the tenant on every path, so a failed session leaves no state.
	defer func() {
		if err := c.do(sctx, "http.tenant_delete", "DELETE", tenantPath, "", nil, http.StatusOK, nil); err != nil && res.err == nil {
			res.err = err
		}
	}()
	var wi serve.WorkloadInfo
	if res.err = c.do(sctx, "http.workload_post", "POST", tenantPath+"/workload", "text/plain", []byte(sw.r1.sql[k%servedCycle]), http.StatusOK, &wi); res.err != nil {
		return res
	}
	body, _ = json.Marshal(sw.request(k))
	var run serve.RunInfo
	if res.err = c.do(sctx, "http.run_submit", "POST", tenantPath+"/runs", "application/json", body, http.StatusAccepted, &run); res.err != nil {
		return res
	}
	runPath := tenantPath + "/runs/" + run.ID
	for !serve.RunStatus(run.Status).Terminal() {
		time.Sleep(servedPollEvery)
		res.polls++
		if res.err = c.do(sctx, "http.run_poll", "GET", runPath, "", nil, http.StatusOK, &run); res.err != nil {
			return res
		}
	}
	if run.Status != string(serve.StatusDone) {
		res.err = fmt.Errorf("run ended %s: %s", run.Status, run.Error)
		return res
	}
	var di serve.DesignInfo
	if res.err = c.do(sctx, "http.design_get", "GET", runPath+"/design", "", nil, http.StatusOK, &di); res.err != nil {
		return res
	}
	for _, s := range di.Structures {
		res.design = append(res.design, s.Key)
	}
	sort.Strings(res.design)
	var report map[string]any
	res.err = c.do(sctx, "http.report_get", "GET", runPath+"/report", "", nil, http.StatusOK, &report)
	return res
}

// layers derives the served per-layer metrics. The server opens its own
// engines, so the design-layer numbers come from its registry: design time
// is the runs' worker time, the designer's busy time is the registry's
// design-latency sum, and evaluation cost-model calls are the shared memo's
// lookups.
func (sw *servedWorkload) layers(m *measure, tr *tracer, met *obs.Metrics, polls int) {
	snap := met.Snapshot()
	var runDur, queueWait time.Duration
	for _, h := range met.TenantRunDuration.Snapshot() {
		runDur += time.Duration(h.SumUs) * time.Microsecond
	}
	for _, h := range met.TenantQueueWait.Snapshot() {
		queueWait += time.Duration(h.SumUs) * time.Microsecond
	}
	shared := snap.Caches[sharedCacheName]
	designerDur := time.Duration(met.DesignLatency.Snapshot().SumUs) * time.Microsecond
	m.designLayers(runDur, designerDur,
		foldTotal{calls: int64(shared.Hits + shared.Misses)},
		foldTotal{calls: int64(snap.SamplerDistanceEvals)}, met)
	m.layer["costmodel.designer_calls"] = ratio(float64(snap.CostModelCalls)-float64(shared.Misses), m.units)

	sessions := tr.totals("served.session").dur.Seconds()
	for _, route := range []string{"tenant_create", "workload_post", "run_submit", "run_poll", "design_get", "report_get", "tenant_delete"} {
		m.layer["serve."+route+"_share"] = ratio(tr.totals("http."+route).dur.Seconds(), sessions)
	}
	m.layer["serve.polls_per_session"] = ratio(float64(polls), m.units)
	m.layer["serve.queue_wait_share"] = ratio(queueWait.Seconds(), sessions)
	m.layer["serve.run_share"] = ratio(runDur.Seconds(), sessions)
}

// client issues the benchmark's /v1 requests, one "http.<route>" span each.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

// do sends one request, requires the wanted status, and decodes the
// envelope's data into out when out is non-nil.
func (c *client) do(ctx context.Context, span, method, path, contentType string, body []byte, want int, out any) error {
	_, sp := c.tr.start(ctx, span)
	defer c.tr.end(ctx, sp)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading the response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("%s %s: decoding the envelope: %w", method, path, err)
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		return fmt.Errorf("%s %s: decoding the data: %w", method, path, err)
	}
	return nil
}
