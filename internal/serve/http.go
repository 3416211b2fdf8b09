package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Route describes one /v1 endpoint: the method+pattern (Go 1.22 ServeMux
// syntax) and the request/response payload type names. The same table both
// registers the mux and feeds `apicheck -routes`, so the api/http.api
// baseline can never drift from what the server actually serves.
type Route struct {
	Method   string `json:"method"`
	Pattern  string `json:"pattern"`
	Request  string `json:"request,omitempty"` // request body type ("" = none, "SQL" = text/plain workload)
	Response string `json:"response"`          // success-envelope data type (or a stream name)
	handler  func(s *Server, w http.ResponseWriter, r *http.Request) error
}

// routes is the /v1 surface. Order is the documentation order; RouteTable
// re-sorts for the baseline diff.
var routes = []Route{
	{Method: "GET", Pattern: "/v1/healthz", Response: "HealthInfo", handler: (*Server).handleHealth},
	{Method: "GET", Pattern: "/v1/readyz", Response: "ReadyInfo", handler: (*Server).handleReady},
	{Method: "GET", Pattern: "/v1/statez", Response: "StateInfo", handler: (*Server).handleState},
	{Method: "GET", Pattern: "/v1/debug/requestz", Response: "RequestzInfo", handler: (*Server).handleRequestz},
	{Method: "GET", Pattern: "/v1/debug/runz", Response: "RunzInfo", handler: (*Server).handleRunz},
	{Method: "GET", Pattern: "/v1/tenants", Response: "TenantList", handler: (*Server).handleTenantList},
	{Method: "POST", Pattern: "/v1/tenants", Request: "TenantSpec", Response: "TenantInfo", handler: (*Server).handleTenantCreate},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}", Response: "TenantInfo", handler: (*Server).handleTenantGet},
	{Method: "DELETE", Pattern: "/v1/tenants/{tenant}", Response: "TenantInfo", handler: (*Server).handleTenantDelete},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/workload", Response: "WorkloadInfo", handler: (*Server).handleWorkloadGet},
	{Method: "POST", Pattern: "/v1/tenants/{tenant}/workload", Request: "SQL", Response: "WorkloadInfo", handler: (*Server).handleWorkloadPost},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs", Response: "RunList", handler: (*Server).handleRunList},
	{Method: "POST", Pattern: "/v1/tenants/{tenant}/runs", Request: "RunRequest", Response: "RunInfo", handler: (*Server).handleRunSubmit},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}", Response: "RunInfo", handler: (*Server).handleRunGet},
	{Method: "DELETE", Pattern: "/v1/tenants/{tenant}/runs/{run}", Response: "RunInfo", handler: (*Server).handleRunCancel},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}/design", Response: "DesignInfo", handler: (*Server).handleRunDesign},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}/trace", Response: "TraceInfo", handler: (*Server).handleRunTrace},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}/events", Response: "events.jsonl", handler: (*Server).handleRunEvents},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}/spans", Response: "spans.jsonl", handler: (*Server).handleRunSpans},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/runs/{run}/report", Response: "Summary", handler: (*Server).handleRunReport},
	{Method: "POST", Pattern: "/v1/tenants/{tenant}/online", Request: "OnlineSpec", Response: "OnlineInfo", handler: (*Server).handleOnlineEnable},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/online", Response: "OnlineInfo", handler: (*Server).handleOnlineGet},
	{Method: "DELETE", Pattern: "/v1/tenants/{tenant}/online", Response: "OnlineInfo", handler: (*Server).handleOnlineDisable},
	{Method: "POST", Pattern: "/v1/tenants/{tenant}/online/observe", Request: "SQL", Response: "ObserveInfo", handler: (*Server).handleOnlineObserve},
	{Method: "POST", Pattern: "/v1/tenants/{tenant}/online/redesign", Response: "OnlineRedesignInfo", handler: (*Server).handleOnlineRedesign},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/online/incumbent", Response: "DesignInfo", handler: (*Server).handleOnlineIncumbent},
	{Method: "GET", Pattern: "/v1/tenants/{tenant}/online/candidate", Response: "OnlineRedesignInfo", handler: (*Server).handleOnlineCandidate},
}

// RouteTable returns the /v1 route table sorted by (pattern, method): the
// machine-readable API surface `apicheck -routes` dumps into api/http.api.
func RouteTable() []Route {
	out := append([]Route(nil), routes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// Handler returns the server's full HTTP handler: the /v1 API plus the
// observability surface (/metrics Prometheus text, /vars expvar JSON) over
// the server's shared registry, all behind the telemetry middleware
// (request IDs, per-route metrics, access log, flight recorder).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		rt := rt
		label := rt.Method + " " + rt.Pattern
		mux.HandleFunc(label, func(w http.ResponseWriter, r *http.Request) {
			st := stateFrom(r.Context())
			if st != nil {
				st.route = label
				st.tenant = r.PathValue("tenant")
			}
			if err := rt.handler(s, w, r); err != nil {
				if st != nil {
					_, st.code = httpStatus(err)
				}
				writeError(w, err)
			}
		})
	}
	obsRoute := func(label string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if st := stateFrom(r.Context()); st != nil {
				st.route = label
			}
			h.ServeHTTP(w, r)
		})
	}
	mux.Handle("GET /metrics", obsRoute("GET /metrics", s.metrics.Handler()))
	fn := s.metrics.ExpvarFunc()
	mux.Handle("GET /vars", obsRoute("GET /vars", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, fn.String())
	})))
	return s.telemetry(mux)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	s.mu.Lock()
	n, draining := len(s.tenants), s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeData(w, http.StatusOK, HealthInfo{Status: status, Tenants: n, Draining: draining})
	return nil
}

// handleReady is the readiness probe: 200 while the server can accept new
// work, 503 with a stable code ("draining" or "saturated") once it cannot,
// so load balancers stop routing before a SIGTERM drain completes.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) error {
	s.mu.Lock()
	draining, queued := s.draining, s.queued
	s.mu.Unlock()
	if draining {
		return errDraining
	}
	if queued >= s.cfg.QueueDepth {
		return errSaturated
	}
	writeData(w, http.StatusOK, ReadyInfo{
		Ready: true, Workers: s.cfg.Workers, QueueDepth: s.cfg.QueueDepth, Queued: queued,
	})
	return nil
}

func (s *Server) handleRequestz(w http.ResponseWriter, r *http.Request) error {
	records, capacity, total, dropped := s.requests.snapshot()
	writeData(w, http.StatusOK, RequestzInfo{
		Capacity: capacity, Total: total, Dropped: dropped, Requests: records,
	})
	return nil
}

func (s *Server) handleRunz(w http.ResponseWriter, r *http.Request) error {
	records, capacity, total, dropped := s.transitions.snapshot()
	writeData(w, http.StatusOK, RunzInfo{
		Capacity: capacity, Total: total, Dropped: dropped, Transitions: records,
	})
	return nil
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) error {
	writeData(w, http.StatusOK, s.stateSnapshot())
	return nil
}

// tenantInfo renders a tenant (without its run list).
func (s *Server) tenantInfo(t *tenant) TenantInfo {
	queries, skipped, _ := t.workloadInfo()
	return TenantInfo{
		ID:        t.id,
		Engine:    EngineSpecWire{Kind: t.spec.Kind, Scale: t.spec.Scale},
		BudgetMiB: t.budgetBytes >> 20,
		Queries:   queries,
		Skipped:   skipped,
	}
}

// runInfo renders a run's lifecycle view.
func (s *Server) runInfo(r *run) RunInfo {
	info := RunInfo{
		ID: r.id, Tenant: r.tenant, Status: string(r.status()),
		RequestID: r.requestID,
		Gamma:     r.req.Gamma, Seed: r.req.Seed,
		Designers: r.req.Designers, Metric: r.req.Metric,
	}
	if err := r.err(); err != nil {
		info.Error = err.Error()
	}
	return info
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) error {
	list := TenantList{Tenants: []TenantInfo{}}
	for _, id := range s.tenantIDs() {
		if t, err := s.Tenant(id); err == nil {
			list.Tenants = append(list.Tenants, s.tenantInfo(t))
		}
	}
	writeData(w, http.StatusOK, list)
	return nil
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) error {
	var spec TenantSpec
	if err := decodeJSON(r.Body, &spec); err != nil {
		return err
	}
	t, err := s.CreateTenant(spec.ID, engineSpec(spec.Engine), spec.BudgetMiB<<20)
	if err != nil {
		return err
	}
	writeData(w, http.StatusCreated, s.tenantInfo(t))
	return nil
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	info := s.tenantInfo(t)
	for _, rid := range t.runIDs() {
		if run, err := t.run(rid); err == nil {
			info.Runs = append(info.Runs, s.runInfo(run))
		}
	}
	writeData(w, http.StatusOK, info)
	return nil
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	info := s.tenantInfo(t)
	if err := s.DeleteTenant(t.id); err != nil {
		return err
	}
	writeData(w, http.StatusOK, info)
	return nil
}

func (s *Server) handleWorkloadGet(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	queries, skipped, templates := t.workloadInfo()
	writeData(w, http.StatusOK, WorkloadInfo{Queries: queries, Skipped: skipped, Templates: templates})
	return nil
}

func (s *Server) handleWorkloadPost(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	if s.Draining() {
		return errDraining
	}
	added, _, err := t.Ingest(r.Body)
	if err != nil {
		return err
	}
	queries, skipped, templates := t.workloadInfo()
	writeData(w, http.StatusOK, WorkloadInfo{Queries: queries, Skipped: skipped, Templates: templates, Added: added})
	return nil
}

func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	list := RunList{Runs: []RunInfo{}}
	for _, rid := range t.runIDs() {
		if run, err := t.run(rid); err == nil {
			list.Runs = append(list.Runs, s.runInfo(run))
		}
	}
	writeData(w, http.StatusOK, list)
	return nil
}

func (s *Server) handleRunSubmit(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	var req RunRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		return err
	}
	run, err := s.submit(t, req, requestIDFrom(r.Context()))
	if err != nil {
		return err
	}
	writeData(w, http.StatusAccepted, s.runInfo(run))
	return nil
}

// lookupRun resolves the {tenant}/{run} path pair.
func (s *Server) lookupRun(r *http.Request) (*run, error) {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	return t.run(r.PathValue("run"))
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) error {
	run, err := s.lookupRun(r)
	if err != nil {
		return err
	}
	writeData(w, http.StatusOK, s.runInfo(run))
	return nil
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) error {
	run, err := s.lookupRun(r)
	if err != nil {
		return err
	}
	run.cancel()
	writeData(w, http.StatusOK, s.runInfo(run))
	return nil
}

// finishedRun resolves a run that must be in a terminal state.
func (s *Server) finishedRun(r *http.Request) (*run, *RunHandle, error) {
	run, err := s.lookupRun(r)
	if err != nil {
		return nil, nil, err
	}
	if !run.status().Terminal() {
		return nil, nil, errConflict(fmt.Errorf("run %q is %s; poll until it finishes", run.id, run.status()))
	}
	h := run.getHandle()
	if h == nil {
		return nil, nil, errConflict(fmt.Errorf("run %q was %s before it started", run.id, run.status()))
	}
	return run, h, nil
}

func (s *Server) handleRunDesign(w http.ResponseWriter, r *http.Request) error {
	_, h, err := s.finishedRun(r)
	if err != nil {
		return err
	}
	d := h.Design()
	if d == nil {
		return errConflict(fmt.Errorf("run produced no design: %v", h.Err()))
	}
	writeData(w, http.StatusOK, designInfo(d))
	return nil
}

func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) error {
	run, h, err := s.finishedRun(r)
	if err != nil {
		return err
	}
	info := TraceInfo{RequestID: run.requestID, Trace: []TracePoint{}}
	for _, tr := range h.Traces() {
		info.Trace = append(info.Trace, TracePoint{
			Iteration: tr.Iteration, Alpha: tr.Alpha,
			WorstCase: tr.WorstCase, CandidateCost: tr.CandidateCost,
			Improved: tr.Improved,
		})
	}
	writeData(w, http.StatusOK, info)
	return nil
}

func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) error {
	_, h, err := s.finishedRun(r)
	if err != nil {
		return err
	}
	stream, err := h.EventsJSONL()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_, _ = w.Write(stream)
	return nil
}

func (s *Server) handleRunSpans(w http.ResponseWriter, r *http.Request) error {
	_, h, err := s.finishedRun(r)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_, _ = w.Write(h.SpansJSONL())
	return nil
}

func (s *Server) handleRunReport(w http.ResponseWriter, r *http.Request) error {
	_, h, err := s.finishedRun(r)
	if err != nil {
		return err
	}
	sum, err := h.Summary()
	if err != nil {
		return err
	}
	writeData(w, http.StatusOK, sum)
	return nil
}

// decodeJSON parses a request body strictly (unknown fields are errors, so
// client typos fail loudly instead of silently meaning "default").
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest(fmt.Errorf("decoding request body: %w", err))
	}
	return nil
}
