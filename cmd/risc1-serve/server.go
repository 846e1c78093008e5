package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"risc1/internal/cc"
	"risc1/internal/cluster"
	"risc1/internal/exec"
	"risc1/internal/fuel"
	"risc1/internal/machine"
	"risc1/internal/obs"
	"risc1/internal/session"
)

// The v1 API contract (documented in docs/API.md): one request schema,
// one response schema, one error envelope with stable machine-readable
// codes. Evolving the contract means minting /v2 identifiers, never
// changing what v1 means.
const (
	// RequestSchemaV1 names the POST /v1/run body. Absent means v1;
	// anything else is rejected with unsupported_schema.
	RequestSchemaV1 = "risc1.run-request/v1"
	// ResponseSchemaV1 is echoed in every response body.
	ResponseSchemaV1 = "risc1.run-response/v1"
	// MachinesResponseSchemaV1 is the body of GET /v1/machines.
	MachinesResponseSchemaV1 = "risc1.machines-response/v1"
)

// Stable error codes. Clients dispatch on these, never on messages.
const (
	codeBadRequest         = "bad_request"         // 400: malformed JSON or invalid field
	codeCompileError       = "compile_error"       // 400: the program does not compile
	codeNotFound           = "not_found"           // 404: unknown job id
	codeSessionNotFound    = "session_not_found"   // 404: unknown or already-closed session
	codeSessionBusy        = "session_busy"        // 409: the session is executing another command
	codeBodyTooLarge       = "body_too_large"      // 413: body past -max-source
	codeUnsupportedSchema  = "unsupported_schema"  // 422: unknown request schema
	codeUnsupportedMachine = "unsupported_machine" // 422: machine name not in the registry
	codeFuelExceeded       = "fuel_exceeded"       // 422: instruction budget exhausted
	codeQueueFull          = "queue_full"          // 429: admission queue full, retry later
	codeInternal           = "internal"            // 500: bug or infrastructure failure
	codeDeadline           = "deadline"            // 504: wall-clock budget exhausted
	// codePeerUnavailable ("peer_unavailable", 502) lives in peer.go with
	// the rest of the replica-routing layer.

	// codePeerProtocol rejects a relayed request whose peer wire version
	// is missing or not ours: replicas speaking different protocols must
	// not relay to each other. 400.
	codePeerProtocol = "peer_protocol"
)

// CacheHeader reports how the result cache handled a synchronous run:
// "hit", "miss", or "coalesced".
const CacheHeader = "X-Risc1-Cache"

// ServerConfig bounds what one request may ask of the service.
type ServerConfig struct {
	// MaxSource caps the request body in bytes; larger requests are
	// rejected with 413 before the body is read in full.
	MaxSource int64
	// MaxFuel caps the per-run instruction budget. Requests asking for
	// more (or for none) are clamped to it.
	MaxFuel uint64
	// MaxTimeout caps the per-run wall-clock deadline; requests asking
	// for more (or for none) are clamped to it.
	MaxTimeout time.Duration
	// MaxInflight caps how many admitted /v1/run requests may hold
	// execution slots at once; <= 0 means 64.
	MaxInflight int
	// MaxQueue caps how many more may wait for a slot before the server
	// answers 429; 0 means 2x MaxInflight, negative means no waiting.
	MaxQueue int
	// CacheBytes budgets the content-addressed result cache; 0 means
	// 256 MiB, negative stores nothing (concurrent identical requests
	// still collapse to one execution).
	CacheBytes int64
	// SessionIdle is how long an untouched debug session survives before
	// it is reaped; <= 0 means session.DefaultIdleTimeout.
	SessionIdle time.Duration

	// Cluster joins this replica to a replica set (schema
	// risc1.cluster-config/v1): health-checked membership, consistent-
	// hash routing of synchronous runs over live members, hot-key
	// replication. Nil means standalone serving.
	Cluster *cluster.Config
}

// Server queues compile+simulate requests on a batch-execution pool
// behind a content-addressed result cache and an admission limiter, and
// serves versioned run reports.
type Server struct {
	cached *exec.Cached
	lim    *limiter
	cfg    ServerConfig

	// sims shares the pool's compiled-program and warm-start image caches
	// with the session subsystem, which builds caller-owned machines
	// outside the worker pool.
	sims *exec.Sims
	mgr  *session.Manager

	// peering is the replica-set view (live membership, consistent-hash
	// routing, hot-key replication), nil when serving standalone.
	peering *peering
	// fp is this replica's capability fingerprint — what the cluster
	// handshake compares, and what GET /v1/cluster advertises (standalone
	// servers advertise it too, so a prospective peer can check
	// compatibility before joining).
	fp cluster.Fingerprint

	// latency is the /v1/run request-latency histogram, labeled by the
	// request's outcome ("ok" or the stable error code) and by how the
	// result cache handled it (hit/miss/coalesced, or "none" when the
	// request never reached the cache).
	latency *obs.HistogramVec

	mu     sync.Mutex
	nextID int
	jobs   map[string]*jobEntry
}

// jobEntry is one accepted async request: done closes when resp is final.
type jobEntry struct {
	done chan struct{}
	resp *runResponse
}

// runRequest is the body of POST /v1/run (schema risc1.run-request/v1).
type runRequest struct {
	// Schema names the request contract; empty means v1.
	Schema string `json:"schema,omitempty"`
	// Name labels the run report; default "serve".
	Name string `json:"name,omitempty"`
	// Source is the MiniC program. It must store its result in the
	// global "result".
	Source string `json:"source"`
	// Machine names a registered simulator backend, canonical or alias
	// (GET /v1/machines lists them); empty means the default, "risc1".
	Machine string `json:"machine,omitempty"`
	// Opt is the compiler optimization level, 0 or 1 (default 1).
	Opt *int `json:"opt,omitempty"`
	// Fuel is the instruction budget; 0 or absent means the server cap.
	Fuel uint64 `json:"fuel,omitempty"`
	// TimeoutMS is the wall-clock budget; 0 or absent means the server cap.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`
	// Async returns 202 immediately; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// apiError is the one error envelope every failure wears: a stable
// machine-readable code plus a human-readable message.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// runResponse is the body of every /v1/run and /v1/jobs reply (schema
// risc1.run-response/v1). Exactly one of Status ("ok" / "pending") or
// Error is set. The report travels as the bytes the result cache
// stored, so writing a response never encodes it again.
type runResponse struct {
	Schema string          `json:"schema"`
	ID     string          `json:"id,omitempty"` // async jobs only
	Status string          `json:"status,omitempty"`
	Value  *int32          `json:"value,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  *apiError       `json:"error,omitempty"`
}

// appendJSON appends the response laid out exactly as
// json.MarshalIndent(r, "", "  ") lays it out, plus a newline: the
// envelope is written by hand and the stored report is spliced in one
// level deeper.
func (r *runResponse) appendJSON(b []byte) []byte {
	b = append(b, "{\n  \"schema\": "...)
	b = obs.AppendJSONString(b, r.Schema)
	if r.ID != "" {
		b = append(b, ",\n  \"id\": "...)
		b = obs.AppendJSONString(b, r.ID)
	}
	if r.Status != "" {
		b = append(b, ",\n  \"status\": "...)
		b = obs.AppendJSONString(b, r.Status)
	}
	if r.Value != nil {
		b = append(b, ",\n  \"value\": "...)
		b = strconv.AppendInt(b, int64(*r.Value), 10)
	}
	if len(r.Report) > 0 {
		b = append(b, ",\n  \"report\": "...)
		// Every newline in the report is structural — encoded JSON
		// strings never hold a raw one — so two spaces after each
		// re-indents it to depth 1.
		rep := bytes.TrimSuffix(r.Report, []byte("\n"))
		for {
			i := bytes.IndexByte(rep, '\n')
			if i < 0 {
				break
			}
			b = append(b, rep[:i+1]...)
			b = append(b, "  "...)
			rep = rep[i+1:]
		}
		b = append(b, rep...)
	}
	if r.Error != nil {
		b = append(b, ",\n  \"error\": {\n    \"code\": "...)
		b = obs.AppendJSONString(b, r.Error.Code)
		b = append(b, ",\n    \"message\": "...)
		b = obs.AppendJSONString(b, r.Error.Message)
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...)
}

// errResponse builds an envelope-only response.
func errResponse(code, format string, args ...any) *runResponse {
	return &runResponse{
		Schema: ResponseSchemaV1,
		Error:  &apiError{Code: code, Message: fmt.Sprintf(format, args...)},
	}
}

// httpStatus maps a response to its HTTP code: the status for
// successes, the error code for failures.
func httpStatus(resp *runResponse) int {
	if resp.Error == nil {
		if resp.Status == "pending" {
			return http.StatusAccepted
		}
		return http.StatusOK
	}
	return statusForCode(resp.Error.Code)
}

// statusForCode maps the stable error codes to HTTP statuses — the one
// table both the run and session envelopes use.
func statusForCode(code string) int {
	switch code {
	case codeBadRequest, codeCompileError, codePeerProtocol:
		return http.StatusBadRequest
	case codeNotFound, codeSessionNotFound:
		return http.StatusNotFound
	case codeSessionBusy:
		return http.StatusConflict
	case codeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case codeUnsupportedSchema, codeUnsupportedMachine, codeFuelExceeded:
		return http.StatusUnprocessableEntity
	case codeQueueFull:
		return http.StatusTooManyRequests
	case codePeerUnavailable:
		return http.StatusBadGateway
	case codeDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// NewServer wires the handlers over pool, fronted by a result cache and
// an admission limiter.
func NewServer(pool *exec.Pool, cfg ServerConfig) *Server {
	if cfg.MaxSource <= 0 {
		cfg.MaxSource = 1 << 20
	}
	if cfg.MaxFuel == 0 {
		cfg.MaxFuel = 1 << 26
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxInflight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	// The fingerprint hashes everything that must agree for replicas to
	// share a cache: the wire protocol, the machine registry, and the
	// caps the server clamps requests against (the clamped values feed
	// the content address, so divergent caps mean divergent keys).
	fp := cluster.NewFingerprint(machine.Names(), cfg.MaxFuel, cfg.MaxTimeout, cfg.MaxSource)
	return &Server{
		cached:  exec.NewCached(pool, cfg.CacheBytes),
		lim:     newLimiter(cfg.MaxInflight, cfg.MaxQueue),
		cfg:     cfg,
		sims:    pool.ImageSims(),
		mgr:     session.NewManager(sessionIdleOrDefault(cfg.SessionIdle)),
		peering: newPeering(cfg, fp),
		fp:      fp,
		latency: obs.NewHistogramVec("risc1_http_request_seconds", "outcome", "cache"),
		jobs:    make(map[string]*jobEntry),
	}
}

// StopCluster ends the membership prober; a no-op when standalone.
// Called on drain, and by tests tearing down replica sets.
func (s *Server) StopCluster() {
	if s.peering != nil {
		s.peering.close()
	}
}

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}", s.handleSessionCommand)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// respBufs recycles response buffers: a cache hit then writes its
// stored report without allocating. Buffers past 64 KiB (reports with
// long depth histograms) are left to the collector rather than pinned.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON writes a /v1/run or /v1/jobs response. It cannot fail: the
// only value encoding/json could refuse, a report with a non-finite
// float, was refused before it reached a response (exec.Cached answers
// it as an uncached run error).
func writeJSON(w http.ResponseWriter, resp *runResponse) {
	bp := respBufs.Get().(*[]byte)
	b := resp.appendJSON((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(resp))
	w.Write(b) // a Writer never retains p, so the buffer is free again
	if cap(b) <= 64<<10 {
		*bp = b
		respBufs.Put(bp)
	}
}

// outcomeLabel is the histogram's outcome label value for a response:
// "ok" for successes, the stable error code otherwise.
func outcomeLabel(resp *runResponse) string {
	if resp.Error != nil {
		return resp.Error.Code
	}
	return "ok"
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// observe records the request in the latency histogram. Requests
	// that fail before reaching the result cache carry cache="none";
	// async requests are observed once, at job completion, under the
	// job's real outcome (the interim 202 is not a run outcome).
	observe := func(resp *runResponse, cache string) {
		s.latency.Observe(time.Since(start), outcomeLabel(resp), cache)
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSource)
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		var resp *runResponse
		if errors.As(err, &tooBig) {
			resp = errResponse(codeBodyTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxSource)
		} else {
			resp = errResponse(codeBadRequest, "invalid JSON: %v", err)
		}
		observe(resp, "none")
		writeJSON(w, resp)
		return
	}
	if req.Schema != "" && req.Schema != RequestSchemaV1 {
		resp := errResponse(codeUnsupportedSchema,
			"unknown request schema %q; this server speaks %q", req.Schema, RequestSchemaV1)
		observe(resp, "none")
		writeJSON(w, resp)
		return
	}
	if req.Source == "" {
		resp := errResponse(codeBadRequest, "missing source")
		observe(resp, "none")
		writeJSON(w, resp)
		return
	}

	spec, timeout, errResp := s.specFor(req)
	if errResp != nil {
		observe(errResp, "none")
		writeJSON(w, errResp)
		return
	}

	// A request relayed by a peer replica was already admitted at the
	// replica the client hit — it bypasses this limiter (each client
	// request consumes exactly one admission slot fleet-wide) and always
	// executes here, never re-forwards. The relay must carry our peer
	// wire version: replicas speaking a different protocol (or none)
	// are refused with the stable peer_protocol envelope, which the
	// sending replica reads as "mark me incompatible".
	if r.Header.Get(PeerHeader) != "" {
		if v := r.Header.Get(cluster.VersionHeader); v != strconv.Itoa(cluster.ProtocolVersion) {
			resp := errResponse(codePeerProtocol,
				"peer wire version %q not supported; this replica speaks %d", v, cluster.ProtocolVersion)
			observe(resp, "none")
			writeJSON(w, resp)
			return
		}
	}
	forwarded := s.peering != nil && r.Header.Get(PeerHeader) != ""
	if forwarded {
		s.peering.served.Add(1)
	}

	release := func() {}
	if !forwarded {
		// Admission control: take an execution slot or join the bounded
		// queue; a full queue is backpressure the client can act on.
		var err error
		release, err = s.lim.acquire(r.Context())
		if err != nil {
			if errors.Is(err, errQueueFull) {
				resp := errResponse(codeQueueFull,
					"server at capacity (%d running, %d queued); retry later",
					s.cfg.MaxInflight, s.cfg.MaxQueue)
				observe(resp, "none")
				w.Header().Set("Retry-After", "1")
				writeJSON(w, resp)
			}
			// Otherwise the client hung up while waiting; nothing to write.
			return
		}
	}

	if req.Async {
		s.mu.Lock()
		s.nextID++
		id := fmt.Sprintf("job-%06d", s.nextID)
		entry := &jobEntry{done: make(chan struct{})}
		s.jobs[id] = entry
		s.mu.Unlock()
		// The job outlives the HTTP request: it runs under the pool's
		// lifetime, bounded by its own wall-clock budget, and keeps its
		// admission slot until it finishes.
		go func() {
			defer release()
			cr, outcome, err := s.cached.Run(context.Background(), spec, timeout)
			entry.resp = respFor(id, cr, err)
			observe(entry.resp, string(outcome))
			close(entry.done)
		}()
		writeJSON(w, &runResponse{Schema: ResponseSchemaV1, ID: id, Status: "pending"})
		return
	}

	defer release()

	// Replica routing: a synchronous run whose content address is homed
	// on another live replica is answered by that replica (or by a
	// local hot-key copy of its answer). Relayed requests (forwarded
	// above) never route again. Async runs always execute locally —
	// their responses carry replica-local job ids, so relaying them
	// would break the "poll where you posted" contract.
	//
	// A failed relay falls back to local execution: responses are
	// deterministic and id-free, so the client receives bytes identical
	// to the home's answer while the failure feeds the passive detector
	// (after enough of them the peer leaves the ring and routing stops
	// selecting it). The 502 peer_unavailable envelope is the last
	// resort, reachable only when the client itself is gone.
	if s.peering != nil && !forwarded {
		key := spec.CacheKey(timeout)
		if home := s.peering.home(key); home != "" {
			pr, route, cacheLabel, err := s.peering.serve(r.Context(), home, spec, timeout, key)
			if err == nil {
				w.Header().Set(RouteHeader, route)
				w.Header().Set(CacheHeader, cacheLabel)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(pr.status)
				w.Write(pr.body)
				s.latency.Observe(time.Since(start), pr.outcome, cacheLabel)
				return
			}
			if r.Context().Err() != nil {
				w.Header().Set(RouteHeader, route)
				resp := errResponse(codePeerUnavailable,
					"replica %s (home for this run) is unreachable: %v", home, err)
				observe(resp, "none")
				writeJSON(w, resp)
				return
			}
			s.peering.fallbacks.Add(1)
			w.Header().Set(RouteHeader, "fallback")
		} else {
			s.peering.localHome.Add(1)
			w.Header().Set(RouteHeader, "local")
		}
	}

	// Synchronous path, through the content-addressed cache: identical
	// in-flight requests collapse to one engine execution, repeats are
	// served from memory, and the header says which happened. The run
	// itself is deliberately not bound to r.Context(): a client that
	// hangs up must not fail the computation for coalesced followers.
	cr, outcome, err := s.cached.Run(context.Background(), spec, timeout)
	w.Header().Set(CacheHeader, string(outcome))
	resp := respFor("", cr, err)
	observe(resp, string(outcome))
	writeJSON(w, resp)
}

// specFor validates and clamps a request into an exec.Spec.
func (s *Server) specFor(req runRequest) (exec.Spec, time.Duration, *runResponse) {
	opt := 1
	if req.Opt != nil {
		opt = *req.Opt
	}
	if err := cc.CheckOpt(opt); err != nil {
		return exec.Spec{}, 0, errResponse(codeBadRequest, "%v", err)
	}
	name, err := machine.Canonical(req.Machine)
	if err != nil {
		return exec.Spec{}, 0, errResponse(codeUnsupportedMachine, "%v", err)
	}
	fuel := req.Fuel
	if fuel == 0 || fuel > s.cfg.MaxFuel {
		fuel = s.cfg.MaxFuel
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 || timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	reqName := req.Name
	if reqName == "" {
		reqName = "serve"
	}
	return exec.Spec{
		Name:    reqName,
		Machine: name,
		Source:  req.Source,
		Opt:     opt,
		// Ask for delay slots unconditionally; backends without them
		// normalize the knob away, so this only reaches the RISC assembler.
		DelaySlots: true,
		Fuel:       fuel,
	}, timeout, nil
}

// respFor classifies a finished (or cached) run into the response
// vocabulary. infraErr is a failure of the serving machinery itself
// (pool closed), distinct from the run's own outcome in cr.Err.
func respFor(id string, cr exec.CachedResult, infraErr error) *runResponse {
	if infraErr != nil {
		resp := errResponse(codeInternal, "%v", infraErr)
		resp.ID = id
		return resp
	}
	resp := &runResponse{Schema: ResponseSchemaV1, ID: id}
	switch {
	case cr.Err == nil:
		resp.Status = "ok"
		resp.Value = &cr.Value
		resp.Report = cr.Report
	case errors.As(cr.Err, new(*exec.CompileError)):
		resp.Error = &apiError{Code: codeCompileError, Message: cr.Err.Error()}
	case errors.Is(cr.Err, fuel.ErrExhausted):
		resp.Error = &apiError{Code: codeFuelExceeded, Message: cr.Err.Error()}
	case errors.Is(cr.Err, context.DeadlineExceeded):
		resp.Error = &apiError{Code: codeDeadline, Message: "simulation deadline exceeded"}
	case errors.As(cr.Err, new(*exec.PanicError)):
		resp.Error = &apiError{Code: codeInternal, Message: "internal error: job panicked"}
	default:
		resp.Error = &apiError{Code: codeInternal, Message: cr.Err.Error()}
	}
	return resp
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	entry, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, errResponse(codeNotFound, "no job %q", id))
		return
	}
	select {
	case <-entry.done:
		writeJSON(w, entry.resp)
	default:
		writeJSON(w, &runResponse{Schema: ResponseSchemaV1, ID: id, Status: "pending"})
	}
}

// machineInfo is one registry entry on the wire.
type machineInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description,omitempty"`
	Default     bool     `json:"default,omitempty"`
}

// machinesResponse is the body of GET /v1/machines (schema
// risc1.machines-response/v1).
type machinesResponse struct {
	Schema   string        `json:"schema"`
	Machines []machineInfo `json:"machines"`
}

// handleMachines lists the registered simulator backends in registration
// order: the canonical names a request's machine field accepts, their
// aliases, and which one an empty field means.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	resp := machinesResponse{Schema: MachinesResponseSchemaV1}
	for _, b := range machine.Machines() {
		resp.Machines = append(resp.Machines, machineInfo{
			Name:        b.Name,
			Aliases:     b.Aliases,
			Description: b.Description,
			Default:     b.Name == machine.DefaultName,
		})
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handleCluster serves the cluster membership document (schema
// risc1.cluster-response/v1): every configured member with its state,
// health counters and probed fingerprint, plus the membership
// generation. It doubles as the health probe and capability handshake —
// peers GET it to check liveness and fingerprint compatibility. A
// standalone server answers too (generation 0, members only itself), so
// tooling can treat every risc1-serve uniformly.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var resp cluster.Response
	if s.peering != nil {
		resp = s.peering.members.Snapshot()
	} else {
		resp = cluster.Response{Schema: cluster.ResponseSchema, Fingerprint: s.fp}
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleMetrics exports every layer's gauges and counters in the
// Prometheus text exposition format: the pool, the level-2 result
// cache, the level-1 compiled-program cache, the warm-start image
// cache, the admission limiter, the session manager (live sessions,
// stream events and drops), and the /v1/run latency histogram.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pool := s.cached.Pool()
	fmt.Fprint(w, pool.Stats().Prometheus())
	fmt.Fprint(w, s.cached.Stats().Prometheus("risc1_rcache"))
	fmt.Fprint(w, pool.ProgramCacheStats().Prometheus("risc1_progcache"))
	fmt.Fprint(w, pool.ImageCacheStats().Prometheus("risc1_imgcache"))
	fmt.Fprint(w, s.lim.Stats().Prometheus("risc1_http"))
	fmt.Fprint(w, s.mgr.Stats().Prometheus("risc1_session"))
	if s.peering != nil {
		fmt.Fprint(w, s.PeerStats().Prometheus())
		fmt.Fprint(w, s.peering.cache.Stats().Prometheus("risc1_peercache"))
		fmt.Fprint(w, s.ClusterStats().Prometheus())
	}
	fmt.Fprint(w, s.latency.Prometheus())
}

// CacheStats exposes the result cache for tests and tools.
func (s *Server) CacheStats() obs.CacheStats { return s.cached.Stats() }

// PeerCacheStats exposes the hot-key peer-response cache for tests and
// tools; the zero value when peering is off.
func (s *Server) PeerCacheStats() obs.CacheStats {
	if s.peering == nil {
		return obs.CacheStats{}
	}
	return s.peering.cache.Stats()
}

// LimiterStats exposes the admission limiter for tests and tools.
func (s *Server) LimiterStats() obs.LimiterStats { return s.lim.Stats() }

// ClusterStats merges the membership gauges with the serve-layer
// counters (local fallbacks, generation-change cache purges); the zero
// value when standalone.
func (s *Server) ClusterStats() obs.ClusterStats {
	p := s.peering
	if p == nil {
		return obs.ClusterStats{}
	}
	cs := p.members.Stats()
	cs.Fallbacks = p.fallbacks.Load()
	cs.CachePurges = p.purges.Load()
	return cs
}
