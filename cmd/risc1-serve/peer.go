package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"risc1/internal/cluster"
	"risc1/internal/exec"
	"risc1/internal/peer"
	"risc1/internal/rcache"
)

// Horizontal serving: N replicas share one logical result cache by
// consistent-hashing every run's content address onto the *live*
// replica set. Each cache key has exactly one home replica; a replica
// that receives a request whose key lives elsewhere forwards it over
// the ordinary v1 contract and relays the home's response verbatim.
// Because run responses are deterministic and id-free (a cache hit is
// byte-identical to a recompute — the invariant the differential tests
// pin), relaying stored bytes is indistinguishable from computing
// locally — and, by the same invariant, computing locally is
// indistinguishable from relaying, which is what makes the failure
// path safe: when a home is down (or a relay fails), the edge simply
// executes the run itself and the client sees identical bytes.
//
// Membership is live (internal/cluster): health probes plus passive
// relay-failure detection move peers between up/down/incompatible, and
// the routing ring is recomputed over up members only. The 502
// peer_unavailable answer is a last resort — reachable only when a
// relay fails after the client itself has gone away — not the response
// to a dead peer.
//
// Hot keys are the exception to single-home placement: once a key's
// request count at a replica crosses the popularity threshold, that
// replica caches the home's response bytes locally (a peer fill) and
// serves subsequent repeats itself — replication for the Zipf head,
// single-home placement for the tail. Membership changes re-home keys,
// so the hot-key cache is purged whenever the ring generation moves.

// PeerHeader marks a request forwarded by another replica. The home
// executes such requests locally (never re-forwards), which both
// terminates routing in one hop and makes ring disagreement during
// membership convergence degrade to extra work instead of a loop.
const PeerHeader = "X-Risc1-Peer"

// RouteHeader reports how this replica placed a synchronous run:
// "local" (this replica is the key's home), "forward" (relayed to the
// home), "replica" (served from this replica's hot-key copy), or
// "fallback" (the home was unreachable; executed locally instead).
const RouteHeader = "X-Risc1-Route"

// codePeerUnavailable is the stable error code for a relay that failed
// after the client's own context ended — the one case where the edge
// can neither relay nor fall back to local execution. 502.
const codePeerUnavailable = "peer_unavailable"

// peering is one replica's view of the replica set.
type peering struct {
	// members is the live membership table: health-probed peers, the
	// routing ring over up members, and the generation counter.
	members *cluster.Membership
	self    string
	// client carries peer fetches; no overall timeout — the forwarded
	// run's own deadline bounds it.
	client *http.Client
	// pop tracks per-key request counts (with decay) to decide which
	// keys are hot enough to replicate.
	pop       *peer.Popularity
	threshold uint64
	// cache holds verbatim response bytes from home replicas, keyed by
	// the same content address as the result cache. Do provides
	// singleflight (concurrent repeats of one key fetch once); Put
	// stores only hot, deterministic responses. Purged whenever the
	// membership generation changes — a ring change re-homes keys, so
	// copies replicated from a departed peer must not keep serving.
	cache *rcache.Cache

	routed    atomic.Uint64 // sync requests whose home is another replica
	localHome atomic.Uint64 // sync requests this replica is home for
	served    atomic.Uint64 // requests executed here on behalf of a peer
	fetches   atomic.Uint64 // relays that reached the home replica
	errors    atomic.Uint64 // relays that failed
	fallbacks atomic.Uint64 // failed relays answered by local execution
	purges    atomic.Uint64 // peer-cache purges on generation change
	lastGen   atomic.Uint64 // membership generation the cache was last valid for
}

// newPeering builds the replica-set view and starts its health prober,
// or returns nil when clustering is off.
func newPeering(cfg ServerConfig, fp cluster.Fingerprint) *peering {
	cc := cfg.Cluster
	if cc == nil {
		return nil
	}
	threshold := cc.HotThreshold
	if threshold == 0 {
		threshold = 8
	}
	cacheBytes := cc.PeerCacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	p := &peering{
		members:   cluster.NewMembership(*cc, fp, &http.Client{}),
		self:      cc.Self,
		client:    &http.Client{},
		pop:       peer.NewPopularity(0, 0),
		threshold: threshold,
		cache:     rcache.New(cacheBytes),
	}
	p.lastGen.Store(p.members.Generation())
	p.members.Start()
	return p
}

// close stops the health prober. Idempotent.
func (p *peering) close() { p.members.Stop() }

// home returns the owning live replica for a key, or "" when the key
// is homed here — because this replica owns it, or because its owner
// is down and the recomputed ring re-homed it here. Ahead of the
// lookup, a membership generation change purges the hot-key cache:
// entries replicated under the old ring may belong to someone else
// now.
func (p *peering) home(key rcache.Key) string {
	p.maybePurge()
	owner := p.members.Ring().Owner(string(key))
	if owner == "" || owner == p.self {
		return ""
	}
	return owner
}

// maybePurge invalidates the peer cache if the membership generation
// moved since the last check. The CAS elects one purger per
// transition; a relay completing mid-purge can re-fill a stale-homed
// entry, which the next transition collects — and whose bytes are
// correct regardless, since responses are content-addressed and
// deterministic.
func (p *peering) maybePurge() {
	gen := p.members.Generation()
	for {
		last := p.lastGen.Load()
		if gen == last {
			return
		}
		if p.lastGen.CompareAndSwap(last, gen) {
			p.cache.Purge()
			p.purges.Add(1)
			return
		}
	}
}

// peerResult is a home replica's response, relayed verbatim.
type peerResult struct {
	status  int
	cache   string // the home's X-Risc1-Cache header
	body    []byte
	outcome string // peerOutcome(body), classified once when fetched
}

// peerRefusal is a home's wire-level rejection of a relay (the
// peer_protocol envelope): not a transient failure but a contract
// mismatch, so it marks the peer incompatible rather than counting
// toward the down threshold.
type peerRefusal struct{ msg string }

func (e *peerRefusal) Error() string { return e.msg }

// serve answers a synchronous run homed on another replica: from the
// local hot-key copy when there is one, otherwise by relaying to the
// home. The route return is the RouteHeader value; the cache return is
// the X-Risc1-Cache value the client sees — a local copy hit is "hit"
// and a shared in-flight relay is "coalesced", exactly what a single
// replica would report for the same repeat, so serial request streams
// read identically at any replica count. A non-nil error means the
// relay failed; the caller reports it to membership via this method's
// own bookkeeping and falls back to local execution.
func (p *peering) serve(ctx context.Context, home string, spec exec.Spec, timeout time.Duration, key rcache.Key) (res *peerResult, route, cacheLabel string, err error) {
	p.routed.Add(1)
	p.members.CountRoute(home)
	hot := p.pop.Bump(string(key)) >= p.threshold

	v, outcome, err := p.cache.Do(ctx, key, func() (any, int64, error) {
		pr, ferr := p.fetch(ctx, home, spec, timeout)
		if ferr != nil {
			return nil, 0, ferr
		}
		if rerr := relayRefusal(pr); rerr != nil {
			return nil, 0, rerr
		}
		// Never stored by Do: replication is Put's decision below,
		// reserved for hot keys with deterministic outcomes.
		return pr, -1, nil
	})
	if err != nil {
		p.errors.Add(1)
		var refusal *peerRefusal
		if errors.As(err, &refusal) {
			p.members.ReportIncompatible(home, refusal.msg)
		} else {
			p.members.ReportRelayFailure(home, err)
		}
		return nil, "forward", "", err
	}
	pr := v.(*peerResult)
	switch outcome {
	case rcache.Hit:
		return pr, "replica", "hit", nil
	case rcache.Coalesced:
		return pr, "forward", "coalesced", nil
	default: // Miss: this request performed the relay.
		p.fetches.Add(1)
		p.members.ReportRelaySuccess(home)
		if hot && peerCacheable(pr) {
			p.cache.Put(key, pr, int64(len(pr.body)))
		}
		return pr, "forward", pr.cache, nil
	}
}

// fetch relays the clamped spec to the home replica under the
// versioned peer wire contract. The body is reconstructed from the
// spec — not echoed from the client — so the home's own clamping is a
// no-op and both replicas compute the same content address.
func (p *peering) fetch(ctx context.Context, home string, spec exec.Spec, timeout time.Duration) (*peerResult, error) {
	opt := spec.Opt
	body, err := json.Marshal(runRequest{
		Schema:    RequestSchemaV1,
		Name:      spec.Name,
		Source:    spec.Source,
		Machine:   spec.Machine,
		Opt:       &opt,
		Fuel:      spec.Fuel,
		TimeoutMS: timeout.Milliseconds(),
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, home+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(PeerHeader, p.self)
	req.Header.Set(cluster.VersionHeader, strconv.Itoa(cluster.ProtocolVersion))
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &peerResult{
		status:  resp.StatusCode,
		cache:   resp.Header.Get(CacheHeader),
		body:    raw,
		outcome: peerOutcome(raw),
	}, nil
}

// relayRefusal classifies a relayed response that must NOT be served
// to the client: a peer_protocol envelope (the home refused our wire
// version — contract mismatch) or a body that is not a v1 response at
// all (a proxy error page, a replica mid-restart). Both are relay
// failures; the caller falls back to local execution. Legitimate v1
// error envelopes — compile_error, deadline, even internal — are the
// home's answer and relay verbatim, exactly as a single replica would
// produce them.
func relayRefusal(pr *peerResult) error {
	switch pr.outcome {
	case "invalid":
		return fmt.Errorf("peer answered status %d with a non-v1 body", pr.status)
	case codePeerProtocol:
		return &peerRefusal{msg: fmt.Sprintf("peer refused relay: %s", bytes.TrimSpace(pr.body))}
	default:
		return nil
	}
}

// peerCacheable reports whether a relayed response may be replicated:
// only deterministic outcomes — ok, compile_error, fuel_exceeded — the
// same set the result cache itself stores. Deadline results, 5xx, and
// backpressure are moments, not facts.
func peerCacheable(pr *peerResult) bool {
	switch pr.outcome {
	case "ok", codeCompileError, codeFuelExceeded:
		return true
	}
	return false
}

// peerOutcome classifies a relayed response body for metrics and
// cacheability: "ok", the error code, or "invalid" when the body is not
// a v1 response. fetch runs it once per relay; the result travels with
// the bytes, so a peer-cache hit decodes nothing.
func peerOutcome(body []byte) string {
	var r struct {
		Status string `json:"status"`
		Error  *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "invalid"
	}
	if r.Error != nil {
		if r.Error.Code == "" {
			return "invalid"
		}
		return r.Error.Code
	}
	return "ok"
}

// PeerStats is a snapshot of the peering counters, exported for tests
// and /metrics.
type PeerStats struct {
	Replicas  int // live ring size (self + up peers)
	Routed    uint64
	LocalHome uint64
	Served    uint64
	Fetches   uint64
	Errors    uint64
	HotKeys   int
}

// PeerStats snapshots the peering layer; the zero value when peering is
// off.
func (s *Server) PeerStats() PeerStats {
	p := s.peering
	if p == nil {
		return PeerStats{}
	}
	return PeerStats{
		Replicas:  len(p.members.Ring().Nodes()),
		Routed:    p.routed.Load(),
		LocalHome: p.localHome.Load(),
		Served:    p.served.Load(),
		Fetches:   p.fetches.Load(),
		Errors:    p.errors.Load(),
		HotKeys:   p.pop.HotKeys(p.threshold),
	}
}

// Prometheus renders the peering counters in the text exposition
// format under the risc1_peer_ prefix.
func (ps PeerStats) Prometheus() string {
	var b bytes.Buffer
	row := func(name, typ string, v any) {
		fmt.Fprintf(&b, "# TYPE risc1_peer_%s %s\nrisc1_peer_%s %v\n", name, typ, name, v)
	}
	row("replicas", "gauge", ps.Replicas)
	row("routed_total", "counter", ps.Routed)
	row("local_home_total", "counter", ps.LocalHome)
	row("served_total", "counter", ps.Served)
	row("fetch_total", "counter", ps.Fetches)
	row("fetch_errors_total", "counter", ps.Errors)
	row("hot_keys", "gauge", ps.HotKeys)
	return b.String()
}
