package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partitionjoin/internal/server"
	"partitionjoin/internal/sql"
	"partitionjoin/internal/storage"
)

// Node is one replicated shard process: a primary server over this shard's
// own slice of the partitioned catalog, plus one replica server per foreign
// primary slice the replication chain assigns here. Replica catalogs are
// built at boot from the same deterministic placement every other node
// computes, so a fresh fleet needs no data movement; /replicate is the
// online path — a streamed partition transfer over the ordinary /query
// NDJSON fabric — used when re-replication must restore R after a shard
// stays down.
//
// Routes, on top of everything the wrapped servers serve:
//
//	POST /replica/<p>/query   fragment against primary p's replica slice
//	GET  /replicas            {shard, replication, primaries, ring_version}
//	POST /replicate           {"primary":p,"from":url,"version":v} — fetch and mount
//	DELETE /replica/<p>       unmount a transferred replica (rejoin cleanup)
//
// Fragment requests may carry X-Ring-Version; a request older than the
// node's current version is redirected with 409 + the node's version, so a
// coordinator acting on a pre-re-replication ring re-resolves instead of
// reading a slice that may have moved.
type Node struct {
	shard, nshards, repl int
	spec                 Spec
	scfg                 server.Config
	httpc                *http.Client

	primary    *server.Server
	primaryCat sql.Catalog

	mu       sync.Mutex
	replicas map[int]*server.Server
	draining bool

	version atomic.Int64

	transfersIn  atomic.Int64 // replicas mounted via /replicate
	transferRows atomic.Int64 // rows received across all transfers
}

// NodeConfig sizes a Node.
type NodeConfig struct {
	// ShardID / ShardCount / Replication place this node in the fleet.
	ShardID, ShardCount, Replication int
	// Vnodes is the ring's virtual-node count (0 = default).
	Vnodes int
	// Server configures every wrapped query server (primary and replicas).
	Server server.Config
	// HTTP is the transfer-fetch transport (nil uses a dedicated client).
	HTTP *http.Client
}

// NewNode partitions the full catalog into this shard's primary slice and
// its boot-time replica slices and wraps each in a query server.
func NewNode(cat sql.Catalog, spec Spec, cfg NodeConfig) (*Node, error) {
	if cfg.ShardID < 0 || cfg.ShardID >= cfg.ShardCount {
		return nil, fmt.Errorf("cluster: shard %d out of range for %d shards", cfg.ShardID, cfg.ShardCount)
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	ring := NewRing(cfg.ShardCount, cfg.Vnodes)
	n := &Node{
		shard: cfg.ShardID, nshards: cfg.ShardCount, repl: cfg.Replication,
		spec: spec, scfg: cfg.Server, httpc: cfg.HTTP,
		replicas: make(map[int]*server.Server),
	}
	n.primaryCat = PartitionCatalog(cat, spec, ring, cfg.ShardID)
	n.primary = server.New(cfg.Server, n.primaryCat)
	for _, p := range BootReplicaPrimaries(cfg.ShardID, cfg.Replication, cfg.ShardCount) {
		n.replicas[p] = server.New(cfg.Server, PartitionCatalog(cat, spec, ring, p))
	}
	return n, nil
}

// Shard returns this node's shard id.
func (n *Node) Shard() int { return n.shard }

// ReplicaPrimaries lists the primary slices currently mounted as replicas,
// sorted.
func (n *Node) ReplicaPrimaries() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int, 0, len(n.replicas))
	for p := range n.replicas {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// RingVersion returns the newest placement version this node has seen.
func (n *Node) RingVersion() int64 { return n.version.Load() }

// BumpRingVersion raises the node's placement version (chaos harnesses use
// it to fabricate a coordinator that missed a re-replication).
func (n *Node) BumpRingVersion(v int64) {
	for {
		cur := n.version.Load()
		if v <= cur || n.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Drain gracefully stops the primary and every replica server.
func (n *Node) Drain(grace time.Duration) bool {
	n.mu.Lock()
	n.draining = true
	reps := make([]*server.Server, 0, len(n.replicas))
	for _, s := range n.replicas {
		reps = append(reps, s)
	}
	n.mu.Unlock()
	clean := n.primary.Drain(grace)
	for _, s := range reps {
		clean = s.Drain(grace) && clean
	}
	return clean
}

// nodeError writes the servers' JSON error envelope shape.
func nodeError(w http.ResponseWriter, status int, msg string, version int64) {
	w.Header().Set("Content-Type", "application/json")
	if version > 0 {
		w.Header().Set("X-Ring-Version", strconv.FormatInt(version, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error       string `json:"error"`
		RingVersion int64  `json:"ring_version,omitempty"`
	}{msg, version})
}

// staleVersion reports whether the request carries a placement version older
// than the node's; such a request must be redirected (409) rather than
// served, because the sender may be routing a slice that has since moved.
func (n *Node) staleVersion(r *http.Request) bool {
	h := r.Header.Get("X-Ring-Version")
	if h == "" {
		return false
	}
	v, err := strconv.ParseInt(h, 10, 64)
	return err == nil && v < n.version.Load()
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/replicas":
		n.handleReplicas(w, r)
	case r.URL.Path == "/replicate":
		n.handleReplicate(w, r)
	case strings.HasPrefix(r.URL.Path, "/replica/"):
		n.handleReplicaPath(w, r)
	default:
		if r.URL.Path == "/query" && n.staleVersion(r) {
			nodeError(w, http.StatusConflict, "cluster: stale ring version", n.version.Load())
			return
		}
		n.primary.ServeHTTP(w, r)
	}
}

// handleReplicaPath routes /replica/<p>/... to the mounted replica server
// for primary p (DELETE /replica/<p> unmounts it).
func (n *Node) handleReplicaPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/replica/")
	pstr, sub, _ := strings.Cut(rest, "/")
	p, err := strconv.Atoi(pstr)
	if err != nil {
		nodeError(w, http.StatusBadRequest, "cluster: bad replica id "+pstr, 0)
		return
	}
	if r.Method == http.MethodDelete && sub == "" {
		n.unmount(w, p)
		return
	}
	n.mu.Lock()
	srv := n.replicas[p]
	n.mu.Unlock()
	if srv == nil {
		// Not mounted here. 404 tells the coordinator "try the next holder"
		// — the chain may be mid-re-replication, or the caller is stale.
		nodeError(w, http.StatusNotFound,
			fmt.Sprintf("cluster: replica %d not mounted on shard %d", p, n.shard), n.version.Load())
		return
	}
	if sub == "query" && n.staleVersion(r) {
		nodeError(w, http.StatusConflict, "cluster: stale ring version", n.version.Load())
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + sub
	srv.ServeHTTP(w, r2)
}

// unmount drains and drops a transferred replica — the rejoin cleanup that
// restores exact-R placement once the original holder is back.
func (n *Node) unmount(w http.ResponseWriter, p int) {
	n.mu.Lock()
	srv := n.replicas[p]
	delete(n.replicas, p)
	n.mu.Unlock()
	if srv == nil {
		nodeError(w, http.StatusNotFound,
			fmt.Sprintf("cluster: replica %d not mounted on shard %d", p, n.shard), 0)
		return
	}
	srv.Drain(5 * time.Second)
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicas reports the node's placement view.
func (n *Node) handleReplicas(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Shard        int    `json:"shard"`
		Replication  int    `json:"replication"`
		Primaries    []int  `json:"primaries"`
		RingVersion  int64  `json:"ring_version"`
		TransfersIn  int64  `json:"transfers_in"`
		TransferRows int64  `json:"transfer_rows"`
		Draining     bool   `json:"draining"`
		State        string `json:"state"`
	}{n.shard, n.repl, n.ReplicaPrimaries(), n.version.Load(),
		n.transfersIn.Load(), n.transferRows.Load(), n.isDraining(), "ok"})
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

// replicateRequest is the re-replication control message: mount primary
// slice p here, fetching its rows from a live holder at From.
type replicateRequest struct {
	Primary int    `json:"primary"`
	From    string `json:"from"` // base URL incl. donor path, e.g. http://host or http://host/replica/2
	Version int64  `json:"version,omitempty"`
}

// handleReplicate performs an online partition transfer: every partitioned
// table's slice for the requested primary streams in over the ordinary
// /query NDJSON fabric and is rebuilt into a fresh catalog (replicated
// tables are shared from the node's own copy — they are identical
// everywhere). Idempotent: re-replicating an already-mounted primary
// answers 200 without refetching.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		nodeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	var req replicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		nodeError(w, http.StatusBadRequest, "bad replicate body: "+err.Error(), 0)
		return
	}
	if req.Primary < 0 || req.Primary >= n.nshards {
		nodeError(w, http.StatusBadRequest, fmt.Sprintf("cluster: no primary %d", req.Primary), 0)
		return
	}
	if n.isDraining() {
		nodeError(w, http.StatusServiceUnavailable, "cluster: node draining", 0)
		return
	}
	if req.Version > 0 {
		n.BumpRingVersion(req.Version)
	}
	n.mu.Lock()
	_, mounted := n.replicas[req.Primary]
	n.mu.Unlock()
	if mounted || req.Primary == n.shard {
		n.writeReplicateOK(w, req.Primary, 0)
		return
	}

	cat := make(sql.Catalog, len(n.spec))
	var rows int64
	for name, d := range n.spec {
		if d.Replicated() {
			cat[name] = n.primaryCat[name]
			continue
		}
		t, fetched, err := n.fetchSlice(r.Context(), req.From, name, d)
		if err != nil {
			nodeError(w, http.StatusBadGateway,
				fmt.Sprintf("cluster: transfer %s from %s: %v", name, req.From, err), 0)
			return
		}
		cat[name] = t
		rows += fetched
	}
	srv := server.New(n.scfg, cat)
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		srv.Drain(time.Second)
		nodeError(w, http.StatusServiceUnavailable, "cluster: node draining", 0)
		return
	}
	if _, raced := n.replicas[req.Primary]; raced {
		n.mu.Unlock()
		srv.Drain(time.Second)
		n.writeReplicateOK(w, req.Primary, 0)
		return
	}
	n.replicas[req.Primary] = srv
	n.mu.Unlock()
	n.transfersIn.Add(1)
	n.transferRows.Add(rows)
	n.writeReplicateOK(w, req.Primary, rows)
}

func (n *Node) writeReplicateOK(w http.ResponseWriter, primary int, rows int64) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Primary     int   `json:"primary"`
		Rows        int64 `json:"rows_transferred"`
		RingVersion int64 `json:"ring_version"`
	}{primary, rows, n.version.Load()})
}

// fetchSlice streams one partitioned table's slice from the donor and
// rebuilds it as a storage table.
func (n *Node) fetchSlice(ctx context.Context, from, table string, d TableDist) (*storage.Table, int64, error) {
	fsql := "SELECT " + strings.Join(d.Cols, ", ") + " FROM " + table
	cols, raw, err := fetchNDJSON(ctx, n.client(), from+"/query", fsql)
	if err != nil {
		return nil, 0, err
	}
	tb, err := rebuildTable(table, []*fragResult{{cols: cols, rows: raw, tries: 1}})
	if err != nil {
		return nil, 0, err
	}
	return tb, int64(len(raw)), nil
}

func (n *Node) client() *http.Client {
	if n.httpc != nil {
		return n.httpc
	}
	return http.DefaultClient
}

// fetchNDJSON posts one streamed query and collects the typed rows, for
// partition transfer. The trailer is required: a stream that ends without
// it cannot be trusted complete.
func fetchNDJSON(ctx context.Context, hc *http.Client, url, fsql string) ([]ColMeta, [][]any, error) {
	resp, err := postStream(ctx, hc, url, fsql)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, server.DecodeError(resp)
	}
	var hdr server.StreamHeader
	var rows [][]any
	err = server.ReadStream(resp.Body, &hdr, func(line []byte) error {
		row, err := decodeRow(line, hdr.Cols)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return hdr.Cols, rows, nil
}
