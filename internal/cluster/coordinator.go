package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/core"
	"partitionjoin/internal/plan"
	"partitionjoin/internal/server"
	"partitionjoin/internal/sql"
)

// Config sizes a Coordinator. Zero values select the documented defaults.
type Config struct {
	// Shards are the shard node base URLs, indexed by shard id. Shard i
	// must serve the catalog PartitionCatalog builds for id i under the
	// same Spec and shard count.
	Shards []string
	// Spec is the cluster's partitioning scheme (BuildSpec/TPCHSpec).
	Spec Spec
	// Vnodes is the ring's virtual-node count per shard (0 = default).
	Vnodes int
	// HTTP is the fabric transport (nil uses a dedicated client).
	HTTP *http.Client

	// FragmentTimeout bounds one fragment attempt; a query deadline
	// tighter than this wins, because the attempt context descends from
	// the query context (0 = 30s).
	FragmentTimeout time.Duration
	// MaxRetries is how many times an idempotent fragment is re-dispatched
	// after its first failure (0 = 3; negative = no retries).
	MaxRetries int
	// RetryBase/RetryCap shape the jittered exponential backoff between
	// attempts (0 = 25ms base, 1s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold consecutive fragment failures open a shard's
	// circuit breaker for BreakerCooloff (0 = 3 failures, 2s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// ProbeInterval is the health prober period (0 = 500ms; negative
	// disables the prober — tests drive states directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (0 = 500ms).
	ProbeTimeout time.Duration
	// DownAfter consecutive failed probes mark a shard Down (0 = 3).
	DownAfter int

	// Replication is the partition placement factor R: each primary slice
	// is also held by its R-1 id-successor shards, and fragments fail over
	// down that chain transparently (0 or 1 = single-owner placement, no
	// failover). The shard fleet must be booted with the same factor
	// (cluster.NewNode / joind -replication).
	Replication int
	// RereplicateAfter is the grace window after which a shard still Down
	// has its primary slices re-replicated onto new holders to restore R
	// (0 = never; requires the prober and Replication > 1).
	RereplicateAfter time.Duration

	// Broker, when set, admits queries before any fragment is dispatched;
	// the reservation is held until the merged result is delivered. The
	// coordinator does not close it.
	Broker *admit.Broker
	// MemBudget is the default admission request in bytes.
	MemBudget int64
	// Timeout is the default per-query deadline (0 = none).
	Timeout time.Duration
	// Workers/Core/SpillDir configure local execution of the gather
	// (shuffle) path, which joins fetched rows on the coordinator.
	Workers  int
	Core     core.Config
	SpillDir string
}

func (cfg *Config) applyDefaults() {
	if cfg.FragmentTimeout == 0 {
		cfg.FragmentTimeout = 30 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooloff <= 0 {
		cfg.BreakerCooloff = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Shards) {
		cfg.Replication = len(cfg.Shards)
	}
	if cfg.Core == (core.Config{}) {
		cfg.Core = core.DefaultConfig()
	}
}

// Mode classifies how a query was executed across the cluster.
type Mode string

const (
	// ModeReplicated: every table is replicated; one healthy shard runs
	// the whole query.
	ModeReplicated Mode = "replicated"
	// ModeColocated: every partitioned table hashes on the join key (or
	// only one partitioned table is involved); the query scatters as-is
	// and partials merge. Replicated sides join broadcast-style in place.
	ModeColocated Mode = "colocated"
	// ModeRouted: co-located plus a partition-key point/range predicate —
	// the router pruned the scatter to the owning shard subset.
	ModeRouted Mode = "routed"
	// ModeGather: the shuffle regime — misaligned partitioned sides are
	// fetched to the coordinator, which pays the network cost the paper's
	// partitioning question becomes at cluster scale, and joined locally.
	ModeGather Mode = "gather"
)

// ErrDraining is the query edge's drain error (server.ErrDraining): a
// draining coordinator's refusal, and the cancel cause of queries still
// running when its drain grace expires.
var ErrDraining = server.ErrDraining

// Coordinator plans and executes distributed queries over the shard fleet.
// Construct with New, serve it as an http.Handler (or call Query directly),
// end it with Drain.
type Coordinator struct {
	cfg    Config
	shards []*shard
	ring   *Ring
	mux    *http.ServeMux
	edge   *server.Edge
	bg     sync.WaitGroup // the prober

	queryID      atomic.Int64
	retries      atomic.Int64
	gatheredRows atomic.Int64
	modeCounts   [4]atomic.Int64 // replicated, colocated, routed, gather

	failoverAttempts atomic.Int64 // fragments moved to a later chain holder
	failoverSuccess  atomic.Int64 // fragments completed on a non-primary holder
	reroutes         atomic.Int64 // holders skipped without an attempt (Down/breaker/unmounted)
	rereplications   atomic.Int64 // slices moved to new holders to restore R
	restores         atomic.Int64 // compensating mounts dismantled after a rejoin

	// placementMu guards extras: per primary slice, the re-replicated
	// holders appended to the base chain, each tagged with the dead shard
	// it compensates so a rejoin can dismantle exactly its mounts.
	placementMu sync.Mutex
	extras      map[int][]extraReplica
}

// extraReplica is one re-replicated mount: primary slice data held by a
// shard outside the base chain, compensating for a dead chain member.
type extraReplica struct {
	shard    int // the holder
	forShard int // the Down chain member it stands in for
}

// New builds a coordinator over the configured shard fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if len(cfg.Spec) == 0 {
		return nil, errors.New("cluster: no partitioning spec configured")
	}
	cfg.applyDefaults()
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(len(cfg.Shards), cfg.Vnodes),
		edge:   server.NewEdge(0),
		extras: make(map[int][]extraReplica),
	}
	for i, addr := range cfg.Shards {
		sh := &shard{id: i, addr: addr}
		sh.breaker.threshold = cfg.BreakerThreshold
		sh.breaker.cooloff = cfg.BreakerCooloff
		c.shards = append(c.shards, sh)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/query", c.handleQuery)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/statsz", c.handleStatsz)
	if cfg.ProbeInterval > 0 {
		c.bg.Add(1)
		go c.prober()
	}
	return c, nil
}

func (c *Coordinator) httpClient() *http.Client {
	if c.cfg.HTTP != nil {
		return c.cfg.HTTP
	}
	return http.DefaultClient
}

// Ring exposes the router for harnesses asserting rebalance behaviour.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Broker exposes the admission broker (nil when unarbitrated).
func (c *Coordinator) Broker() *admit.Broker { return c.cfg.Broker }

// Drain gracefully stops the coordinator through its edge's drain gate
// (see server.Edge.Drain), then stops the prober; it returns whether the
// drain was clean.
func (c *Coordinator) Drain(grace time.Duration) bool {
	clean := c.edge.Drain(grace)
	c.bg.Wait()
	return clean
}

// Stats is one query's distributed-execution summary.
type Stats struct {
	Mode         Mode          `json:"mode"`
	Shards       int           `json:"shards"`
	Fragments    int           `json:"fragments"`
	Retries      int           `json:"retries"`
	Failovers    int           `json:"failovers,omitempty"`
	GatheredRows int64         `json:"gathered_rows,omitempty"`
	Duration     time.Duration `json:"-"`
	DurationMS   float64       `json:"duration_ms"`
}

// ColMeta describes one result column.
type ColMeta = server.ColMeta

// Result is a merged distributed query result. Row values are int64,
// float64, or string by column type.
type Result struct {
	QueryID string
	Cols    []ColMeta
	Rows    [][]any
	Stats   Stats
}

// aliasInfo resolves one FROM entry against the spec.
type aliasInfo struct {
	alias string
	table string
	dist  TableDist
}

// resolveAliases maps the statement's FROM list onto the spec.
func (c *Coordinator) resolveAliases(stmt *sql.SelectStmt) (map[string]*aliasInfo, []*aliasInfo, error) {
	byAlias := make(map[string]*aliasInfo, len(stmt.From))
	var order []*aliasInfo
	for _, f := range stmt.From {
		d, ok := c.cfg.Spec[f.Table]
		if !ok {
			return nil, nil, fmt.Errorf("cluster: unknown table %q", f.Table)
		}
		ai := &aliasInfo{alias: f.Alias, table: f.Table, dist: d}
		if _, dup := byAlias[f.Alias]; dup {
			return nil, nil, fmt.Errorf("cluster: duplicate alias %q", f.Alias)
		}
		byAlias[f.Alias] = ai
		order = append(order, ai)
	}
	return byAlias, order, nil
}

// resolveQualifier finds the alias a column reference belongs to: its
// explicit qualifier, or the unique table whose schema carries the column.
func resolveQualifier(col sql.ColRefAST, byAlias map[string]*aliasInfo) (*aliasInfo, error) {
	if col.Qualifier != "" {
		ai := byAlias[col.Qualifier]
		if ai == nil {
			return nil, fmt.Errorf("cluster: unknown alias %q", col.Qualifier)
		}
		return ai, nil
	}
	var found *aliasInfo
	for _, ai := range byAlias {
		for _, cn := range ai.dist.Cols {
			if cn == col.Column {
				if found != nil && found != ai {
					return nil, fmt.Errorf("cluster: ambiguous column %q", col.Column)
				}
				found = ai
			}
		}
	}
	if found == nil {
		return nil, fmt.Errorf("cluster: unknown column %q", col.Column)
	}
	return found, nil
}

// chainFor builds a fragment's failover chain for one primary slice: the
// primary itself (served at its node's root /query), the R-1 ring-successor
// replicas (served under /replica/<p>), then any re-replicated extras.
func (c *Coordinator) chainFor(primary int) fragTarget {
	base := ReplicaChain(primary, c.cfg.Replication, len(c.shards))
	ft := fragTarget{primary: primary, holders: make([]holder, 0, len(base))}
	for _, s := range base {
		path := ""
		if s != primary {
			path = fmt.Sprintf("/replica/%d", primary)
		}
		ft.holders = append(ft.holders, holder{sh: c.shards[s], path: path})
	}
	c.placementMu.Lock()
	for _, e := range c.extras[primary] {
		ft.holders = append(ft.holders, holder{sh: c.shards[e.shard], path: fmt.Sprintf("/replica/%d", primary)})
	}
	c.placementMu.Unlock()
	return ft
}

// allTargets is the partitioned scatter set: one failover chain per primary
// slice. Liveness is the chain's problem now, not routing's — a scatter
// always covers every slice, and a slice with no live holder surfaces the
// typed double-fault.
func (c *Coordinator) allTargets() []fragTarget {
	out := make([]fragTarget, len(c.shards))
	for i := range c.shards {
		out[i] = c.chainFor(i)
	}
	return out
}

// replicatedTarget builds the chain of a replicated-only query: every shard
// holds the full tables, so the preferred healthy pick leads and every
// other shard is a fallback at its root path.
func (c *Coordinator) replicatedTarget() fragTarget {
	ft := fragTarget{primary: -1}
	first := c.pickHealthy()
	if first != nil {
		ft.primary = first.id
		ft.holders = append(ft.holders, holder{sh: first})
	}
	for _, sh := range c.shards {
		if first == nil || sh.id != first.id {
			ft.holders = append(ft.holders, holder{sh: sh})
		}
	}
	if ft.primary < 0 && len(ft.holders) > 0 {
		ft.primary = ft.holders[0].sh.id
	}
	return ft
}

// classify decides the distributed execution mode and, for scatter modes,
// the per-slice failover chains to touch.
func (c *Coordinator) classify(stmt *sql.SelectStmt) (Mode, []fragTarget, error) {
	byAlias, order, err := c.resolveAliases(stmt)
	if err != nil {
		return "", nil, err
	}
	var parts []*aliasInfo
	for _, ai := range order {
		if !ai.dist.Replicated() {
			parts = append(parts, ai)
		}
	}
	if len(parts) == 0 {
		ft := c.replicatedTarget()
		if len(ft.holders) == 0 {
			return ModeReplicated, nil, c.noShardErr()
		}
		return ModeReplicated, []fragTarget{ft}, nil
	}

	// Co-location: every partitioned alias's partition key must sit in one
	// equivalence class of the equality join conditions. A single
	// partitioned alias is trivially co-located; replicated sides join
	// broadcast-style wherever the scatter lands.
	if len(parts) > 1 {
		uf := newUnionFind()
		for _, cond := range stmt.Where {
			if !cond.IsJoin || cond.Op != "=" {
				continue
			}
			l, lerr := resolveQualifier(cond.Left, byAlias)
			r, rerr := resolveQualifier(cond.Right, byAlias)
			if lerr != nil || rerr != nil {
				continue
			}
			uf.union(l.alias+"."+cond.Left.Column, r.alias+"."+cond.Right.Column)
		}
		root := uf.find(parts[0].alias + "." + parts[0].dist.Key)
		for _, ai := range parts[1:] {
			if uf.find(ai.alias+"."+ai.dist.Key) != root {
				return ModeGather, nil, nil // misaligned: the shuffle regime
			}
		}
	}

	// Partition-key routing: an equality (or, for range-partitioned
	// tables, a range) predicate on a partition key prunes the scatter.
	targets := c.allTargets()
	mode := ModeColocated
	if sub := c.routedSubset(stmt, byAlias, parts); sub != nil {
		targets = sub
		mode = ModeRouted
	}
	if len(targets) == 0 {
		return mode, nil, c.noShardErr()
	}
	return mode, targets, nil
}

// routedSubset returns the slice subset a partition-key predicate pins the
// query to, or nil when no such predicate exists.
func (c *Coordinator) routedSubset(stmt *sql.SelectStmt, byAlias map[string]*aliasInfo, parts []*aliasInfo) []fragTarget {
	for _, cond := range stmt.Where {
		if cond.IsJoin || cond.IsStr {
			continue
		}
		ai, err := resolveQualifier(cond.Left, byAlias)
		if err != nil || ai.dist.Replicated() || cond.Left.Column != ai.dist.Key {
			continue
		}
		switch cond.Op {
		case "=":
			var id int
			if len(ai.dist.Bounds) > 0 {
				id = NewRangeRouter(ai.dist.Bounds).Owner(cond.Num)
			} else {
				id = c.ring.OwnerKey(cond.Num)
			}
			return []fragTarget{c.chainFor(id)}
		case "between":
			if len(ai.dist.Bounds) == 0 {
				continue // hash placement cannot prune a range
			}
			ids := NewRangeRouter(ai.dist.Bounds).Owners(cond.Num, cond.Num2)
			out := make([]fragTarget, len(ids))
			for i, id := range ids {
				out[i] = c.chainFor(id)
			}
			return out
		}
	}
	return nil
}

// pickHealthy chooses one shard for a replicated-only query, preferring Up
// over Degraded and spreading load round-robin.
func (c *Coordinator) pickHealthy() *shard {
	now := time.Now()
	start := int(c.queryID.Load())
	var degraded *shard
	for i := 0; i < len(c.shards); i++ {
		sh := c.shards[(start+i)%len(c.shards)]
		if !sh.available(now) {
			continue
		}
		if sh.State() == Up {
			return sh
		}
		if degraded == nil {
			degraded = sh
		}
	}
	return degraded
}

// noShardErr is the typed failure when routing finds no usable shard.
func (c *Coordinator) noShardErr() error {
	return &ShardUnavailableError{
		Shard: -1, Addr: "(none)", RetryAfter: c.unavailableRetryAfter(),
		Err: errors.New("no healthy shard"),
	}
}

// unavailableRetryAfter is the honest Retry-After of a double-fault: with
// the prober running, a recovered shard is re-marked reachable within one
// probe round plus its timeout — any sooner retry would hit the same Down
// verdict. Without a prober the breaker cooloff is the recheck horizon.
func (c *Coordinator) unavailableRetryAfter() time.Duration {
	if c.cfg.ProbeInterval > 0 {
		return c.cfg.ProbeInterval + c.cfg.ProbeTimeout
	}
	return c.cfg.BreakerCooloff
}

// Query plans and executes one distributed query. qid may be empty (one is
// generated); it is propagated to every fragment for cross-node log
// correlation. Admission, when configured, spans the whole distributed
// execution.
func (c *Coordinator) Query(ctx context.Context, sqlText, qid string) (*Result, error) {
	return c.query(ctx, sqlText, server.QueryID(qid, "c", &c.queryID))
}

// query executes one numbered query. Drain participation lives here, not
// in the HTTP handler, so embedded (in-process) callers are counted
// in flight and cancelled by an unclean drain too.
func (c *Coordinator) query(ctx context.Context, sqlText, qid string) (*Result, error) {
	ctx, done, err := c.edge.Enter(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	start := time.Now()

	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}

	var rsv *admit.Reservation
	if c.cfg.Broker != nil {
		var actx context.Context
		rsv, actx, err = c.cfg.Broker.Admit(ctx, c.cfg.MemBudget)
		if err != nil {
			return nil, err
		}
		defer rsv.Release()
		ctx = actx
	}

	mode, targets, err := c.classify(stmt)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch {
	case mode == ModeGather:
		res, err = c.gatherExecute(ctx, stmt, qid, rsv)
	case len(targets) == 1:
		// One shard holds everything the query needs (all-replicated, or
		// routed to the partition key's owner): run it whole, no merge.
		res, err = c.passthrough(ctx, stmt, targets[0], qid)
	default:
		res, err = c.scatterMerge(ctx, stmt, targets, qid)
		if errors.Is(err, errNotMergeable) {
			// A shape the merge cannot reassemble (e.g. ORDER BY a column
			// outside the output): fall back to fetching rows and executing
			// locally, which supports everything single-node SQL does.
			mode = ModeGather
			res, err = c.gatherExecute(ctx, stmt, qid, rsv)
		}
	}
	if err != nil {
		return nil, err
	}
	res.QueryID = qid
	res.Stats.Mode = mode
	res.Stats.Duration = time.Since(start)
	res.Stats.DurationMS = float64(res.Stats.Duration.Microseconds()) / 1000
	c.modeCounts[modeIndex(mode)].Add(1)
	return res, nil
}

func modeIndex(m Mode) int {
	switch m {
	case ModeReplicated:
		return 0
	case ModeColocated:
		return 1
	case ModeRouted:
		return 2
	}
	return 3
}

// scatterMerge runs the co-located/broadcast/routed path: the (possibly
// avg-rewritten) fragment statement goes to every target slice's chain and
// the partial results merge on the coordinator.
func (c *Coordinator) scatterMerge(ctx context.Context, stmt *sql.SelectStmt, targets []fragTarget, qid string) (*Result, error) {
	mp, err := buildMerge(stmt)
	if err != nil {
		return nil, err
	}
	frags, err := c.scatter(ctx, targets, mp.fragSQL, qid)
	if err != nil {
		return nil, err
	}
	res, err := mp.merge(frags)
	if err != nil {
		return nil, err
	}
	res.Stats.Shards = len(targets)
	for _, fr := range frags {
		res.Stats.Fragments += fr.tries
		res.Stats.Retries += fr.tries - 1
		if fr.failedOver {
			res.Stats.Failovers++
		}
	}
	return res, nil
}

// passthrough runs the whole statement on one slice's chain and returns its
// rows unmerged — correct whenever that slice holds every row the query can
// touch. Printing from the AST (rather than echoing the client's text)
// keeps the fragment layer the single wire entry point.
func (c *Coordinator) passthrough(ctx context.Context, stmt *sql.SelectStmt, ft fragTarget, qid string) (*Result, error) {
	fr, err := c.runFragment(ctx, ft, printStmt(stmt, fragOpts{}), qid)
	if err != nil {
		return nil, err
	}
	st := Stats{Shards: 1, Fragments: fr.tries, Retries: fr.tries - 1}
	if fr.failedOver {
		st.Failovers = 1
	}
	return &Result{Cols: fr.cols, Rows: fr.rows, Stats: st}, nil
}

// unionFind is a tiny union-find over qualified column names.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: map[string]string{}} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// execOpts builds the local-execution options of the gather path.
func (c *Coordinator) execOpts(rsv *admit.Reservation) plan.Options {
	return plan.Options{
		Workers: c.cfg.Workers, Algo: plan.BHJ, Core: c.cfg.Core,
		MemBudget: c.cfg.MemBudget, SpillDir: c.cfg.SpillDir,
		Reservation: rsv,
	}
}

// shardIDs names a target set for stats/logs.
func shardIDs(targets []fragTarget) []int {
	out := make([]int, len(targets))
	for i, ft := range targets {
		out[i] = ft.primary
	}
	sort.Ints(out)
	return out
}
