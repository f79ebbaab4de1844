package server

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"partitionjoin/internal/plan"
	"partitionjoin/internal/spill"
)

// SessionDefaults are the per-session knobs a client sets once at session
// creation instead of repeating on every query. The zero value of each field
// defers to the server's configuration.
type SessionDefaults struct {
	// MemBudget is the per-query reservation request in bytes.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Timeout bounds each query of the session (milliseconds on the wire).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Algo selects the default join implementation: "bhj", "rj", "brj".
	Algo string `json:"algo,omitempty"`
	// NoScanPushdown / NoDictCodes are the A/B gates: they select which
	// rewrite variant of each statement the session compiles and caches.
	NoScanPushdown bool `json:"no_scan_pushdown,omitempty"`
	NoDictCodes    bool `json:"no_dict_codes,omitempty"`
	// NoAdapt disables runtime adaptation for the session's queries. An
	// execution-time knob (like the join algorithm), deliberately absent
	// from the plan-cache key.
	NoAdapt bool `json:"no_adapt,omitempty"`
	// NoResultCache bypasses the result cache for the session's queries:
	// they neither read nor fill it. Like NoAdapt it is execution-time
	// state, outside the plan-cache (and result-cache) key — opted-out
	// sessions do not fragment either cache.
	NoResultCache bool `json:"no_result_cache,omitempty"`
}

// parseAlgo maps the wire name onto the plan enum.
func parseAlgo(s string) (plan.JoinAlgo, bool) {
	switch strings.ToLower(s) {
	case "", "bhj":
		return plan.BHJ, true
	case "rj":
		return plan.RJ, true
	case "brj":
		return plan.BRJ, true
	}
	return plan.BHJ, false
}

// session is one client's server-side state: defaults, an expiry refreshed
// on every use, and a private spill parent so one session's disk usage is
// reclaimed in a single remove when it ends.
type session struct {
	id       string
	defaults SessionDefaults

	mu       sync.Mutex
	expires  time.Time
	spillDir string // lazy; "" until the first spilling-capable query
	queries  int64
}

// touch extends the session's lease.
func (s *session) touch(ttl time.Duration) {
	s.mu.Lock()
	s.expires = time.Now().Add(ttl)
	s.queries++
	s.mu.Unlock()
}

// spillParent returns the session's private spill directory, creating it
// under parent on first use.
func (s *session) spillParent(parent string) (string, error) {
	if parent == "" {
		return "", nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spillDir != "" {
		return s.spillDir, nil
	}
	dir, err := spill.SessionParent(parent, s.id)
	if err != nil {
		return "", err
	}
	s.spillDir = dir
	return dir, nil
}

// destroy reclaims the session's spill tree.
func (s *session) destroy() {
	s.mu.Lock()
	dir := s.spillDir
	s.spillDir = ""
	s.mu.Unlock()
	if dir != "" {
		spill.RemoveSessionParent(dir)
	}
}

// createSession registers a new session with the given defaults.
func (s *Server) createSession(d SessionDefaults) (*session, error) {
	if _, ok := parseAlgo(d.Algo); !ok {
		return nil, fmt.Errorf("unknown join algorithm %q", d.Algo)
	}
	id := fmt.Sprintf("s%d-%d", time.Now().UnixNano(), s.sessionSeq.Add(1))
	sess := &session{id: id, defaults: d, expires: time.Now().Add(s.cfg.SessionTTL)}
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	return sess, nil
}

// lookupSession resolves and touches a session; a missing or expired id is
// an error (the client must create a new session).
func (s *Server) lookupSession(id string) (*session, error) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("unknown or expired session %q", id)
	}
	sess.touch(s.cfg.SessionTTL)
	return sess, nil
}

// dropSession removes a session and reclaims its spill tree.
func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	sess.destroy()
	return true
}

// sessionJanitor expires idle sessions periodically until the server's base
// context ends.
func (s *Server) sessionJanitor(interval time.Duration) {
	defer s.bg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.edge.Context().Done():
			return
		case <-t.C:
		}
		now := time.Now()
		var expired []*session
		s.mu.Lock()
		for id, sess := range s.sessions {
			sess.mu.Lock()
			dead := now.After(sess.expires)
			sess.mu.Unlock()
			if dead {
				delete(s.sessions, id)
				expired = append(expired, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range expired {
			sess.destroy()
			s.sessionsExpired.Add(1)
		}
	}
}
