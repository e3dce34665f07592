package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// NodeState is one worker's view in the registry.
type NodeState struct {
	Index      int       `json:"index"`
	URL        string    `json:"url"`
	Alive      bool      `json:"alive"`
	LastSeen   time.Time `json:"last_seen,omitempty"`
	Failures   int64     `json:"health_failures"`
	Dispatches int64     `json:"dispatches"`
}

// Registry tracks worker liveness: a fixed node list (cluster membership
// is configuration, not discovery), a background heartbeat loop probing
// each worker's /readyz, and dispatch-path death marks — a connection
// that dies mid-shard flips the node dead immediately instead of waiting
// for the next heartbeat. A node that starts answering its heartbeat
// again is revived, which is how a restarted worker rejoins.
type Registry struct {
	client *http.Client

	mu    sync.Mutex
	nodes []NodeState

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool // Start launched the heartbeat loop, which closes done; guarded by mu
}

// NewRegistry builds a registry over the worker base URLs. All nodes
// start alive; the first heartbeat corrects optimism within one interval.
func NewRegistry(urls []string, client *http.Client) *Registry {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	r := &Registry{
		client: client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i, u := range urls {
		r.nodes = append(r.nodes, NodeState{Index: i, URL: u, Alive: true})
	}
	return r
}

// Start runs the heartbeat loop until Stop (or ctx cancellation). The
// first probe round runs synchronously so callers observe real liveness
// as soon as Start returns.
func (r *Registry) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	r.probeAll(ctx)
	r.mu.Lock()
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.probeAll(ctx)
			case <-r.stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Stop ends the heartbeat loop and joins it. On a registry whose Start
// never ran there is no loop to join, and Stop returns at once.
func (r *Registry) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// probeAll heartbeats every node once.
func (r *Registry) probeAll(ctx context.Context) {
	r.mu.Lock()
	targets := make([]NodeState, len(r.nodes))
	copy(targets, r.nodes)
	r.mu.Unlock()
	for _, n := range targets {
		alive := r.probe(ctx, n.URL)
		r.mu.Lock()
		node := &r.nodes[n.Index]
		node.Alive = alive
		if alive {
			node.LastSeen = time.Now()
		} else {
			node.Failures++
		}
		r.mu.Unlock()
	}
}

// probe reports whether the worker's /readyz answers 200.
func (r *Registry) probe(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Len returns the configured node count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}

// Alive reports node w's liveness.
func (r *Registry) Alive(w int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w < 0 || w >= len(r.nodes) {
		return false
	}
	return r.nodes[w].Alive
}

// AliveCount returns how many nodes are currently alive.
func (r *Registry) AliveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, node := range r.nodes {
		if node.Alive {
			n++
		}
	}
	return n
}

// URL returns node w's base URL.
func (r *Registry) URL(w int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[w].URL
}

// MarkDead flips node w dead from the dispatch path.
func (r *Registry) MarkDead(w int) {
	r.mu.Lock()
	if w >= 0 && w < len(r.nodes) {
		r.nodes[w].Alive = false
		r.nodes[w].Failures++
	}
	r.mu.Unlock()
}

// Dispatched counts one shard dispatch attempt against node w.
func (r *Registry) Dispatched(w int) {
	r.mu.Lock()
	if w >= 0 && w < len(r.nodes) {
		r.nodes[w].Dispatches++
	}
	r.mu.Unlock()
}

// Snapshot returns the node states in index order.
func (r *Registry) Snapshot() []NodeState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeState, len(r.nodes))
	copy(out, r.nodes)
	return out
}
