// Package cluster models the deployment substrate of the platform: a set of
// worker nodes (the HBase/Hadoop cluster in the paper) plus a web-server
// farm, connected by a network with a fixed round-trip cost.
//
// The cluster is a *timing* model layered on the discrete-event simulator in
// internal/sim: real code executes against real data structures, and the
// cluster converts the work it performed (rows scanned, tuples aggregated,
// bytes shipped) into simulated latency with per-core FCFS queueing. This is
// what lets a single-CPU machine reproduce the 4/8/16-node scaling curves of
// the paper's Figures 2 and 3.
package cluster

import (
	"fmt"
	"sync"

	"modissense/internal/sim"
)

// Config describes a simulated cluster deployment.
type Config struct {
	// Nodes is the number of worker VMs (the paper uses 4, 8 and 16).
	Nodes int
	// CoresPerNode is the number of parallel task slots per node (the
	// paper's VMs are dual-core).
	CoresPerNode int
	// WebServers is the number of frontend web servers; the paper
	// determined two 4-core servers suffice.
	WebServers int
	// WebServerCores is the number of cores per web server.
	WebServerCores int
	// Cost holds the calibrated cost model.
	Cost CostModel
}

// DefaultConfig mirrors the paper's testbed: dual-core worker VMs and two
// 4-core web servers.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:          nodes,
		CoresPerNode:   2,
		WebServers:     2,
		WebServerCores: 4,
		Cost:           DefaultCostModel(),
	}
}

// Cluster is a simulated deployment: an engine, one Resource per worker
// node and one per web server. The engine and resources are
// single-goroutine; concurrent users run each schedule-plus-Run section
// through Simulate.
type Cluster struct {
	// mu serializes Simulate sections.
	mu      sync.Mutex
	cfg     Config
	eng     *sim.Engine
	nodes   []*sim.Resource
	web     []*sim.Resource
	pg      *sim.Resource
	nextWeb int // round-robin load-balancer cursor
}

// New validates cfg and builds the cluster with a fresh simulation engine.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.CoresPerNode < 1 {
		return nil, fmt.Errorf("cluster: need at least one core per node, got %d", cfg.CoresPerNode)
	}
	if cfg.WebServers < 1 {
		return nil, fmt.Errorf("cluster: need at least one web server, got %d", cfg.WebServers)
	}
	if cfg.WebServerCores < 1 {
		return nil, fmt.Errorf("cluster: need at least one web-server core, got %d", cfg.WebServerCores)
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, eng: sim.NewEngine()}
	for i := 0; i < cfg.Nodes; i++ {
		r, err := sim.NewResource(c.eng, fmt.Sprintf("node-%d", i), cfg.CoresPerNode)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, r)
	}
	for i := 0; i < cfg.WebServers; i++ {
		r, err := sim.NewResource(c.eng, fmt.Sprintf("web-%d", i), cfg.WebServerCores)
		if err != nil {
			return nil, err
		}
		c.web = append(c.web, r)
	}
	pg, err := sim.NewResource(c.eng, "postgres", 4)
	if err != nil {
		return nil, err
	}
	c.pg = pg
	return c, nil
}

// PG returns the relational-store server (PostgreSQL's role): a single
// 4-core machine serving the non-personalized query path.
func (c *Cluster) PG() *sim.Resource { return c.pg }

// Engine exposes the simulation engine for experiment drivers.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Config returns the deployment configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumNodes returns the worker-node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns the resource for worker node i (modulo the node count, so
// any region→node assignment hashes safely).
func (c *Cluster) Node(i int) *sim.Resource {
	if i < 0 {
		i = -i
	}
	return c.nodes[i%len(c.nodes)]
}

// PickWebServer returns the next web server chosen by the round-robin load
// balancer that fronts the farm.
func (c *Cluster) PickWebServer() *sim.Resource {
	w := c.web[c.nextWeb%len(c.web)]
	c.nextWeb++
	return w
}

// Simulate runs one schedule-plus-Run section while holding the cluster's
// lock: schedule submits work to the resources, then Run drains it.
// Requests served concurrently thus never drive the single-goroutine
// simulation engine from two goroutines at once. Keep real work, such as a
// query's scatter, out of schedule.
func (c *Cluster) Simulate(schedule func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := schedule(); err != nil {
		return err
	}
	_, err := c.Run()
	return err
}

// Run drains the event queue and returns the final simulated time.
func (c *Cluster) Run() (sim.Time, error) {
	// A generous guard: queries spawn O(regions) events each; anything past
	// tens of millions of events indicates a scheduling bug.
	return c.eng.Run(50_000_000)
}

// TotalBusyTime sums busy server-seconds across worker nodes.
func (c *Cluster) TotalBusyTime() float64 {
	var t float64
	for _, n := range c.nodes {
		t += n.BusyTime()
	}
	return t
}
