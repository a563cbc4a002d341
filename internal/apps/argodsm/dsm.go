package argodsm

import (
	"fmt"

	"odpsim/internal/cluster"
	"odpsim/internal/hostmem"
	"odpsim/internal/sim"
	"odpsim/internal/ucx"
)

// This file implements the DSM substrate itself — a miniature ArgoDSM: a
// page-granularity software distributed shared memory with home-node
// directories and no message handlers, where every coherence action is
// one-sided RDMA over the UCX layer (exactly the design Kaxiras et al.
// describe and §VII-A runs). Running it with ODP enabled exercises the
// same communication patterns that exposed packet damming.

// PageState is a node's cached state for one DSM page (simplified MSI).
type PageState int

// Page states.
const (
	Invalid PageState = iota
	Shared
	Modified
)

// DSM is the distributed shared memory spanning the cluster's nodes.
type DSM struct {
	nodes []*Node
	// pagesPerNode is the home partition size in pages.
	pagesPerNode int
	size         int
}

// Node is one DSM participant.
type Node struct {
	dsm    *DSM
	id     int
	worker *ucx.Worker
	// eps[j] is the endpoint to node j (nil for self).
	eps []*ucx.Endpoint
	// base is the node's backing memory: its home partition lives at
	// [base, base+homeBytes), the local page cache behind it.
	base hostmem.Addr
	// state tracks this node's cached state per global page index.
	state map[int]PageState

	// Counters.
	RemoteReads  uint64
	RemoteWrites uint64
}

// NewDSM builds a DSM of size bytes across the nodes of cl, registering
// all backing memory through ucfg (pinned or ODP). The registration and
// directory-setup costs are charged to proc.
func NewDSM(p *sim.Proc, cl *cluster.Cluster, size int, ucfg ucx.Config) *DSM {
	n := len(cl.Nodes)
	if n < 2 {
		panic("argodsm: need at least 2 nodes")
	}
	pages := (size + hostmem.PageSize - 1) / hostmem.PageSize
	d := &DSM{pagesPerNode: (pages + n - 1) / n, size: size}

	workers := make([]*ucx.Worker, n)
	for i, nic := range cl.Nodes {
		workers[i] = ucx.NewContext(nic, ucfg).NewWorker()
	}
	for i, nic := range cl.Nodes {
		node := &Node{
			dsm: d, id: i, worker: workers[i],
			eps:   make([]*ucx.Endpoint, n),
			state: make(map[int]PageState),
		}
		// Home partition + page cache + one page of lock/directory
		// words.
		backing := d.pagesPerNode*hostmem.PageSize*2 + hostmem.PageSize
		node.base = nic.AS.Alloc(backing)
		p.Sleep(node.worker.RegisterBuffer(node.base, backing))
		d.nodes = append(d.nodes, node)
	}
	// Fully connect the nodes (one QP pair per direction pair), with a
	// stock of receive buffers for the SENDs peers announce with (Run's
	// lock announcement lands in one).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := ucx.Connect(workers[i], workers[j])
			d.nodes[i].eps[j] = a
			d.nodes[j].eps[i] = b
			for k := 0; k < 32; k++ {
				a.PostRecv(d.nodes[i].cacheAddr(0), 64)
				b.PostRecv(d.nodes[j].cacheAddr(0), 64)
			}
		}
	}
	return d
}

// Nodes returns the DSM participants.
func (d *DSM) Nodes() []*Node { return d.nodes }

// Endpoint returns the node's endpoint to peer j (nil for itself).
func (n *Node) Endpoint(j int) *ucx.Endpoint { return n.eps[j] }

// Worker returns the node's UCX worker.
func (n *Node) Worker() *ucx.Worker { return n.worker }

// HomeAddr exposes a page's home-partition address (for experiments that
// target specific pages).
func (d *DSM) HomeAddr(page int) hostmem.Addr { return d.homeAddr(page) }

// Pages returns the number of DSM pages.
func (d *DSM) Pages() int {
	return (d.size + hostmem.PageSize - 1) / hostmem.PageSize
}

// homeOf returns the home node and in-partition page index for a global
// page.
func (d *DSM) homeOf(page int) (node, local int) {
	return page / d.pagesPerNode, page % d.pagesPerNode
}

// homeAddr returns the address of a global page within its home node's
// partition.
func (d *DSM) homeAddr(page int) hostmem.Addr {
	home, local := d.homeOf(page)
	return d.nodes[home].base + hostmem.Addr(local)*hostmem.PageSize
}

// cacheAddr returns where node caches global pages locally.
func (n *Node) cacheAddr(page int) hostmem.Addr {
	local := page % n.dsm.pagesPerNode
	return n.base + hostmem.Addr(n.dsm.pagesPerNode+local)*hostmem.PageSize
}

// Read faults the page into the node's cache if needed (a one-sided GET
// from the home node) and returns an error only on transport failure.
func (n *Node) Read(p *sim.Proc, page int) error {
	if page < 0 || page >= n.dsm.Pages() {
		return fmt.Errorf("argodsm: page %d out of range", page)
	}
	home, _ := n.dsm.homeOf(page)
	if home == n.id || n.state[page] != Invalid {
		return nil // local or already cached
	}
	n.RemoteReads++
	if err := n.eps[home].Get(p, n.cacheAddr(page), n.dsm.homeAddr(page), hostmem.PageSize); err != nil {
		return err
	}
	n.state[page] = Shared
	return nil
}

// Write updates the page: remote pages are fetched (if needed) and the
// dirty data is written through to the home node, ArgoDSM-style
// write-through on release; here modelled eagerly for simplicity.
func (n *Node) Write(p *sim.Proc, page int) error {
	if err := n.Read(p, page); err != nil {
		return err
	}
	home, _ := n.dsm.homeOf(page)
	if home == n.id {
		return nil
	}
	n.RemoteWrites++
	if err := n.eps[home].Put(p, n.cacheAddr(page), n.dsm.homeAddr(page), hostmem.PageSize); err != nil {
		return err
	}
	n.state[page] = Modified
	return nil
}
