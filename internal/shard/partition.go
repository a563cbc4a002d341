// Package shard splits a simulated system into causal domains: sets of
// hosts whose event streams never couple through a flow, so each domain
// can run on an engine of its own without reordering an observable
// event. Decompose derives the domains from the traffic alone. kv-serve
// checks with it that its pods are independent before it runs them in
// parallel (internal/core, DESIGN.md §12).
package shard

// Partition maps each vertex of the simulated system (hosts, in
// host-index order) to the causal domain that must own it. It is
// produced by Decompose from the traffic structure alone — the worker
// count never enters — so the partition is a pure function of the
// scenario, which is what keeps kv-serve's output byte-identical at
// every `-shards` value.
type Partition struct {
	// Domain[v] is the domain index of vertex v, numbered 0..Count-1 in
	// order of each domain's first vertex.
	Domain []int
	// Count is the number of causal domains.
	Count int
}

// Members returns the vertices of domain i, in vertex order.
func (p Partition) Members(i int) []int {
	var m []int
	for v, d := range p.Domain {
		if d == i {
			m = append(m, v)
		}
	}
	return m
}

// Decompose computes the causal domains of an n-vertex system from its
// flow list: vertices joined by a flow (a QP, a directed traffic pair —
// anything that couples two engines' event streams) must share an
// engine, so domains are the connected components of the flow graph.
// Components are numbered by first-vertex order, making the result
// deterministic for any flow ordering.
//
// A fully coupled pattern (incast, all-to-all shuffle) decomposes into
// one domain — the honest answer: its golden can only be reproduced by
// a single event loop, so such a workload runs on one engine. Pod-local
// patterns (kv-serve's per-pod cells) decompose into one domain per pod,
// which is where parallel workers buy wall-clock.
func Decompose(n int, flows [][2]int) Partition {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, f := range flows {
		a, b := find(f[0]), find(f[1])
		if a != b {
			if a > b { // union by smaller root: keeps numbering stable
				a, b = b, a
			}
			parent[b] = a
		}
	}
	p := Partition{Domain: make([]int, n)}
	index := make(map[int]int, n)
	for v := 0; v < n; v++ {
		root := find(v)
		id, ok := index[root]
		if !ok {
			id = p.Count
			index[root] = id
			p.Count++
		}
		p.Domain[v] = id
	}
	return p
}
