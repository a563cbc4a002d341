package shard

import (
	"reflect"
	"testing"
)

// TestDecompose covers the partitioner: pod-local flows split into one
// domain per pod, a coupling flow merges them, and fully coupled
// patterns collapse to one domain.
func TestDecompose(t *testing.T) {
	// 6 hosts, two pods of 3 with local flows only.
	p := Decompose(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if p.Count != 2 {
		t.Fatalf("pod decomposition found %d domains, want 2", p.Count)
	}
	if !reflect.DeepEqual(p.Domain, []int{0, 0, 0, 1, 1, 1}) {
		t.Fatalf("Domain = %v", p.Domain)
	}
	if got := p.Members(1); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Members(1) = %v", got)
	}
	// One cross-pod flow couples everything.
	p = Decompose(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {2, 3}})
	if p.Count != 1 {
		t.Fatalf("coupled decomposition found %d domains, want 1", p.Count)
	}
	// Incast: everyone targets host 0.
	flows := make([][2]int, 0, 8)
	for i := 1; i < 9; i++ {
		flows = append(flows, [2]int{i, 0})
	}
	p = Decompose(9, flows)
	if p.Count != 1 {
		t.Fatalf("incast decomposed into %d domains, want 1", p.Count)
	}
	// Isolated hosts each get their own domain, numbered in vertex order.
	p = Decompose(3, nil)
	if p.Count != 3 || !reflect.DeepEqual(p.Domain, []int{0, 1, 2}) {
		t.Fatalf("no-flow decomposition = %+v", p)
	}
}
