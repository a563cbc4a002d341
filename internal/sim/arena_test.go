package sim

import "testing"

type arenaItem struct {
	id   int
	next *arenaItem
}

func TestArenaRecyclesByGeneration(t *testing.T) {
	e := New(1)
	a := Arena[arenaItem]{Link: func(m *arenaItem) **arenaItem { return &m.next }}
	take := func(id int) *arenaItem {
		m := a.Take(e)
		if m == nil {
			m = &arenaItem{}
			a.Add(m)
		}
		m.id = id
		return m
	}
	first := []*arenaItem{take(1), take(2)}
	if first[0] == first[1] {
		t.Fatal("one generation handed out the same member twice")
	}
	e.Reset(2)
	again := []*arenaItem{take(3), take(4), take(5)}
	if again[0] != first[0] || again[1] != first[1] {
		t.Error("after Reset the arena must hand its members back in the order it first handed them out")
	}
	if again[2] == first[0] || again[2] == first[1] {
		t.Error("a member was handed out twice in one generation")
	}
	e.Reset(3)
	for i, want := range again {
		if got := a.Take(e); got != want {
			t.Fatalf("Take %d after the second Reset returned %p, want member %p", i, got, want)
		}
	}
	if a.Take(e) != nil {
		t.Error("Take past the last member must return nil")
	}
}

func TestArenaOnKeepsOneArenaPerKey(t *testing.T) {
	e := New(1)
	link := func(m *arenaItem) **arenaItem { return &m.next }
	a := ArenaOn(e, "k", link)
	if ArenaOn(e, "k", link) != a {
		t.Error("a second ArenaOn under one key made a new arena")
	}
	if ArenaOn(e, "other", link) == a {
		t.Error("two keys share one arena")
	}
	e.Reset(2)
	if ArenaOn(e, "k", link) != a {
		t.Error("an arena must survive Reset")
	}
}
