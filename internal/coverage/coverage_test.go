package coverage

import "testing"

func TestProgIDStable(t *testing.T) {
	if ProgID("add_rm8_r8") != ProgID("add_rm8_r8") {
		t.Fatal("ProgID not stable")
	}
	if ProgID("a") == ProgID("b") {
		t.Fatal("ProgID collides on distinct names")
	}
}

func TestEdgeIndexSpread(t *testing.T) {
	pid := ProgID("p")
	seen := make(map[uint32]bool)
	for from := -1; from < 64; from++ {
		for to := 0; to < 64; to++ {
			seen[EdgeIndex(pid, from, to)] = true
		}
	}
	// 65*64 edges should land on nearly as many distinct slots of 65536.
	if len(seen) < 4000 {
		t.Fatalf("edge hash clustering: %d distinct slots", len(seen))
	}
	if EdgeIndex(pid, 3, 7) == EdgeIndex(ProgID("q"), 3, 7) {
		t.Fatal("same edge in different programs hashed identically")
	}
}

func TestBucketClasses(t *testing.T) {
	cases := []struct {
		n    uint16
		want uint8
	}{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {7, 4}, {8, 5}, {15, 5},
		{16, 6}, {31, 6}, {32, 7}, {127, 7}, {128, 8}, {60000, 8}}
	for _, c := range cases {
		if got := Bucket(c.n); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAddCountSignature(t *testing.T) {
	pid := ProgID("p")
	m := New()
	if m.Count() != 0 {
		t.Fatal("fresh map not empty")
	}
	empty := m.Signature()
	m.Add(pid, -1, 0)
	m.Add(pid, 0, 5)
	m.Add(pid, 0, 5)
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if m.Signature() == empty {
		t.Fatal("signature unchanged after adds")
	}

	// Order-independence: same edges added in another order hash equal.
	o := New()
	o.Add(pid, 0, 5)
	o.Add(pid, -1, 0)
	o.Add(pid, 0, 5)
	if m.Signature() != o.Signature() {
		t.Fatal("signature depends on insertion order")
	}

	// Within-bucket count changes keep the signature; crossing a bucket
	// boundary changes it.
	sig := o.Signature()
	o.Add(pid, 0, 5) // 2 -> 3 crosses (buckets 1,2,3 are exact)
	if o.Signature() == sig {
		t.Fatal("bucket transition did not change signature")
	}
	for i := 0; i < 2; i++ {
		o.Add(pid, 0, 5) // 3 -> 5: 4 and 5 share the 4-7 bucket
	}
	sig = o.Signature()
	o.Add(pid, 0, 5) // 5 -> 6 stays in 4-7
	if o.Signature() != sig {
		t.Fatal("within-bucket count change altered signature")
	}
}

func TestCounterSaturates(t *testing.T) {
	m := New()
	idx := EdgeIndex(ProgID("p"), 0, 1)
	for i := 0; i < 70000; i++ {
		m.AddIndex(idx)
	}
	if m.counts[idx] != ^uint16(0) {
		t.Fatalf("counter wrapped: %d", m.counts[idx])
	}
}

func TestEdgesAscending(t *testing.T) {
	pid := ProgID("p")
	a := New()
	a.Add(pid, 0, 1)
	a.Add(pid, 1, 2)
	a.Add(pid, 1, 2)

	ea := a.Edges()
	if len(ea) != 2 || a.Count() != 2 {
		t.Fatalf("Edges len = %d, Count = %d, want 2", len(ea), a.Count())
	}
	for i := 1; i < len(ea); i++ {
		if ea[i] <= ea[i-1] {
			t.Fatal("Edges not ascending")
		}
	}
}

func TestGlobalAccumulation(t *testing.T) {
	pid := ProgID("p")
	g := NewGlobal()

	m1 := New()
	m1.Add(pid, 0, 1)
	m1.Add(pid, 1, 2)
	newEdges, newBits := g.AddInput(m1)
	if newEdges != 2 || newBits != 2 {
		t.Fatalf("first input: edges %d bits %d", newEdges, newBits)
	}

	// Same map again: no new edges, no new bucket classes.
	newEdges, newBits = g.AddInput(m1)
	if newEdges != 0 || newBits != 0 {
		t.Fatalf("repeat input: edges %d bits %d", newEdges, newBits)
	}

	// Same edge, higher bucket: a new class but not a new edge.
	m2 := New()
	for i := 0; i < 10; i++ {
		m2.Add(pid, 0, 1)
	}
	newEdges, newBits = g.AddInput(m2)
	if newEdges != 0 || newBits != 1 {
		t.Fatalf("hotter input: edges %d bits %d", newEdges, newBits)
	}

	if g.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2", g.Edges())
	}
	// Edge (1,2) is rarer (2 inputs) than (0,1) (3 inputs).
	if got := g.Rarity(m1.Edges(), 2); got != 1 {
		t.Fatalf("Rarity = %d, want 1", got)
	}
	if got := g.Rarity(m1.Edges(), 10); got != 2 {
		t.Fatalf("Rarity(10) = %d, want 2", got)
	}
}
