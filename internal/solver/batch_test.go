package solver

import (
	"testing"

	"pokeemu/internal/expr"
)

// splitmix64 advances a splitmix64 PRNG state, so the random instances
// below are reproducible from a seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randCNF builds a deterministic pseudo-random 3-SAT instance over nVars
// variables (which must already be allocated by the caller).
func randCNF(seed uint64, nVars, nClauses int) [][]Lit {
	state := seed
	next := func(n int) int {
		state = splitmix64(state)
		return int(state % uint64(n))
	}
	out := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		c := make([]Lit, 3)
		for j := range c {
			c[j] = MkLit(next(nVars), next(2) == 1)
		}
		out = append(out, c)
	}
	return out
}

// randAssumps draws a deterministic assumption sequence: each step either
// extends the previous assumption list by one literal over an untouched
// variable or truncates it, mimicking the grow/backtrack pattern of sibling
// path queries.
func randAssumps(seed uint64, nVars, steps int) [][]Lit {
	state := seed ^ 0xabcdef
	next := func(n int) int {
		state = splitmix64(state)
		return int(state % uint64(n))
	}
	var cur []Lit
	out := make([][]Lit, 0, steps)
	for i := 0; i < steps; i++ {
		switch {
		case len(cur) > 0 && next(4) == 0:
			cur = cur[:next(len(cur))]
		case len(cur) < nVars/2:
			cur = append(cur, MkLit(next(nVars), next(2) == 1))
		}
		out = append(out, append([]Lit(nil), cur...))
	}
	return out
}

// TestReuseMatchesFreshVerdicts is the soundness gate for the batched
// front-end: one Reuse solver answering an incremental assumption sequence —
// with clauses injected mid-sequence, above decision level 0 — must agree
// with a fresh solver rebuilt from scratch for every single query.
func TestReuseMatchesFreshVerdicts(t *testing.T) {
	const nVars = 30
	for seed := uint64(1); seed <= 12; seed++ {
		clauses := randCNF(seed, nVars, 60)
		extra := randCNF(seed^0x55aa, nVars, 40)

		reuse := NewSat()
		for i := 0; i < nVars; i++ {
			reuse.NewVar()
		}
		reuse.Reuse = true
		added := 0
		for _, c := range clauses {
			reuse.AddClause(c...)
		}

		for qi, assumps := range randAssumps(seed, nVars, 50) {
			// Inject some clauses between queries: with Reuse on, the trail
			// may be standing above level 0 here, exercising the safe-attach
			// path in AddClause.
			if qi%3 == 0 && added < len(extra) {
				reuse.AddClause(extra[added]...)
				added++
			}
			got := reuse.Solve(assumps)

			fresh := NewSat()
			for i := 0; i < nVars; i++ {
				fresh.NewVar()
			}
			for _, c := range clauses {
				fresh.AddClause(c...)
			}
			for _, c := range extra[:added] {
				fresh.AddClause(c...)
			}
			want := fresh.Solve(assumps)
			if got != want {
				t.Fatalf("seed %d query %d (%d assumps): reuse=%v fresh=%v",
					seed, qi, len(assumps), got, want)
			}
			// A Sat model must actually satisfy the assumptions.
			if got == Sat {
				for _, l := range assumps {
					if reuse.Value(l.Var()) == l.Sign() {
						t.Fatalf("seed %d query %d: model violates assumption %v", seed, qi, l)
					}
				}
			}
		}
	}
}

// TestReuseBVPathPrefixes drives the BV front-end the way the explorer
// does — a growing path-condition prefix with new terms encoded between
// queries — and checks every verdict against an independent solver.
func TestReuseBVPathPrefixes(t *testing.T) {
	batched := NewBV()
	batched.Reuse = true
	x := expr.Var(16, "x")
	y := expr.Var(16, "y")

	conds := []*expr.Expr{
		expr.Ugt(x, expr.Const(16, 100)),
		expr.Ult(x, expr.Const(16, 5000)),
		expr.Eq(expr.And(x, expr.Const(16, 1)), expr.Const(16, 0)),
		expr.Ugt(expr.Add(x, y), expr.Const(16, 200)),
		expr.Ult(y, expr.Const(16, 50)),
		expr.Eq(expr.And(y, expr.Const(16, 3)), expr.Const(16, 2)),
		// Contradicts the first condition: the full prefix is Unsat.
		expr.Ult(x, expr.Const(16, 90)),
	}
	var prefix []Lit
	for i, c := range conds {
		prefix = append(prefix, batched.LitFor(c))
		got := batched.CheckLits(prefix)

		fresh := NewBV()
		var fl []Lit
		for _, fc := range conds[:i+1] {
			fl = append(fl, fresh.LitFor(fc))
		}
		want := fresh.CheckLits(fl)
		if got != want {
			t.Fatalf("prefix length %d: batched=%v fresh=%v", i+1, got, want)
		}
		if got == Sat {
			// The model must satisfy every condition in the prefix.
			m := map[string]uint64{"x": batched.ModelVal("x"), "y": batched.ModelVal("y")}
			for j, fc := range conds[:i+1] {
				if v := expr.Eval(fc, m); v != 1 {
					t.Fatalf("prefix length %d: model %v violates cond %d (v=%d)",
						i+1, m, j, v)
				}
			}
		}
	}
	if batched.sat.ReusedLevels == 0 {
		t.Fatal("batched front-end never reused a trail level on a growing prefix")
	}
}

// TestBatchedUnknownNotMemoized pins the memo × MaxConflicts interaction on
// the batched path: Unknown must never enter the assumption-set memo, so
// lifting the budget re-solves instead of replaying the give-up.
func TestBatchedUnknownNotMemoized(t *testing.T) {
	b := NewBV()
	b.Reuse = true
	b.MaxConflicts = 3
	lit := b.LitFor(hardUnsat())
	if st := b.CheckLits([]Lit{lit}); st != Unknown {
		t.Fatalf("budgeted hard query = %v, want Unknown", st)
	}
	hits := b.MemoHits
	if st := b.CheckLits([]Lit{lit}); st != Unknown {
		t.Fatalf("repeat budgeted hard query = %v, want Unknown", st)
	}
	if b.MemoHits != hits {
		t.Fatalf("Unknown verdict was served from the memo (hits %d -> %d)", hits, b.MemoHits)
	}
	b.MaxConflicts = 0
	if st := b.CheckLits([]Lit{lit}); st != Unsat {
		t.Fatalf("lifted budget = %v, want Unsat", st)
	}
}

// TestBudgetLearntsPreserveVerdicts pins the second half of the memo ×
// budget contract: clauses learned during a budget-exhausted batched query
// are implied, so keeping them must not change any later verdict relative
// to a solver that never ran the exhausted query.
func TestBudgetLearntsPreserveVerdicts(t *testing.T) {
	x := expr.Var(8, "px")
	y := expr.Var(8, "py")
	followups := []*expr.Expr{
		expr.Ugt(x, expr.Const(8, 0xf0)),
		expr.Eq(expr.Mul(x, y), expr.Const(8, 0)),
		expr.Ne(expr.Add(x, y), expr.Add(y, x)),
		expr.Ult(expr.ZExt(x, 9), expr.Const(9, 0)),
	}

	poisoned := NewBV()
	poisoned.Reuse = true
	poisoned.MaxConflicts = 3
	if st := poisoned.CheckLits([]Lit{poisoned.LitFor(hardUnsat())}); st != Unknown {
		t.Fatalf("hard query = %v, want Unknown", st)
	}
	poisoned.MaxConflicts = 0

	clean := NewBV()
	clean.Reuse = true

	for i, f := range followups {
		got := poisoned.CheckLits([]Lit{poisoned.LitFor(f)})
		want := clean.CheckLits([]Lit{clean.LitFor(f)})
		if got != want {
			t.Fatalf("follow-up %d: after exhausted budget %v, clean solver %v", i, got, want)
		}
	}
}
