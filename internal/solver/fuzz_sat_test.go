package solver

import (
	"testing"
)

// fuzzLit decodes one byte into a literal over nVars variables.
func fuzzLit(b byte, nVars int) Lit {
	return MkLit(int(b>>1)%nVars, b&1 == 1)
}

// FuzzArenaCompact drives arbitrary interleavings of clause additions and
// assumption queries through a solver tuned to reduce and compact its
// arena as aggressively as possible (ReduceBase=1, RestartBase=1), and
// checks two properties after every query: (1) watcher integrity — every
// clause watched exactly on its first two literals, no dangling refs, no
// lost propagations (validateArena panics otherwise); and (2) the verdict
// matches a scratch oracle that re-adds every clause to a fresh solver and
// re-watches from nothing, so no compaction pass can silently change what
// the clause database means.
func FuzzArenaCompact(f *testing.F) {
	f.Add([]byte{0, 2, 5, 9, 255, 1})
	f.Add([]byte{1, 3, 3, 3, 254, 2, 4, 6, 8, 255, 7})
	f.Add([]byte{0, 10, 11, 12, 2, 13, 14, 15, 254, 1, 3, 255, 5, 7})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const nVars = 12
		s := NewSat()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		s.Reuse = data[0]&1 == 1
		s.ReduceBase = 1
		s.RestartBase = 1
		var clauses [][]Lit
		queries := 0
		i := 1
		for i < len(data) && queries < 16 {
			switch data[i] {
			case 255: // query: up to 2 assumption literals follow
				i++
				var assumps []Lit
				for len(assumps) < 2 && i < len(data) && data[i] < 254 {
					assumps = append(assumps, fuzzLit(data[i], nVars))
					i++
				}
				got := s.Solve(assumps)
				s.validateArena()
				// Re-watch-from-scratch oracle: a fresh solver over the
				// same original clauses, no reduction, no prior state.
				o := NewSat()
				for v := 0; v < nVars; v++ {
					o.NewVar()
				}
				o.NoReduce = true
				for _, c := range clauses {
					if !o.AddClause(c...) {
						break
					}
				}
				want := o.Solve(assumps)
				if got != want {
					t.Fatalf("query %d (assumps %v): compacting solver says %v, scratch oracle says %v",
						queries, assumps, got, want)
				}
				queries++
			case 254: // skip byte, lets the fuzzer splice op boundaries
				i++
			default: // add a ternary clause from the next 3 bytes
				if i+3 > len(data) || len(clauses) >= 64 {
					i = len(data)
					break
				}
				c := []Lit{
					fuzzLit(data[i], nVars),
					fuzzLit(data[i+1], nVars),
					fuzzLit(data[i+2], nVars),
				}
				i += 3
				clauses = append(clauses, c)
				s.AddClause(c...)
			}
		}
	})
}

// FuzzLubyRestart checks the restart machinery: with an aggressive restart
// schedule (RestartBase=1), (1) two identically configured solvers produce
// bit-identical verdicts, models, and search statistics over the same
// query sequence — the Luby schedule is a pure function of the query
// sequence, never of wall clock or memory layout; and (2) the
// verdicts match a restart-free run of the same formula, so restarting can
// reorder the search but never change an answer.
func FuzzLubyRestart(f *testing.F) {
	f.Add([]byte{2, 5, 9, 11, 14, 3, 7, 21, 8})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 1, 0, 3, 2, 5, 255, 254, 253, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const nVars = 10
		var clauses [][]Lit
		for i := 0; i+3 <= len(data) && len(clauses) < 48; i += 3 {
			clauses = append(clauses, []Lit{
				fuzzLit(data[i], nVars),
				fuzzLit(data[i+1], nVars),
				fuzzLit(data[i+2], nVars),
			})
		}
		build := func(restartBase int64) *CDCL {
			s := NewSat()
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			s.RestartBase = restartBase
			s.ReduceBase = 4
			for _, c := range clauses {
				if !s.AddClause(c...) {
					break
				}
			}
			return s
		}
		// Query sequence: whole formula, then a few assumption sets
		// derived from the data so the fuzzer can steer them.
		queries := [][]Lit{nil}
		for i := 0; i+2 <= len(data) && len(queries) < 6; i += 2 {
			queries = append(queries, []Lit{
				fuzzLit(data[i], nVars),
				fuzzLit(data[i+1], nVars),
			})
		}
		a, b := build(1), build(1)
		noRestart := build(1 << 30)
		for qi, q := range queries {
			ra, rb := a.Solve(q), b.Solve(q)
			if ra != rb {
				t.Fatalf("query %d: identical solvers disagree (%v vs %v) — restart schedule is nondeterministic", qi, ra, rb)
			}
			if ra == Sat {
				ma, mb := a.Model(), b.Model()
				for v := range ma {
					if ma[v] != mb[v] {
						t.Fatalf("query %d: identical solvers produced different models at var %d", qi, v)
					}
				}
			}
			if a.Conflicts != b.Conflicts || a.Decisions != b.Decisions || a.Restarts != b.Restarts {
				t.Fatalf("query %d: identical solvers diverged in search stats (%d/%d/%d vs %d/%d/%d)",
					qi, a.Conflicts, a.Decisions, a.Restarts, b.Conflicts, b.Decisions, b.Restarts)
			}
			if rn := noRestart.Solve(q); rn != ra {
				t.Fatalf("query %d: restarting run says %v, restart-free run says %v", qi, ra, rn)
			}
		}
	})
}
