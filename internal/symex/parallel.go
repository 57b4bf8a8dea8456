package symex

import (
	"context"
	"sort"

	"pokeemu/internal/fanout"
	"pokeemu/internal/faults"
	"pokeemu/internal/ir"
)

// Parallel deterministic exploration.
//
// Explore always runs the same two-phase algorithm, whatever Options.Workers
// says; the pool size changes wall-clock time and nothing else.
//
// Phase 1 enumerates the decision tree sequentially down to a fixed split
// depth. Paths that complete above that depth are emitted directly ("short
// paths"); every subtree reached at the split depth is closed in the root
// tree and recorded as a task identified by its direction prefix.
//
// Phase 2 explores each task in its own engine — private solver, tree, RNG
// (seeded from the task prefix), and a deep-forked symbolic state — on a
// bounded worker pool. The engine replays the forced prefix without solver
// queries or randomness: execution is deterministic given branch directions
// because concretization pins are canonical (see pickConcrete).
//
// The merge is what makes the result worker-count-independent, under the
// fanout pool's contract: tasks write only into their own slots, and
// the final path list is ordered by each path's full branch-direction
// string. Direction strings are prefix-free across units, so this order is
// total and scheduling-independent. The list is trimmed to MaxPaths and
// only then are visit callbacks fired.
//
// Budgets: a naive per-task cap of MaxPaths would explore up to
// tasks×MaxPaths paths on capped trees. Instead tasks are granted budgets
// in deterministic rounds: each round computes the global deficit (cap
// minus every unit's current contribution) and splits it evenly across
// the unfinished tasks, so the over-exploration discarded by the final
// trim is at most tasks−1 paths. Grants depend only on collected counts,
// so the schedule — and therefore every engine's RNG stream — is
// identical for any pool size.

// defaultSplitDepth is the frontier depth in genuine forks (branch nodes
// whose other side is not known infeasible). 4 bounds the task count to 16
// whatever the raw branch depth of the program.
const defaultSplitDepth = 4

// keyedPath pairs a completed path with its canonical sort key.
type keyedPath struct {
	key string
	res *PathResult
}

// dirKey renders a branch-direction sequence as a sortable string.
func dirKey(dirs []int) string {
	b := make([]byte, len(dirs))
	for i, d := range dirs {
		b[i] = byte('0' + d)
	}
	return string(b)
}

// taskSeed derives a task engine's RNG seed from the base seed and the
// task's direction prefix, so its random choices depend only on the task's
// identity, never on scheduling.
func taskSeed(seed int64, prefix []int) int64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(seed))
	for _, d := range prefix {
		mix(uint64(d) + 1)
	}
	return int64(h)
}

// Explore enumerates execution paths of prog until the space is exhausted
// or the path cap is reached, invoking visit for each kept path in
// canonical order. It is single-shot per Engine.
func (en *Engine) Explore(prog *ir.Program, visit func(*PathResult)) {
	// Phase 1: frontier enumeration on this engine.
	en.splitDepth = defaultSplitDepth
	var short []keyedPath
	for len(short) < en.opts.MaxPaths && !en.tree.FullyExplored() {
		res, err := en.runOnce(prog)
		if err == errDeadEnd || err == errSplit {
			continue // the tree has been updated; retry from the root
		}
		if res == nil {
			break
		}
		short = append(short, keyedPath{dirKey(en.curDirs), res})
	}
	en.splitDepth = 0
	frontierComplete := en.tree.FullyExplored()

	// Phase 2: task engines over the delegated subtrees, canonical order.
	prefixes := en.tasks
	en.tasks = nil
	sort.Slice(prefixes, func(i, j int) bool {
		return dirKey(prefixes[i]) < dirKey(prefixes[j])
	})
	subs := make([]*Engine, len(prefixes))
	for i, p := range prefixes {
		o := en.opts
		o.MaxPaths = 0 // granted per round
		o.Seed = taskSeed(en.opts.Seed, p)
		sub := NewEngine(en.initial.fork(), en.sideCond, o)
		sub.forced = p
		subs[i] = sub
	}
	en.subs = subs

	// Canonical unit order: short paths and tasks interleaved by key.
	type unitRef struct {
		key  string
		task int // -1 for a short path
		path *keyedPath
	}
	units := make([]unitRef, 0, len(short)+len(subs))
	for i := range short {
		units = append(units, unitRef{short[i].key, -1, &short[i]})
	}
	for i, p := range prefixes {
		units = append(units, unitRef{dirKey(p), i, nil})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].key < units[j].key })

	for {
		// Deficit accounting: how many more paths the global cap still
		// needs, counting every unit's current contribution. The deficit is
		// split evenly (ceil) across unfinished tasks in canonical order, so
		// each round over-explores by at most open-1 paths — and only on the
		// final round, since earlier rounds end with the deficit still
		// positive. Grants remain a pure function of collected counts, so
		// the schedule is identical for any pool size.
		total := 0
		for _, u := range units {
			if u.task < 0 {
				total++
			} else {
				total += len(subs[u.task].collected)
			}
		}
		deficit := en.opts.MaxPaths - total
		if deficit <= 0 {
			break
		}
		var open []int
		for _, u := range units {
			if u.task >= 0 && !subs[u.task].tree.FullyExplored() {
				open = append(open, u.task)
			}
		}
		if len(open) == 0 {
			break
		}
		share := (deficit + len(open) - 1) / len(open)
		type grant struct{ task, budget int }
		grants := make([]grant, 0, len(open))
		for _, t := range open {
			grants = append(grants, grant{t, len(subs[t].collected) + share})
		}
		panics, _ := fanout.Run(context.TODO(), en.opts.Workers, len(grants), func(i int) {
			sub := subs[grants[i].task]
			sub.opts.MaxPaths = grants[i].budget
			sub.exploreSeq(prog)
		})
		for _, p := range panics {
			if p != nil {
				// Re-panic the canonically first failure so the campaign's
				// per-instruction fault isolation records a deterministic
				// message for any worker count.
				panic(p)
			}
		}
	}

	// Join: merge task-created variables and coverage into the root state
	// before any visit callback can observe them.
	for _, sub := range subs {
		en.mergeFork(sub)
		if sub.stmtHits != nil {
			if en.stmtHits == nil {
				en.stmtHits = make([]bool, len(sub.stmtHits))
			}
			for i, hit := range sub.stmtHits {
				if hit {
					en.stmtHits[i] = true
				}
			}
		}
	}

	// Merge paths in canonical order and trim to the cap: a single global
	// sort by full branch-direction string — total, because every key is a
	// distinct complete root-to-leaf path, and scheduling-independent.
	final := make([]keyedPath, 0, len(short))
	final = append(final, short...)
	for _, sub := range subs {
		final = append(final, sub.collected...)
	}
	sort.Slice(final, func(i, j int) bool { return final[i].key < final[j].key })
	trimmed := false
	if len(final) > en.opts.MaxPaths {
		final = final[:en.opts.MaxPaths]
		trimmed = true
	}

	exhausted := frontierComplete && !trimmed
	for _, sub := range subs {
		if !sub.tree.FullyExplored() {
			exhausted = false
		}
	}
	en.explored = true
	en.exhausted = exhausted
	en.stats.Paths = len(final)
	en.stats.AbortedPaths = 0
	for _, kp := range final {
		if kp.res.Aborted {
			en.stats.AbortedPaths++
		}
	}
	if visit != nil {
		for _, kp := range final {
			visit(kp.res)
		}
	}
}

// exploreSeq is the classic sequential loop, used by task engines: explore
// until the engine's own cap or its subtree is exhausted, accumulating
// keyed paths.
func (en *Engine) exploreSeq(prog *ir.Program) {
	// Injected task crash: keyed by the direction prefix, so the same task
	// units fault whatever the pool size — phase 2's canonical re-panic then
	// reports it identically for any worker count.
	if err := faults.Hit(faults.SymexTask, dirKey(en.forced)); err != nil {
		panic(err)
	}
	for len(en.collected) < en.opts.MaxPaths && !en.tree.FullyExplored() {
		res, err := en.runOnce(prog)
		if err != nil {
			continue
		}
		en.collected = append(en.collected, keyedPath{dirKey(en.curDirs), res})
	}
}

// mergeFork copies variables a task's forked state created (lazily touched
// memory bytes) back into the root registries. Entries are a deterministic
// function of the variable name, so insertion order does not matter and
// collisions across tasks are idempotent.
func (en *Engine) mergeFork(sub *Engine) {
	root, f := en.initial, sub.initial
	for name, w := range f.Vars {
		if _, ok := root.Vars[name]; ok {
			continue
		}
		root.Vars[name] = w
		root.Baseline[name] = f.Baseline[name]
		if l, ok := f.VarLoc[name]; ok {
			root.VarLoc[name] = l
		}
		if a, ok := f.VarMem[name]; ok {
			root.VarMem[name] = a
		}
	}
}
