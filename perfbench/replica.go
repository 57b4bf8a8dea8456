package main

import (
	"fmt"
	"strings"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/diff"
	"pokeemu/internal/equivcheck"
	"pokeemu/internal/expr"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/triage"
	"pokeemu/internal/x86/sem"
)

// The traced replicas drive the same pipeline as campaign.RunContext and
// equivcheck.Run, through each layer's public functions and in the same
// order, with a span around every call. They must reproduce the untraced
// run's deterministic counts exactly; the run fails otherwise.

// counts are the deterministic outputs of a campaign: equal between the
// untraced run and its traced replica, and across runs of one seed.
type counts struct {
	Instrs       int            `json:"instrs"`
	Paths        int            `json:"paths"`
	Exhausted    int            `json:"exhausted"`
	Tests        int            `json:"tests"`
	SummaryPaths int            `json:"summary_paths"`
	LoFi         int            `json:"lofi_tests"`
	HiFi         int            `json:"hifi_tests"`
	Causes       map[string]int `json:"causes"`
	VoteAgree    int            `json:"vote_agree"`
	VoteMajority int            `json:"vote_majority"`
	VoteSplits   int            `json:"vote_splits"`
	Blame        map[string]int `json:"blame,omitempty"`
	Queries      int64          `json:"queries"`
	Faults       int            `json:"faults"`
}

func countsOf(r *campaign.Result) counts {
	return counts{
		Instrs: r.ExploredInstrs, Paths: r.TotalPaths, Exhausted: r.ExhaustedCount,
		Tests: r.TotalTests, SummaryPaths: r.SummaryPaths,
		LoFi: r.LoFiDiffTests, HiFi: r.HiFiDiffTests, Causes: r.RootCauses,
		VoteAgree: r.VoteAgree, VoteMajority: r.VoteMajority, VoteSplits: r.VoteSplits,
		Blame: r.VoteBlame, Queries: r.Solver.Queries,
		Faults: r.InstrFaults + r.ExecFaults + r.ExecTimeouts,
	}
}

// equal compares two count sets, treating nil and empty maps alike.
func (c counts) equal(o counts) bool {
	return fmt.Sprint(c) == fmt.Sprint(o)
}

// solverCounters snapshots every process-wide solver and intern counter.
type solverCounters struct {
	solver.Stats
	InternHits, InternMisses int64
}

func readSolverCounters() solverCounters {
	ih, im, _ := expr.InternStats()
	return solverCounters{Stats: solver.StatsSnapshot(), InternHits: ih, InternMisses: im}
}

// replicaTest is one runnable test of the replica's execution stage.
type replicaTest struct {
	id, handler, mnemonic string
	prog                  []byte
	testOff               int
}

// replicaCampaign runs the campaign described by spec with a span around
// every layer call, writing per-layer metrics into out.
func replicaCampaign(spec campaignSpec, tr *tracer) (counts, map[string]float64, error) {
	var c counts
	c.Causes = map[string]int{}
	s0 := readSolverCounters()
	root := tr.begin("campaign", "")

	sp := tr.begin("core.instrset", "")
	instrs := core.ExploreInstructionSet().Unique
	tr.end(sp)
	if spec.Handlers != nil {
		want := map[string]bool{}
		for _, h := range spec.Handlers {
			want[h] = true
		}
		var keep []*core.UniqueInstr
		for _, u := range instrs {
			if want[u.Key()] {
				keep = append(keep, u)
			}
		}
		if len(keep) != len(want) {
			return c, nil, fmt.Errorf("replica: %d of %d handlers resolved", len(keep), len(want))
		}
		instrs = keep
	}

	var crp *corpus.Corpus
	if spec.Corpus != "" {
		var err error
		if crp, err = corpus.Open(spec.Corpus); err != nil {
			return c, nil, err
		}
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = spec.Cap
	opts.Seed = spec.Seed
	// The campaign's corpus namespace for the default solver settings.
	const label = "bochs"
	sumKey := corpus.SummaryKey{Config: label, SymexVersion: symex.SerialVersion}
	var ex *core.Explorer
	explorer := func() (*core.Explorer, error) {
		if ex != nil {
			return ex, nil
		}
		if crp != nil {
			sp := tr.begin("corpus.get_summary", "")
			se, ok := crp.GetSummary(sumKey)
			tr.end(sp)
			if ok {
				data, derr := symex.DecodeSummary(se.Data)
				ss, serr := symex.DecodeSummary(se.SS)
				if derr == nil && serr == nil {
					sp := tr.begin("core.new_explorer", "")
					e, err := core.NewExplorerWithSummaries(opts, sem.BochsConfig, core.ExplorerSummaries{Data: data, SS: ss})
					tr.end(sp)
					ex = e
					return ex, err
				}
			}
		}
		sp := tr.begin("core.new_explorer", "")
		e, err := core.NewExplorer(opts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		ex = e
		if crp != nil {
			sums := ex.Summaries()
			sp := tr.begin("corpus.put_summary", "")
			err = crp.PutSummary(&corpus.SummaryEntry{
				Key: sumKey, Paths: ex.SummaryPaths,
				Data: symex.EncodeSummary(sums.Data), SS: symex.EncodeSummary(sums.SS),
			})
			tr.end(sp)
		}
		return ex, err
	}

	var tests []replicaTest
	generated := 0
	for _, u := range instrs {
		c.Instrs++
		key := corpus.InstrKey{
			Handler: u.Key(), PathCap: spec.Cap, Seed: spec.Seed, Config: label,
			SymexVersion: symex.SerialVersion, GenVersion: testgen.Version,
		}
		if crp != nil {
			sp := tr.begin("corpus.get_instr", u.Key())
			ent, ok := crp.GetInstr(key)
			tr.end(sp)
			if ok {
				c.Paths += ent.Paths
				if ent.Exhausted {
					c.Exhausted++
				}
				for _, ct := range ent.Tests {
					tests = append(tests, replicaTest{id: ct.ID, handler: ent.HandlerName, mnemonic: ent.Mnemonic, prog: ct.Prog, testOff: ct.TestOffset})
				}
				continue
			}
		}
		e, err := explorer()
		if err != nil {
			return c, nil, err
		}
		sp := tr.begin("symex.explore", u.Key())
		er, err := e.ExploreState(u)
		tr.end(sp)
		if err != nil {
			return c, nil, fmt.Errorf("replica: exploring %s: %w", u.Key(), err)
		}
		c.Paths += len(er.Tests)
		if er.Exhausted {
			c.Exhausted++
		}
		ent := &corpus.InstrEntry{
			Key: key, HandlerName: u.Spec.Name, Mnemonic: u.Spec.Mn,
			Paths: len(er.Tests), Exhausted: er.Exhausted, Queries: er.Stats.SolverQueries,
		}
		for _, tc := range er.Tests {
			sp := tr.begin("testgen.build", tc.ID)
			p, err := testgen.Build(tc)
			tr.end(sp)
			if err != nil {
				ent.GenFailed++
				continue
			}
			sp = tr.begin("testgen.verify", tc.ID)
			ok := testgen.Verify(p, e.Image())
			tr.end(sp)
			if !ok {
				ent.InitFault++
				continue
			}
			ent.Generated++
			tests = append(tests, replicaTest{id: tc.ID, handler: tc.Handler, mnemonic: tc.Mnemonic, prog: p.Code, testOff: p.TestOffset})
			ent.Tests = append(ent.Tests, corpus.CachedTest{
				ID: tc.ID, PathIndex: tc.PathIndex,
				Outcome: corpus.Outcome{
					Kind: uint8(tc.Outcome.Kind), Vector: tc.Outcome.Vector,
					ErrCode: tc.Outcome.ErrCode, HasErr: tc.Outcome.HasErr,
					Soft: tc.Outcome.Soft,
				},
				Diffs: tc.Diffs(), Prog: p.Code, TestOffset: p.TestOffset,
			})
		}
		generated += ent.Generated
		if crp != nil {
			sp := tr.begin("corpus.put_instr", u.Key())
			err := crp.PutInstr(ent)
			tr.end(sp)
			if err != nil {
				return c, nil, err
			}
		}
	}
	c.Tests = len(tests)
	if ex != nil {
		c.SummaryPaths = ex.SummaryPaths
	} else if crp != nil {
		sp := tr.begin("corpus.get_summary", "")
		se, ok := crp.GetSummary(sumKey)
		tr.end(sp)
		if ok {
			c.SummaryPaths = se.Paths
		}
	}

	image := machine.BaselineImage()
	if ex != nil {
		image = ex.Image()
	}
	boot := testgen.BaselineInit()
	budget := harness.Budget{MaxSteps: harness.DefaultMaxSteps}
	type leg struct {
		span string
		f    harness.Factory
	}
	legs := []leg{
		{"harness.fidelis", harness.FidelisFactory()},
		{"harness.celer", harness.CelerFactoryFast(true)},
		{"harness.hwsim", harness.HardwareFactory()},
	}
	if spec.Vote {
		legs = append(legs, leg{"harness.lento", harness.LentoFactory()})
	}
	results := make([][]*harness.Result, len(tests))
	steps := map[string]int{}
	for i, t := range tests {
		results[i] = make([]*harness.Result, len(legs))
		for l, leg := range legs {
			sp := tr.begin(leg.span, t.id)
			r := harness.RunBootBudget(leg.f, image, boot, t.prog, budget)
			tr.end(sp)
			results[i][l] = r
			steps[leg.span] += r.Steps
		}
	}

	if spec.Vote {
		c.Blame = map[string]int{}
	}
	// Every divergence becomes a difference record with its signature, a
	// triage case and a baseline lookup, as in the campaign's compare stage
	// (the benchmark's campaigns have no baseline; the nil one matches
	// nothing).
	var baseline *triage.Baseline
	var differences []*diff.Difference
	var cases []triage.CaseInfo
	record := func(t replicaTest, implB string, ds []diff.FieldDiff) {
		sp := tr.begin("diff.signature", t.id)
		d := &diff.Difference{
			TestID: t.id, Handler: t.handler, Mnemonic: t.mnemonic,
			ImplA: "hardware", ImplB: implB, Fields: ds,
		}
		differences = append(differences, d)
		c.Causes[diff.RootCause(d)]++
		sig := d.Signature()
		cases = append(cases, triage.CaseInfo{
			TestID: t.id, Handler: t.handler, Mnemonic: t.mnemonic,
			ImplA: "hardware", ImplB: implB,
			Signature: sig, RootCause: diff.RootCause(d),
			Prog: t.prog, TestOffset: t.testOff,
		})
		baseline.Match(implB, sig)
		tr.end(sp)
	}
	for i, t := range tests {
		fi, ce, hw := results[i][0], results[i][1], results[i][2]
		filter := diff.UndefFilterFor(t.handler)
		for _, pair := range []struct {
			impl string
			snap *machine.Snapshot
			n    *int
		}{{"celer", ce.Snapshot, &c.LoFi}, {"fidelis", fi.Snapshot, &c.HiFi}} {
			sp := tr.begin("diff.compare", t.id)
			ds := diff.Compare(hw.Snapshot, pair.snap, filter)
			tr.end(sp)
			if len(ds) > 0 {
				*pair.n++
				record(t, pair.impl, ds)
			}
		}
		if spec.Vote {
			sp := tr.begin("diff.vote", t.id)
			v := diff.Vote([]diff.VoteRun{
				{Impl: "fidelis", Snap: fi.Snapshot},
				{Impl: "celer", Snap: ce.Snapshot},
				{Impl: "lento", Snap: results[i][3].Snapshot},
			}, filter)
			tr.end(sp)
			switch v.Class {
			case diff.VerdictAgree:
				c.VoteAgree++
			case diff.VerdictMajority:
				c.VoteMajority++
				for _, impl := range v.Outliers {
					c.Blame[impl]++
				}
			default:
				c.VoteSplits++
			}
		}
	}
	tr.end(root)
	s1 := readSolverCounters()
	c.Queries = s1.Queries - s0.Queries
	if len(differences) != len(cases) || len(cases) != c.LoFi+c.HiFi {
		return c, nil, fmt.Errorf("replica: %d differences and %d triage cases for %d divergent comparisons",
			len(differences), len(cases), c.LoFi+c.HiFi)
	}

	m := layerMetrics(tr, s0, s1)
	m["symex.paths"] = float64(c.Paths)
	m["symex.exhausted_frac"] = ratio(float64(c.Exhausted), float64(c.Instrs))
	m["testgen.yield_frac"] = ratio(float64(generated), float64(c.Paths))
	m["diff.lofi_tests"] = float64(c.LoFi)
	m["diff.hifi_tests"] = float64(c.HiFi)
	m["diff.vote_majority"] = float64(c.VoteMajority)
	stepsAll := 0
	for _, n := range steps {
		stepsAll += n
	}
	m["harness.steps"] = float64(stepsAll)
	m["harness.fidelis_steps_per_s"] = ratio(float64(steps["harness.fidelis"]), m["harness.fidelis_s"])
	return c, m, nil
}

// layerMetrics turns a replica's spans and solver counter deltas into the
// per-layer metrics every replica reports.
func layerMetrics(tr *tracer, s0, s1 solverCounters) map[string]float64 {
	explore := tr.durs("symex.explore")
	tests := tr.byID(harnessLegs...)
	compares := tr.durs("diff.compare")
	handlers := tr.durs("equivcheck.handler")
	memoHits, memoMisses := s1.MemoHits-s0.MemoHits, s1.MemoMisses-s0.MemoMisses
	queries := s1.Queries - s0.Queries
	internHits, internMisses := s1.InternHits-s0.InternHits, s1.InternMisses-s0.InternMisses
	props := s1.Propagations - s0.Propagations
	m := map[string]float64{
		"core.instrset_s":      tr.total("core.instrset"),
		"core.new_explorer_s":  tr.total("core.new_explorer"),
		"symex.explore_s":      sum(explore),
		"symex.explore_ms_p50": 1e3 * percentile(explore, 50),
		"symex.explore_ms_p98": 1e3 * percentile(explore, 98),
		"symex.explore_ms_max": 1e3 * maxOf(explore),

		"solver.queries":         float64(queries),
		"solver.memo_hit_frac":   ratio(float64(memoHits), float64(memoHits+memoMisses)),
		"solver.subsume_frac":    ratio(float64(s1.SubsumeHits-s0.SubsumeHits), float64(queries)),
		"solver.conflicts":       float64(s1.Conflicts - s0.Conflicts),
		"solver.propagations":    float64(props),
		"solver.props_per_cpu_s": ratio(float64(props), tr.cpu("symex.explore", "core.new_explorer", "equivcheck.handler")),
		"solver.restarts":        float64(s1.Restarts - s0.Restarts),
		"solver.reduce_removed":  float64(s1.ReduceRemoved - s0.ReduceRemoved),
		"expr.intern_hit_frac":   ratio(float64(internHits), float64(internHits+internMisses)),

		"testgen.build_s":  tr.total("testgen.build"),
		"testgen.verify_s": tr.total("testgen.verify"),

		"harness.fidelis_s":      tr.total("harness.fidelis"),
		"harness.celer_s":        tr.total("harness.celer"),
		"harness.lento_s":        tr.total("harness.lento"),
		"harness.hwsim_s":        tr.total("harness.hwsim"),
		"harness.test_us_p50":    1e6 * percentile(tests, 50),
		"harness.test_us_p99":    1e6 * percentile(tests, 99),
		"harness.fidelis_us_p99": 1e6 * percentile(tr.durs("harness.fidelis"), 99),

		"diff.compare_s":      sum(compares),
		"diff.compare_us_p50": 1e6 * percentile(compares, 50),
		"diff.compare_us_p99": 1e6 * percentile(compares, 99),
		"diff.signature_s":    tr.total("diff.signature"),
		"diff.vote_s":         tr.total("diff.vote"),

		"corpus.put_instr_s":   tr.total("corpus.put_instr"),
		"corpus.put_summary_s": tr.total("corpus.put_summary"),
		"corpus.get_instr_s":   tr.total("corpus.get_instr"),

		"equivcheck.handler_ms_p50": 1e3 * percentile(handlers, 50),
		"equivcheck.handler_ms_p98": 1e3 * percentile(handlers, 98),
		"equivcheck.handler_s_max":  maxOf(handlers),
	}
	for i := range tr.spans {
		if tr.spans[i].Parent == -1 {
			m["campaign.other_s"] += tr.selfTime(i)
		}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replicaEquiv checks the handlers one equivcheck.Run call each, with a
// span around every call, and reassembles the verdict matrix. The first
// call also pays equivcheck's own memoized instruction-set exploration.
func replicaEquiv(spec equivSpec, tr *tracer) (*equivcheck.Report, map[string]float64, error) {
	s0 := readSolverCounters()
	root := tr.begin("equivcheck", "")
	keys := spec.Handlers
	sp := tr.begin("core.instrset", "")
	all := core.ExploreInstructionSet().Unique
	tr.end(sp)
	if keys == nil {
		for _, u := range all {
			keys = append(keys, u.Key())
		}
	}
	rep := &equivcheck.Report{Config: equivcheck.ConfigLabel, PathCap: equivcheck.DefaultPathCap}
	exhausted := 0.0
	for _, k := range keys {
		sp := tr.begin("equivcheck.handler", k)
		r, err := equivcheck.Run(equivcheck.Options{Handlers: []string{k}, MaxConflicts: spec.Conflicts, Workers: 1})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		v := r.Handlers[0]
		rep.Handlers = append(rep.Handlers, v)
		rep.Queries += v.Queries
		switch v.Verdict {
		case equivcheck.VerdictEquiv:
			rep.Equiv++
		case equivcheck.VerdictDiverges:
			rep.Diverges++
		default:
			rep.Unknown++
			if strings.HasPrefix(v.Stage, "solver-budget") {
				exhausted += tr.spans[sp].dur()
			}
		}
	}
	tr.end(root)
	m := layerMetrics(tr, s0, readSolverCounters())
	m["equivcheck.budget_exhausted_s"] = exhausted
	return rep, m, nil
}
