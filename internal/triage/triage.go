package triage

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pokeemu/internal/corpus"
	"pokeemu/internal/fanout"
	"pokeemu/internal/harness"
	"pokeemu/internal/testgen"
)

// ReportVersion is the serialized triage-report format version; DiffReports
// and the CLI's -diff mode refuse mismatched versions.
const ReportVersion = 1

// Options configure a triage run.
type Options struct {
	// Minimize shrinks every case via Minimize; off, the report is the
	// known/new partition and clustering only.
	Minimize bool
	// Budget bounds oracle runs per minimized case (0 = DefaultBudget).
	Budget int
	// TestMaxSteps is the per-execution emulator step budget, which must
	// match the campaign that produced the cases so the divergences
	// reproduce (0 = harness.DefaultMaxSteps).
	TestMaxSteps int
	// Workers parallelizes per-case minimization. Like the campaign pools,
	// results merge in index order, so the report is byte-identical for any
	// value.
	Workers int
	// Baseline partitions cases into known and new; nil marks everything
	// new.
	Baseline *Baseline
	// Corpus, when non-nil, caches minimized cases content-addressed by the
	// original program, implementation pair, and budgets, so re-triaging a
	// campaign (or another job sharing the corpus) replays minimization
	// results instead of re-running oracles.
	Corpus *corpus.Corpus
}

// TriagedCase is one divergent test after triage.
type TriagedCase struct {
	TestID    string `json:"test_id"`
	Handler   string `json:"handler"`
	Mnemonic  string `json:"mnemonic"`
	ImplA     string `json:"impl_a"`
	ImplB     string `json:"impl_b"`
	Signature string `json:"signature"`
	RootCause string `json:"root_cause"`
	Known     bool   `json:"known"`

	Minimized *Minimized `json:"minimized,omitempty"`
}

// ClusterSummary aggregates the cases sharing one (impl, signature) pair.
type ClusterSummary struct {
	Impl      string `json:"impl"`
	Signature string `json:"signature"`
	RootCause string `json:"root_cause"`
	Count     int    `json:"count"`
	Known     bool   `json:"known"`
	Example   string `json:"example"` // lexically-smallest test ID in the cluster
}

// Report is the triage output: the known/new partition, the per-cluster
// aggregation, and (when minimization ran) the shrunk cases. Every slice is
// deterministically ordered, and the whole structure is map-free, so both
// Render and Encode are byte-stable.
type Report struct {
	Version int `json:"version"`

	Total      int `json:"total"` // divergent tests triaged
	Known      int `json:"known"`
	New        int `json:"new"`
	NewCluster int `json:"new_clusters"`

	Clusters []ClusterSummary `json:"clusters"`
	Cases    []TriagedCase    `json:"cases"`
}

// minimize is the minimizer Run calls; tests swap in a panicking one.
var minimize = Minimize

// Run triages a set of divergent cases: partition against the baseline,
// cluster, and (optionally) minimize each case on a bounded worker pool.
// Cases are processed in a canonical order and merged by index, so the
// report depends only on the input set, the baseline, and the budgets —
// never on Workers.
func Run(cases []CaseInfo, opts Options) (*Report, error) {
	ordered := append([]CaseInfo(nil), cases...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].TestID != ordered[j].TestID {
			return ordered[i].TestID < ordered[j].TestID
		}
		return ordered[i].ImplB < ordered[j].ImplB
	})

	rows := make([]TriagedCase, len(ordered))
	errs := make([]error, len(ordered))
	maxSteps := opts.TestMaxSteps
	if maxSteps <= 0 {
		maxSteps = harness.DefaultMaxSteps
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	boot := testgen.BaselineInit()

	runCase := func(i int) {
		c := ordered[i]
		rows[i] = TriagedCase{
			TestID: c.TestID, Handler: c.Handler, Mnemonic: c.Mnemonic,
			ImplA: c.ImplA, ImplB: c.ImplB,
			Signature: c.Signature, RootCause: c.RootCause,
			Known: opts.Baseline.Match(c.ImplB, c.Signature),
		}
		if !opts.Minimize {
			return
		}
		key := corpus.TriageKey{
			ProgSHA: corpus.ExecProgSHA(boot, c.Prog),
			Handler: c.Handler, ImplA: c.ImplA, ImplB: c.ImplB,
			MaxSteps: maxSteps, Budget: budget, TriageVersion: Version,
		}
		if opts.Corpus != nil {
			if ent, ok := opts.Corpus.GetTriage(key); ok {
				var m Minimized
				if json.Unmarshal(ent.Min, &m) == nil {
					rows[i].Minimized = &m
					return
				}
			}
		}
		m, err := minimize(c, maxSteps, budget)
		if err != nil {
			errs[i] = fmt.Errorf("triage: minimizing %s: %w", c.TestID, err)
			return
		}
		rows[i].Minimized = m
		if opts.Corpus != nil {
			if blob, err := json.Marshal(m); err == nil {
				// A failed cache write only costs the next run a re-minimize.
				_ = opts.Corpus.PutTriage(&corpus.TriageEntry{Key: key, Min: blob})
			}
		}
	}
	// A panicking case fails the triage run with an error naming the case;
	// it never takes the process (a pokeemud request) down with it.
	panics, _ := fanout.Run(context.TODO(), opts.Workers, len(ordered), runCase)
	for i, p := range panics {
		if p != nil {
			errs[i] = fmt.Errorf("triage: minimizing %s: panic: %v", ordered[i].TestID, p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	r := &Report{Version: ReportVersion, Cases: rows, Total: len(rows)}
	type ckey struct{ impl, sig string }
	clusters := map[ckey]*ClusterSummary{}
	for _, row := range rows {
		if row.Known {
			r.Known++
		} else {
			r.New++
		}
		k := ckey{row.ImplB, row.Signature}
		cl := clusters[k]
		if cl == nil {
			cl = &ClusterSummary{
				Impl: row.ImplB, Signature: row.Signature,
				RootCause: row.RootCause, Known: row.Known, Example: row.TestID,
			}
			clusters[k] = cl
		}
		cl.Count++
		if row.TestID < cl.Example {
			cl.Example = row.TestID
		}
	}
	for _, cl := range clusters {
		r.Clusters = append(r.Clusters, *cl)
		if !cl.Known {
			r.NewCluster++
		}
	}
	sort.Slice(r.Clusters, func(i, j int) bool {
		if r.Clusters[i].Impl != r.Clusters[j].Impl {
			return r.Clusters[i].Impl < r.Clusters[j].Impl
		}
		return r.Clusters[i].Signature < r.Clusters[j].Signature
	})
	return r, nil
}

// SuggestedBaseline builds the baseline that would suppress every cluster
// in the report — what a CI pipeline records after a triaged run so the
// next run reports only regressions.
func (r *Report) SuggestedBaseline() *Baseline {
	b := NewBaseline()
	b.Update(r)
	return b
}

// Render formats the report for humans. Fully deterministic: same cases,
// baseline, and budgets produce identical bytes for any worker count.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "triage: %d divergent tests in %d clusters; known %d tests, new %d tests (%d new clusters)\n",
		r.Total, len(r.Clusters), r.Known, r.New, r.NewCluster)
	for _, cl := range r.Clusters {
		status := "NEW  "
		if cl.Known {
			status = "known"
		}
		fmt.Fprintf(&b, "  %s %-8s %-44s %4d tests  %s\n",
			status, cl.Impl, cl.Signature, cl.Count, cl.RootCause)
	}
	var minimized, reproduced, origBytes, finalBytes, runs int
	for _, c := range r.Cases {
		if c.Minimized == nil {
			continue
		}
		minimized++
		origBytes += c.Minimized.OrigBytes
		finalBytes += c.Minimized.FinalBytes
		runs += c.Minimized.OracleRuns
		if c.Minimized.Reproduced {
			reproduced++
		}
	}
	if minimized > 0 {
		fmt.Fprintf(&b, "minimized: %d/%d reproduced; bytes %d -> %d (%.1f%%), %d oracle runs\n",
			reproduced, minimized, origBytes, finalBytes,
			100*float64(finalBytes)/float64(max(1, origBytes)), runs)
		for _, c := range r.Cases {
			m := c.Minimized
			if m == nil || !m.Reproduced {
				continue
			}
			fmt.Fprintf(&b, "  %-24s %-8s %3dB/%d atoms -> %3dB/%d atoms  (-%d atoms, %d imm bytes zeroed, -%dB instr, %d runs)\n",
				c.TestID, c.ImplB, m.OrigBytes, m.OrigAtoms, m.FinalBytes, m.FinalAtoms,
				m.DroppedAtoms, m.ZeroedBytes, m.TruncatedBytes, m.OracleRuns)
		}
	}
	return b.String()
}

// Encode serializes the report with a stable byte representation.
func (r *Report) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("triage: encoding report: %w", err)
	}
	return append(out, '\n'), nil
}

// DecodeReport parses and version-checks a serialized report.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("triage: decoding report: %w", err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("triage: report version %d, want %d", r.Version, ReportVersion)
	}
	return &r, nil
}
