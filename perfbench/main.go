// Command perfbench is the repository's benchmark: three batch workloads
// (mix_cold, retest_vote, equiv_matrix), each phase in a fresh process, with
// every time taken as CPU seconds of the measured process. With -trace 1 it
// also runs a traced replica of the pipeline and reports per-layer numbers.
// See README.md; run it from the repository root through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pokeemu/internal/equivcheck"
)

var workloads = []string{"mix_cold", "retest_vote", "equiv_matrix"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root (for known_diverges.json)
	state    string // run ledger, digests, scratch corpora and spans
	size     size
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"}, {"setup_s", "s"}, {"alloc_gb", "GB"},
	{"peak_rss_mb", "MB"}, {"ok_frac", "frac"}, {"decided_frac", "frac"},
}

// perLayer lists the traced metrics and their units.
var perLayer = []struct{ name, unit string }{
	{"core.instrset_s", "s"}, {"core.new_explorer_s", "s"},
	{"symex.explore_s", "s"}, {"symex.explore_ms_p50", "ms"}, {"symex.explore_ms_max", "ms"},
	{"symex.explore_ms_p98", "ms"}, {"symex.paths", "count"}, {"symex.exhausted_frac", "frac"},
	{"solver.queries", "count"}, {"solver.memo_hit_frac", "frac"}, {"solver.subsume_frac", "frac"},
	{"solver.conflicts", "count"}, {"solver.propagations", "count"}, {"solver.props_per_cpu_s", "1/s"},
	{"solver.restarts", "count"}, {"solver.reduce_removed", "count"}, {"expr.intern_hit_frac", "frac"},
	{"testgen.build_s", "s"}, {"testgen.verify_s", "s"}, {"testgen.yield_frac", "frac"},
	{"harness.fidelis_s", "s"}, {"harness.celer_s", "s"}, {"harness.lento_s", "s"}, {"harness.hwsim_s", "s"},
	{"harness.test_us_p50", "us"}, {"harness.test_us_p99", "us"}, {"harness.fidelis_us_p99", "us"},
	{"harness.steps", "count"}, {"harness.fidelis_steps_per_s", "1/s"},
	{"diff.compare_s", "s"}, {"diff.compare_us_p50", "us"}, {"diff.compare_us_p99", "us"},
	{"diff.signature_s", "s"}, {"diff.vote_s", "s"}, {"diff.lofi_tests", "count"}, {"diff.hifi_tests", "count"},
	{"diff.vote_majority", "count"},
	{"corpus.put_instr_s", "s"}, {"corpus.put_summary_s", "s"}, {"corpus.get_instr_s", "s"},
	{"corpus.bytes", "bytes"},
	{"equivcheck.handler_ms_p50", "ms"}, {"equivcheck.handler_ms_p98", "ms"},
	{"equivcheck.handler_s_max", "s"}, {"equivcheck.budget_exhausted_s", "s"},
	{"campaign.other_s", "s"},
	{"runtime.gc_cpu_frac", "frac"}, {"runtime.gc_cycles", "count"}, {"runtime.alloc_objects_m", "M"},
	{"host.wall_s", "s"}, {"host.steal_frac", "frac"}, {"trace.overhead_frac", "frac"},
}

// outcome is what a workload measured and checked.
type outcome struct {
	setup    []float64 // CPU seconds of each set-up sample
	timed    []usage   // one per repetition of the timed phase
	units    int       // tests executed, or handlers checked, over all repetitions
	failed   int       // units that faulted or failed a check
	decided  float64
	problems []string // every failed check
	// runFailed is set by a failed run-level check: no unit of the run
	// passes then.
	runFailed bool
	// Traced runs only.
	layers map[string]float64
}

// fail records a run-level check failure.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.runFailed = true
}

// failUnit records one unit's failed check.
func (o *outcome) failUnit(msg string) {
	o.problems = append(o.problems, msg)
	o.failed++
}

// runner runs one workload's phases.
type runner struct {
	opts    options
	work    string // scratch directory of this run
	digests digestStore
	binary  string // binaryDigest of this build
}

// repeat runs the timed phase in fresh processes while another repetition
// fits in the -seconds budget, at least once.
func (d *runner) repeat(spec phaseSpec, each func(*phaseOut)) ([]usage, error) {
	budget := time.Duration(d.opts.seconds) * time.Second
	start := time.Now()
	var uses []usage
	for {
		t := time.Now()
		out, err := spawn(spec)
		if err != nil {
			return nil, err
		}
		each(out)
		uses = append(uses, out.Use)
		if time.Since(start)+time.Since(t) > budget {
			return uses, nil
		}
	}
}

// instrSetSetup times the instruction-set exploration in fresh processes.
func (d *runner) instrSetSetup(o *outcome) error {
	for i := 0; i < d.opts.size.instrsetRuns; i++ {
		out, err := spawn(phaseSpec{Kind: kindInstrSet})
		if err != nil {
			return err
		}
		o.setup = append(o.setup, out.Use.CPU)
	}
	return nil
}

// pin checks data against the digest every earlier run of this build with
// the same workload, size settings and (when the workload uses it) seed
// recorded.
func (d *runner) pin(o *outcome, kind string, seeded bool, data []byte) error {
	key := pinKey(d.binary, d.opts.workload, kind, d.opts.size, d.opts.seed, seeded)
	msg, err := d.digests.check(key, data)
	if msg != "" {
		o.fail("%s", msg)
	}
	return err
}

func (d *runner) spansPath(phase string) string {
	return filepath.Join(d.opts.state, "trace", fmt.Sprintf("%s-%s-seed%d-%s.jsonl",
		d.opts.workload, d.opts.size.name, d.opts.seed, phase))
}

// mixCold: a cold campaign over the 14-handler mix, no corpus.
func (d *runner) mixCold() (*outcome, error) {
	o := &outcome{}
	if err := d.instrSetSetup(o); err != nil {
		return nil, err
	}
	spec := campaignSpec{Handlers: d.opts.size.mixHandlers, Cap: d.opts.size.mixCap, Seed: d.opts.seed}
	var first *phaseOut
	uses, err := d.repeat(phaseSpec{Kind: kindCampaign, Campaign: spec}, func(out *phaseOut) {
		c := out.Counts
		o.units += c.Tests
		o.failed += c.Faults
		o.decided = ratio(float64(c.Exhausted), float64(c.Instrs))
		if !out.DegradedEmpty || c.Faults != 0 {
			o.fail("campaign degraded or faulted (%d faults)", c.Faults)
		}
		if first == nil {
			first = out
		} else if out.Summary != first.Summary {
			o.fail("campaign summary differs between repetitions of one seed")
		}
	})
	if err != nil {
		return nil, err
	}
	o.timed = uses
	if err := d.pin(o, "summary", true, []byte(first.Summary)); err != nil {
		return nil, err
	}
	c := first.Counts
	if d.opts.seed == 1 && d.opts.size.name == "full" {
		got := struct{ tests, lofi, hifi, causes int }{c.Tests, c.LoFi, c.HiFi, len(c.Causes)}
		if got != mixSeed1 {
			o.fail("seed 1 gave tests/lofi/hifi/causes %v, want %v", got, mixSeed1)
		}
	}
	if d.opts.trace {
		rep, err := spawn(phaseSpec{Kind: kindReplicaCampaign, Campaign: spec, Spans: d.spansPath("timed")})
		if err != nil {
			return nil, err
		}
		if !rep.Counts.equal(*c) {
			o.fail("traced replica counts %+v differ from the untraced run's %+v", *rep.Counts, *c)
		}
		o.layers = rep.Layers
		o.layers["trace.overhead_frac"] = rep.Use.Wall/medianOf(uses, wallOf) - 1
	}
	return o, nil
}

// retestVote: a cold campaign into a fresh corpus is the set-up; the timed
// phase re-runs it warm with voting, re-executing every test on all four
// emulators.
func (d *runner) retestVote() (*outcome, error) {
	o := &outcome{}
	sz := d.opts.size
	setupSpec := campaignSpec{
		Handlers: sz.retestHandlers, Cap: sz.retestCap, Seed: d.opts.seed,
		Corpus: filepath.Join(d.work, "corpus"),
	}
	setup, err := spawn(phaseSpec{Kind: kindCampaign, Campaign: setupSpec})
	if err != nil {
		return nil, err
	}
	o.setup = []float64{setup.Use.CPU}
	if !setup.DegradedEmpty || setup.Counts.Faults != 0 {
		o.fail("set-up campaign degraded or faulted")
	}
	timedSpec := setupSpec
	timedSpec.Vote = true
	var first *phaseOut
	uses, err := d.repeat(phaseSpec{Kind: kindCampaign, Campaign: timedSpec}, func(out *phaseOut) {
		c := out.Counts
		o.units += c.Tests
		o.failed += c.Faults
		o.decided = ratio(float64(c.Exhausted), float64(c.Instrs))
		switch {
		case !out.DegradedEmpty || c.Faults != 0:
			o.fail("warm campaign degraded or faulted (%d faults)", c.Faults)
		case withoutVoteLines(out.Summary) != setup.Summary:
			o.fail("warm summary without its vote lines differs from the set-up summary")
		case out.InstrMisses != 0 || out.ExecHits != 0:
			o.fail("warm run was not warm or did not re-execute (instr misses %d, exec hits %d)",
				out.InstrMisses, out.ExecHits)
		case c.VoteSplits != 0 || !onlyCelerBlamed(c):
			o.fail("vote: %d splits, blame %v over %d majorities; want 0 splits and every majority on celer",
				c.VoteSplits, c.Blame, c.VoteMajority)
		}
		if first == nil {
			first = out
		} else if out.Summary != first.Summary {
			o.fail("warm summary differs between repetitions")
		}
	})
	if err != nil {
		return nil, err
	}
	o.timed = uses
	if err := d.pin(o, "summary", true, []byte(first.Summary)); err != nil {
		return nil, err
	}
	if d.opts.trace {
		// The replica repeats the set-up into a corpus of its own, for the
		// per-handler exploration and corpus-write spans, then the timed
		// phase over it.
		repSetupSpec := setupSpec
		repSetupSpec.Corpus = filepath.Join(d.work, "replica-corpus")
		rs, err := spawn(phaseSpec{Kind: kindReplicaCampaign, Campaign: repSetupSpec, Spans: d.spansPath("setup")})
		if err != nil {
			return nil, err
		}
		if !rs.Counts.equal(*setup.Counts) {
			o.fail("traced set-up replica counts %+v differ from the untraced set-up's %+v", *rs.Counts, *setup.Counts)
		}
		repTimedSpec := repSetupSpec
		repTimedSpec.Vote = true
		rt, err := spawn(phaseSpec{Kind: kindReplicaCampaign, Campaign: repTimedSpec, Spans: d.spansPath("timed")})
		if err != nil {
			return nil, err
		}
		if !rt.Counts.equal(*first.Counts) {
			o.fail("traced replica counts %+v differ from the untraced run's %+v", *rt.Counts, *first.Counts)
		}
		o.layers = rt.Layers
		// Exploration, generation, the solver and corpus writes happen only
		// in the set-up; take their numbers from the set-up replica.
		for k, v := range rs.Layers {
			if strings.HasPrefix(k, "symex.") || strings.HasPrefix(k, "solver.") ||
				strings.HasPrefix(k, "expr.") || strings.HasPrefix(k, "testgen.") ||
				strings.HasPrefix(k, "corpus.put_") || k == "core.new_explorer_s" {
				o.layers[k] = v
			}
		}
		o.layers["corpus.bytes"] = float64(setup.CorpusBytes)
		o.layers["trace.overhead_frac"] = rt.Use.Wall/medianOf(uses, wallOf) - 1
	}
	return o, nil
}

// equivMatrix: the symbolic equivalence check over every handler.
func (d *runner) equivMatrix() (*outcome, error) {
	o := &outcome{}
	known, err := knownDiverges(d.opts.root)
	if err != nil {
		return nil, err
	}
	ref, err := loadEquivReference()
	if err != nil {
		return nil, err
	}
	if ref.MaxConflicts != d.opts.size.equivConflicts {
		return nil, fmt.Errorf("equiv reference was recorded at %d conflicts, workload runs %d",
			ref.MaxConflicts, d.opts.size.equivConflicts)
	}
	if err := d.instrSetSetup(o); err != nil {
		return nil, err
	}
	spec := equivSpec{Handlers: d.opts.size.equivHandlers, Conflicts: d.opts.size.equivConflicts}
	var first []byte
	var decodeErr error
	uses, err := d.repeat(phaseSpec{Kind: kindEquiv, Equiv: spec}, func(out *phaseOut) {
		rep, err := equivcheck.DecodeReport(out.Report)
		if err != nil {
			decodeErr = err
			return
		}
		o.units += len(rep.Handlers)
		for _, msg := range checkEquivReport(rep, known, ref) {
			o.failUnit(msg)
		}
		o.decided = ratio(float64(rep.Equiv+rep.Diverges), float64(len(rep.Handlers)))
		if first == nil {
			first = out.Report
		} else if string(out.Report) != string(first) {
			o.fail("report bytes differ between repetitions")
		}
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	o.timed = uses
	if err := d.pin(o, "report", false, first); err != nil {
		return nil, err
	}
	if d.opts.trace {
		rep, err := spawn(phaseSpec{Kind: kindReplicaEquiv, Equiv: spec, Spans: d.spansPath("timed")})
		if err != nil {
			return nil, err
		}
		if string(rep.Report) != string(first) {
			o.fail("traced replica's verdict matrix differs from the untraced run's")
		}
		o.layers = rep.Layers
		o.layers["trace.overhead_frac"] = rep.Use.Wall/medianOf(uses, wallOf) - 1
	}
	return o, nil
}

func wallOf(u usage) float64 { return u.Wall }

func medianOf(us []usage, f func(usage) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = f(u)
	}
	return median(xs)
}

// metrics turns an outcome into the reported metrics of the run's kind.
func (o *outcome) metrics(trace bool) map[string]metric {
	m := map[string]metric{}
	if !trace {
		vals := map[string]float64{
			"cpu_s":        medianOf(o.timed, func(u usage) float64 { return u.CPU }),
			"setup_s":      median(o.setup),
			"alloc_gb":     medianOf(o.timed, func(u usage) float64 { return float64(u.AllocBytes) / 1e9 }),
			"peak_rss_mb":  medianOf(o.timed, func(u usage) float64 { return float64(u.PeakRSSKB) / 1024 }),
			"ok_frac":      o.okFrac(),
			"decided_frac": o.decided,
		}
		for _, e := range endToEnd {
			m[e.name] = metric{vals[e.name], e.unit}
		}
		return m
	}
	vals := o.layers
	vals["runtime.gc_cpu_frac"] = medianOf(o.timed, func(u usage) float64 { return ratio(u.GCCPU, u.CPU) })
	vals["runtime.gc_cycles"] = medianOf(o.timed, func(u usage) float64 { return float64(u.GCCycles) })
	vals["runtime.alloc_objects_m"] = medianOf(o.timed, func(u usage) float64 { return float64(u.AllocObjects) / 1e6 })
	vals["host.wall_s"] = medianOf(o.timed, wallOf)
	vals["host.steal_frac"] = medianOf(o.timed, func(u usage) float64 { return u.Steal })
	for _, e := range perLayer {
		m[e.name] = metric{vals[e.name], e.unit}
	}
	return m
}

func (o *outcome) okFrac() float64 {
	if o.runFailed || o.units == 0 {
		return 0
	}
	return float64(o.units-o.failed) / float64(o.units)
}

func (o *outcome) result(trace bool) result {
	r := result{
		Correct:   len(o.problems) == 0 && o.units > 0,
		Attempted: max(o.units, 1),
		Failed:    o.failed,
		Metrics:   o.metrics(trace),
	}
	if o.runFailed {
		r.Failed = r.Attempted
	}
	return r
}

// ledgerEntry is one run's record in the state directory's runs.jsonl.
type ledgerEntry struct {
	Time     string    `json:"time"`
	Host     hostInfo  `json:"host"`
	Workload string    `json:"workload"`
	Size     string    `json:"size"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	SetupCPU []float64 `json:"setup_cpu_s"`
	Timed    []usage   `json:"timed"`
	Problems []string  `json:"problems,omitempty"`
	Result   result    `json:"result"`
}

func appendLedger(path string, e ledgerEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes one benchmark run and returns its result line.
func run(opts options) (result, error) {
	for _, dir := range []string{opts.state, filepath.Join(opts.state, "trace")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
	}
	work, err := os.MkdirTemp(opts.state, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	binary, err := binaryDigest()
	if err != nil {
		return result{}, err
	}
	d := &runner{opts: opts, work: work, binary: binary, digests: digestStore{filepath.Join(opts.state, "digests")}}
	var o *outcome
	switch opts.workload {
	case "mix_cold":
		o, err = d.mixCold()
	case "retest_vote":
		o, err = d.retestVote()
	case "equiv_matrix":
		o, err = d.equivMatrix()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return result{}, err
	}
	res := o.result(opts.trace)
	for i, u := range o.timed {
		fmt.Printf("perfbench %s repetition %d: cpu_s %.3f, wall_s %.3f, steal_frac %.4f\n",
			opts.workload, i+1, u.CPU, u.Wall, u.Steal)
	}
	host := fingerprint()
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	err = appendLedger(filepath.Join(opts.state, "runs.jsonl"), ledgerEntry{
		Time: time.Now().UTC().Format(time.RFC3339), Host: host,
		Workload: opts.workload, Size: opts.size.name, Seed: opts.seed, Seconds: opts.seconds,
		Trace: opts.trace, SetupCPU: o.setup, Timed: o.timed, Problems: o.problems, Result: res,
	})
	return res, err
}

func main() {
	if spec, ok := os.LookupEnv(phaseEnv); ok {
		os.Exit(phaseMain(spec))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 30, "time budget of the timed phase's repetitions")
	fs.IntVar(&trace, "trace", 0, "1 = also run the traced replica and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || opts.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload, -seed, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	// Run from the repository root; everything the run leaves goes under
	// .bench_build/, as run.sh's build does.
	opts.trace, opts.size = trace == 1, fullSize
	opts.root, opts.state = ".", filepath.Join(".bench_build", "perfbench-state")
	host := fingerprint()
	hostLine, _ := json.Marshal(host)
	fmt.Printf("perfbench host %s\n", hostLine)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("perfbench %s %-32s %14.6g %s\n", opts.workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
