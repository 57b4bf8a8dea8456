package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"pokeemu/internal/equivcheck"
)

// TestMain lets the test binary serve as the phase child, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(phaseEnv); ok {
		os.Exit(phaseMain(spec))
	}
	os.Exit(m.Run())
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark prints
// in step with the names and units BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ name, unit string }
		want []decl
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json declares %s (%s)",
					c.kind, i, c.got[i].name, c.got[i].unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i])
		}
	}
}

// tailPercentile picks the highest percentile of a ladder that has at least
// ten of n samples beyond it, so the tail it names is not one or two
// outliers. It returns 0 when n is too small for any of them; only the
// median and the maximum mean anything then.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 75, 50} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// TestTailPercentile checks the selection rule, and that every tail metric
// the benchmark reports sits at the percentile the rule picks for the
// samples of the workload it is meant for.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{14, 0},    // mix_cold's explore samples: report p50 and max
		{19, 0},    // p50 leaves only 9 above
		{20, 50},   // p50 leaves 10 above
		{40, 75},   // p75 leaves 10 above
		{672, 98},  // p99 would leave 6, p98 leaves 13
		{1287, 99}, // p99 leaves 12
		{9999, 99}, // p99.9 would leave 9
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for _, c := range []struct {
		metric string
		n      int // samples on the metric's workload
	}{
		{"symex.explore_ms_p98", 672},      // retest_vote set-up: one per handler
		{"equivcheck.handler_ms_p98", 672}, // equiv_matrix: one per handler
		{"harness.test_us_p99", mixSeed1.tests},
		{"harness.fidelis_us_p99", mixSeed1.tests},
		{"diff.compare_us_p99", 2 * mixSeed1.tests}, // celer and fidelis per test
	} {
		_, suffix, _ := strings.Cut(c.metric, "_p")
		p, err := strconv.ParseFloat(suffix, 64)
		if !declared[c.metric] || err != nil {
			t.Errorf("%s: not a declared tail metric", c.metric)
			continue
		}
		if got := tailPercentile(c.n); got != p {
			t.Errorf("%s: %d samples support p%v, the metric reports p%v", c.metric, c.n, got, p)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestParseCPUStat(t *testing.T) {
	a, err := parseCPUStat([]byte("cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != 1000 || a.Steal != 32 {
		t.Fatalf("parsed %+v, want total 1000 steal 32", a)
	}
	b, err := parseCPUStat([]byte("cpu  200 5 100 1500 10 1 2 182 7 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(a, b); got != 0.15 {
		t.Errorf("steal fraction = %v, want 0.15", got)
	}
	if got := stealFrac(b, b); got != 0 {
		t.Errorf("steal over no ticks = %v, want 0", got)
	}
	for _, bad := range []string{"", "intr 1 2 3\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseCPUStat([]byte(bad)); err == nil {
			t.Errorf("parseCPUStat(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	if got, err := parseVmHWM([]byte(status)); err != nil || got != 123456 {
		t.Errorf("parseVmHWM = %v, %v; want 123456", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestRusageSeconds(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 2, Usec: 750000},
	}
	if got := rusageSeconds(ru); got != 4.25 {
		t.Errorf("rusageSeconds = %v, want 4.25", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "campaign", Parent: -1, Start: 0, End: 100},
		{Name: "symex.explore", ID: "a", Parent: 0, Start: 10, End: 40},
		{Name: "testgen.build", ID: "a", Parent: 0, Start: 40, End: 50},
		{Name: "harness.fidelis", ID: "t1", Parent: 0, Start: 50, End: 60},
		{Name: "harness.celer", ID: "t1", Parent: 0, Start: 60, End: 65},
		{Name: "harness.fidelis", ID: "t2", Parent: 0, Start: 65, End: 90},
	}}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
	if got := tr.selfTime(0); !near(got, 20e-9) {
		t.Errorf("root self time = %v, want 20ns", got)
	}
	legs := tr.byID("harness.fidelis", "harness.celer")
	if len(legs) != 2 || !near(legs[0], 15e-9) || !near(legs[1], 25e-9) {
		t.Errorf("per-test leg sums = %v, want [15ns 25ns]", legs)
	}
	live := newTracer()
	outer := live.begin("campaign", "")
	inner := live.begin("symex.explore", "x")
	live.end(inner)
	live.end(outer)
	if live.spans[inner].Parent != outer || live.spans[outer].Parent != -1 {
		t.Errorf("parents = %d, %d; want %d, -1", live.spans[inner].Parent, live.spans[outer].Parent, outer)
	}
}

func TestWithoutVoteLines(t *testing.T) {
	warm := "test programs: 3\nvote (fidelis/celer/lento): 1 agree, 2 majority, 0 split\n" +
		"  blame: celer      2 tests\nfaults: explore 0, execute 0, timeouts 0\n"
	want := "test programs: 3\nfaults: explore 0, execute 0, timeouts 0\n"
	if got := withoutVoteLines(warm); got != want {
		t.Errorf("withoutVoteLines = %q, want %q", got, want)
	}
}

func TestCheckEquivReport(t *testing.T) {
	ref := &equivReference{Verdicts: map[string]string{
		"a": equivcheck.VerdictEquiv, "b": equivcheck.VerdictDiverges,
		"c": equivcheck.VerdictUnknown, "d": equivcheck.VerdictDiverges,
	}}
	known := map[string]bool{"b": true, "d": true}
	replayed := &equivcheck.Counterexample{Replayed: true}
	rep := &equivcheck.Report{Handlers: []*equivcheck.HandlerVerdict{
		{Handler: "a", Verdict: equivcheck.VerdictEquiv},
		{Handler: "b", Verdict: equivcheck.VerdictDiverges, CE: replayed},
		{Handler: "c", Verdict: equivcheck.VerdictEquiv}, // UNKNOWN -> decided is allowed
		{Handler: "d", Verdict: equivcheck.VerdictDiverges, CE: replayed},
	}}
	if bad := checkEquivReport(rep, known, ref); len(bad) != 0 {
		t.Fatalf("clean report failed: %v", bad)
	}
	rep.Handlers[0].Verdict, rep.Handlers[0].CE = equivcheck.VerdictDiverges, replayed // unknown divergence
	rep.Handlers[1].CE = &equivcheck.Counterexample{}                                  // not replayed
	rep.Handlers[3].Verdict, rep.Handlers[3].CE = equivcheck.VerdictEquiv, nil         // flip
	bad := checkEquivReport(rep, known, ref)
	if len(bad) != 3 {
		t.Fatalf("want 3 failures, got %v", bad)
	}
	for i, frag := range []string{"outside known", "not reproduced", "flipped DIVERGES -> EQUIV"} {
		if !strings.Contains(bad[i], frag) {
			t.Errorf("failure %d = %q, want it to mention %q", i, bad[i], frag)
		}
	}
}

func TestOutcomeResult(t *testing.T) {
	o := &outcome{units: 10}
	if r := o.result(false); !r.Correct || r.Failed != 0 || r.Metrics["ok_frac"].Value != 1 {
		t.Fatalf("clean outcome: %+v", r)
	}
	o.failUnit("h: flipped")
	if r := o.result(false); r.Correct || r.Failed != 1 || r.Metrics["ok_frac"].Value != 0.9 {
		t.Fatalf("one failed unit: correct %v, failed %d, ok_frac %v", r.Correct, r.Failed, r.Metrics["ok_frac"].Value)
	}
	o.fail("summary differs")
	if r := o.result(false); r.Correct || r.Failed != 10 || r.Metrics["ok_frac"].Value != 0 {
		t.Fatalf("run-level failure: correct %v, failed %d, ok_frac %v", r.Correct, r.Failed, r.Metrics["ok_frac"].Value)
	}
}

func TestDigestStore(t *testing.T) {
	d := digestStore{t.TempDir()}
	key := pinKey("aaaa", "equiv_matrix", "report", fullSize, 1, false)
	for _, data := range []string{"report", "report"} {
		if msg, err := d.check(key, []byte(data)); err != nil || msg != "" {
			t.Fatalf("check(%q) = %q, %v; want a pass", data, msg, err)
		}
	}
	if msg, err := d.check(key, []byte("other")); err != nil || msg == "" {
		t.Fatalf("changed output passed the digest pin (%q, %v)", msg, err)
	}
	// A different binary is different code: its output is pinned afresh,
	// so a solver change that moves a verdict or a model does not fail.
	other := pinKey("bbbb", "equiv_matrix", "report", fullSize, 1, false)
	if msg, err := d.check(other, []byte("other")); err != nil || msg != "" {
		t.Fatalf("changed output under another binary = %q, %v; want a pass", msg, err)
	}
	if pinKey("aaaa", "mix_cold", "summary", fullSize, 1, true) == pinKey("aaaa", "mix_cold", "summary", fullSize, 2, true) {
		t.Error("seeded pin keys of two seeds are equal")
	}
	if pinKey("aaaa", "mix_cold", "summary", fullSize, 1, true) == pinKey("aaaa", "mix_cold", "summary", tinySize, 1, true) {
		t.Error("pin keys of two sizes are equal")
	}
}

func TestBinaryDigest(t *testing.T) {
	a, err := binaryDigest()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := binaryDigest(); len(a) != 64 || a != b {
		t.Errorf("binaryDigest = %q then %q, want one 64-digit hex digest", a, b)
	}
}

// TestSmoke runs every workload end to end at the tiny size: untraced on
// seed 1 twice (the second run checks the digest pin), then traced on seed 2,
// whose replica must reproduce the untraced counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark phases")
	}
	state := t.TempDir()
	for _, w := range workloads {
		for _, c := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {1, false}, {2, true}} {
			res, err := run(options{
				workload: w, seed: c.seed, seconds: 1, trace: c.trace,
				root: "..", state: state, size: tinySize,
			})
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", w, c.seed, c.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s seed %d trace %v: correct %v, %d of %d failed",
					w, c.seed, c.trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if c.trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s: metric %s missing", w, m.name)
				}
			}
			if !c.trace {
				for _, name := range []string{"cpu_s", "setup_s", "alloc_gb", "peak_rss_mb", "ok_frac", "decided_frac"} {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, name, v)
					}
				}
				if v := res.Metrics["ok_frac"].Value; v != 1 {
					t.Errorf("%s: ok_frac = %v, want 1", w, v)
				}
			}
		}
	}
}
