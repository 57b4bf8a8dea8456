package campaign

import (
	"strings"
	"sync"
	"testing"

	"pokeemu/internal/corpus"
	"pokeemu/internal/symex"
)

// smallConfig is a fast two-handler campaign used by the corpus and
// determinism tests.
func smallConfig() Config {
	return Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "add_rmv_rv"},
		Seed:             1,
	}
}

// TestCorpusColdWarm checks the tentpole contract: a warm re-run resolves
// every instruction (and the descriptor-parse summaries) from the corpus,
// skips exploration entirely, and still renders a byte-identical report.
func TestCorpusColdWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cache.Enabled {
		t.Fatal("cache not enabled with CorpusDir set")
	}
	if cold.Cache.InstrMisses != 2 || cold.Cache.InstrHits != 0 {
		t.Fatalf("cold run cache = %+v, want 2 misses", cold.Cache)
	}
	if cold.Cache.SummaryHit {
		t.Error("cold run claims a summary hit")
	}
	if cold.Cache.TestsGenerated == 0 {
		t.Fatal("cold run generated no tests")
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.InstrHits != 2 || warm.Cache.InstrMisses != 0 {
		t.Fatalf("warm run cache = %+v, want 2 hits", warm.Cache)
	}
	if warm.Cache.TestsCached != cold.Cache.TestsGenerated {
		t.Errorf("warm run loaded %d tests, cold generated %d",
			warm.Cache.TestsCached, cold.Cache.TestsGenerated)
	}
	// Fully warm: the explorer is never built, so exploration cost only the
	// corpus lookups.
	if !warm.Cache.SummaryHit {
		t.Error("warm run missed the descriptor-parse summaries")
	}
	if cs, ws := cold.Summary(), warm.Summary(); cs != ws {
		t.Errorf("cold and warm summaries differ:\ncold:\n%s\nwarm:\n%s", cs, ws)
	}
	if cold.SummaryPaths == 0 || cold.SummaryPaths != warm.SummaryPaths {
		t.Errorf("summary paths: cold %d, warm %d", cold.SummaryPaths, warm.SummaryPaths)
	}
}

// TestCorpusNamespace pins the corpus namespace every campaign writes: a
// default cold run stores its descriptor-parse summaries under the plain
// "bochs" configuration label, and a second run is fully warm. Existing
// corpora and the benchmark's traced replica read this key.
func TestCorpusNamespace(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	crp, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := crp.GetSummary(corpus.SummaryKey{Config: "bochs", SymexVersion: symex.SerialVersion}); !ok {
		t.Error("cold run stored no summary under the \"bochs\" configuration label")
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.InstrMisses != 0 || !warm.Cache.SummaryHit {
		t.Errorf("second run cache = %+v, want fully warm", warm.Cache)
	}
}

// TestNoCacheForcesCold checks that -no-cache bypasses reads on a warm
// corpus but still refreshes it.
func TestNoCacheForcesCold(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.NoCache = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.InstrHits != 0 || res.Cache.InstrMisses != 2 {
		t.Errorf("no-cache run cache = %+v, want all misses", res.Cache)
	}
	if res.Cache.SummaryHit {
		t.Error("no-cache run used cached summaries")
	}
}

// TestResumeCachesExecution checks that -resume replays cached trio
// outcomes: the second run executes nothing and reports identically.
func TestResumeCachesExecution(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir
	cfg.Resume = true

	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.ExecHits != 0 || first.Cache.ExecMisses != first.TotalTests {
		t.Fatalf("first run exec cache = %+v over %d tests", first.Cache, first.TotalTests)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache.ExecHits != second.TotalTests || second.Cache.ExecMisses != 0 {
		t.Fatalf("resumed run exec cache = %+v over %d tests", second.Cache, second.TotalTests)
	}
	if fs, ss := first.Summary(), second.Summary(); fs != ss {
		t.Errorf("resumed summary differs:\nfirst:\n%s\nsecond:\n%s", fs, ss)
	}
	if first.LoFiDiffTests != second.LoFiDiffTests || first.HiFiDiffTests != second.HiFiDiffTests {
		t.Errorf("diff counts changed across resume: %d/%d vs %d/%d",
			first.LoFiDiffTests, first.HiFiDiffTests,
			second.LoFiDiffTests, second.HiFiDiffTests)
	}
}

// TestPanicIsolation checks that a crashing handler costs one fault record,
// not the campaign: the other instructions still produce tests, and the
// fault appears deterministically in the summary.
func TestPanicIsolation(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	cfg.testHookInstr = func(key string) {
		if key == "push_r" {
			panic("injected explorer crash")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstrFaults != 1 {
		t.Fatalf("InstrFaults = %d, want 1", res.InstrFaults)
	}
	if len(res.Faults) != 1 || res.Faults[0].Stage != "explore" ||
		res.Faults[0].Key != "push_r" ||
		!strings.Contains(res.Faults[0].Err, "injected explorer crash") {
		t.Fatalf("fault record = %+v", res.Faults)
	}
	if res.TotalTests == 0 {
		t.Error("surviving instruction generated no tests")
	}
	if s := res.Summary(); !strings.Contains(s, "injected explorer crash") {
		t.Errorf("summary does not surface the fault:\n%s", s)
	}
}

// TestExecPanicIsolation checks the same for the execution stage: a test
// whose worker panics is excluded from diffing but the campaign completes.
func TestExecPanicIsolation(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	var mu sync.Mutex
	crashed := false
	cfg.testHookExec = func(id string) {
		mu.Lock()
		mine := !crashed
		crashed = true
		mu.Unlock()
		if mine { // exactly one victim; any test will do
			panic("injected executor crash")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecFaults != 1 {
		t.Fatalf("ExecFaults = %d, want 1", res.ExecFaults)
	}
	if res.LoFiDiffTests == 0 && res.HiFiDiffTests == 0 && res.TotalTests < 2 {
		t.Error("no surviving tests were compared")
	}
}
