package campaign

import (
	"reflect"
	"testing"
)

// TestWorkerDeterminism is the campaign's determinism property: the Result
// summary and every deterministic field are byte-identical whether the
// pipeline runs sequentially or over eight workers. Timings and cache
// counters are the only run-dependent state, and they are rendered by
// TimingTable, never Summary.
func TestWorkerDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv", "shl_rmv_imm8"},
		Seed:             7,
	}
	cfg.Workers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if s1, s8 := seq.Summary(), par.Summary(); s1 != s8 {
		t.Errorf("summaries differ between Workers=1 and Workers=8:\n--- 1:\n%s\n--- 8:\n%s", s1, s8)
	}
	// ExploreWall is the one run-dependent InstrReport field (rendered only
	// by TimingTable); pin it before comparing.
	for _, r := range append(append([]*InstrReport(nil), seq.Reports...), par.Reports...) {
		r.ExploreWall = 0
	}
	if !reflect.DeepEqual(seq.Reports, par.Reports) {
		t.Error("per-instruction reports differ across worker counts")
	}
	if !reflect.DeepEqual(seq.RootCauses, par.RootCauses) {
		t.Error("root-cause clustering differs across worker counts")
	}
	if seq.TotalPaths != par.TotalPaths || seq.TotalTests != par.TotalTests ||
		seq.LoFiDiffTests != par.LoFiDiffTests || seq.HiFiDiffTests != par.HiFiDiffTests {
		t.Errorf("headline counts differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			seq.TotalPaths, seq.TotalTests, seq.LoFiDiffTests, seq.HiFiDiffTests,
			par.TotalPaths, par.TotalTests, par.LoFiDiffTests, par.HiFiDiffTests)
	}
	if len(seq.Differences) != len(par.Differences) {
		t.Fatalf("difference lists: %d vs %d", len(seq.Differences), len(par.Differences))
	}
	for i := range seq.Differences {
		if !reflect.DeepEqual(seq.Differences[i], par.Differences[i]) {
			t.Errorf("difference %d diverges across worker counts", i)
			break
		}
	}
}

// TestSolverBatchDeterminism: every campaign explores with the batched
// solver front-end and the model-subsumption fast path on; there is no
// switch to turn them off. They only change which model a Sat query
// returns, never satisfiability: selfcheck.CampaignReplay proves the
// explored path structure matches the unbatched reference configuration,
// and TestWorkerDeterminism holds the report fixed across worker counts.
func TestSolverBatchDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv", "shl_rmv_imm8"},
		Seed:             7,
		Workers:          4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.ReusedLevels == 0 {
		t.Error("campaign reused no assumption levels: the batched front-end is off")
	}
	if res.Solver.SubsumeHits == 0 {
		t.Error("campaign answered no query by model subsumption: the fast path is off")
	}
}
