package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pokeemu/internal/equivcheck"
)

// size scales every workload. The full size is what the benchmark measures;
// the tiny size keeps the same phases and checks at a few seconds, for the
// smoke tests.
type size struct {
	name string
	// mix_cold: the 14-handler mix of the repository's bench_test.go (every
	// root-cause class plus ordinary instructions) at cap 128.
	mixHandlers []string
	mixCap      int
	// retest_vote: the set-up campaign and its warm, voted re-run.
	retestHandlers []string
	retestCap      int
	// equiv_matrix: handlers and the per-query conflict budget.
	equivHandlers  []string
	equivConflicts int64
	// instrsetRuns is how many fresh processes time the instruction-set
	// exploration that is the set-up of mix_cold and equiv_matrix.
	instrsetRuns int
}

var mixHandlers = []string{
	"leave", "cmpxchg_rmv_rv", "iret", "rdmsr", "lfs",
	"mov_sreg_rm16", "add_rm8_imm8_alias", "push_r", "add_rmv_rv",
	"shl_rmv_imm8", "mov_rv_rmv", "mul_rmv", "enter", "pop_r",
}

var (
	fullSize = size{
		name:        "full",
		mixHandlers: mixHandlers, mixCap: 128,
		retestCap:      4,
		equivConflicts: 3000,
		instrsetRuns:   9,
	}
	tinySize = size{
		name:        "tiny",
		mixHandlers: []string{"push_r", "leave", "cmc"}, mixCap: 8,
		retestHandlers: []string{"push_r", "leave", "add_rm8_imm8_alias", "cmc"}, retestCap: 4,
		equivHandlers:  []string{"add_rm8_r8", "sete", "add_rm8_imm8_alias", "cmc"},
		equivConflicts: 3000,
		instrsetRuns:   1,
	}
)

// mixSeed1 is what the full-size mix_cold produces on seed 1 (the E11
// workload's reference numbers): tests, lo-fi and hi-fi difference tests and
// root-cause classes.
var mixSeed1 = struct{ tests, lofi, hifi, causes int }{1287, 366, 28, 9}

// equivReference is the full matrix at the benchmark's conflict budget, as
// recorded on the tree the benchmark was defined on. A handler may move
// from UNKNOWN to a decided verdict, never between EQUIV and DIVERGES.
//
//go:embed testdata/equiv_reference.json
var equivReferenceJSON []byte

type equivReference struct {
	MaxConflicts int64             `json:"max_conflicts"`
	Verdicts     map[string]string `json:"verdicts"`
}

func loadEquivReference() (*equivReference, error) {
	var ref equivReference
	if err := json.Unmarshal(equivReferenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("equiv reference: %w", err)
	}
	return &ref, nil
}

// knownDiverges reads the repository's pinned DIVERGES set.
func knownDiverges(root string) (map[string]bool, error) {
	path := filepath.Join(root, "internal", "equivcheck", "testdata", "known_diverges.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var k equivcheck.KnownDiverges
	if err := json.Unmarshal(data, &k); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := map[string]bool{}
	for _, h := range k.Handlers {
		set[h] = true
	}
	return set, nil
}

// checkEquivReport returns, per handler that fails them, why: every
// DIVERGES is a known one and was replayed, and no verdict flipped between
// EQUIV and DIVERGES against the reference.
func checkEquivReport(rep *equivcheck.Report, known map[string]bool, ref *equivReference) []string {
	var bad []string
	for _, v := range rep.Handlers {
		was := ref.Verdicts[v.Handler]
		switch {
		case v.Verdict == equivcheck.VerdictDiverges && !known[v.Handler]:
			bad = append(bad, v.Handler+": DIVERGES outside known_diverges.json")
		case v.Verdict == equivcheck.VerdictDiverges && (v.CE == nil || !v.CE.Replayed):
			bad = append(bad, v.Handler+": DIVERGES not reproduced by replay")
		case v.Verdict == equivcheck.VerdictEquiv && was == equivcheck.VerdictDiverges,
			v.Verdict == equivcheck.VerdictDiverges && was == equivcheck.VerdictEquiv:
			bad = append(bad, fmt.Sprintf("%s: flipped %s -> %s", v.Handler, was, v.Verdict))
		}
	}
	return bad
}

// withoutVoteLines drops the vote block of a campaign summary, leaving what
// a vote-free campaign of the same config prints.
func withoutVoteLines(summary string) string {
	var keep []string
	for _, line := range strings.SplitAfter(summary, "\n") {
		if strings.HasPrefix(line, "vote (") || strings.HasPrefix(line, "  blame: ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "")
}

// onlyCelerBlamed reports whether every majority verdict blamed celer, the
// emulator with the injected defects.
func onlyCelerBlamed(c *counts) bool {
	for impl, n := range c.Blame {
		if impl != "celer" && n != 0 {
			return false
		}
	}
	return c.Blame["celer"] == c.VoteMajority
}

// digestStore pins deterministic outputs across runs of one benchmark
// binary: the first run of a key records its digest, and every later run
// must match it. Keys name the binary (see binaryDigest), so a build of
// changed code starts afresh instead of being held to an older build's
// output.
type digestStore struct{ dir string }

func (d digestStore) check(key string, data []byte) (string, error) {
	sum := fmt.Sprintf("%x", sha256.Sum256(data))
	path := filepath.Join(d.dir, key)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := string(bytes.TrimSpace(prev)); got != sum {
			return fmt.Sprintf("%s: output digest %.12s differs from earlier runs' %.12s", key, sum, got), nil
		}
		return "", nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return "", err
		}
		return "", os.WriteFile(path, []byte(sum+"\n"), 0o644)
	default:
		return "", err
	}
}

// binaryDigest is the sha256 of the running executable. The benchmark is
// linked with the code it measures, so any change under internal/ gives a
// different digest.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// pinKey names one pinned output: the binary, the workload, the output's
// kind, the size settings and, when the workload uses it, the seed.
func pinKey(binary, workload, kind string, sz size, seed int64, seeded bool) string {
	key := fmt.Sprintf("%.16s-%s-%s-%.16x", binary, workload, kind, sha256.Sum256([]byte(fmt.Sprint(sz))))
	if seeded {
		key += fmt.Sprintf("-seed%d", seed)
	}
	return key
}
