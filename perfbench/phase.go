package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/equivcheck"
)

// Every phase of a workload runs in a fresh process, the way a user runs
// pokeemu: the benchmark re-executes its own binary with the phase spec in
// phaseEnv, and the child prints one phaseOut as JSON on standard output.
const phaseEnv = "PERFBENCH_PHASE"

// campaignSpec is the campaign a phase runs: one client, Workers=1 and
// ExploreWorkers=0, so no layer contends with another.
type campaignSpec struct {
	Handlers []string `json:"handlers,omitempty"` // nil = all 672
	Cap      int      `json:"cap"`
	Seed     int64    `json:"seed"`
	Corpus   string   `json:"corpus,omitempty"`
	Vote     bool     `json:"vote,omitempty"`
}

func (s campaignSpec) config() campaign.Config {
	return campaign.Config{
		MaxPathsPerInstr: s.Cap, Handlers: s.Handlers, Seed: s.Seed,
		Workers: 1, CorpusDir: s.Corpus, Vote: s.Vote,
	}
}

// equivSpec is the equivalence-check matrix a phase runs, with Workers=1.
type equivSpec struct {
	Handlers  []string `json:"handlers,omitempty"` // nil = all 672
	Conflicts int64    `json:"conflicts"`
}

func (s equivSpec) options() equivcheck.Options {
	return equivcheck.Options{Handlers: s.Handlers, MaxConflicts: s.Conflicts, Workers: 1}
}

// Phase kinds.
const (
	kindInstrSet        = "instrset"
	kindCampaign        = "campaign"
	kindEquiv           = "equiv"
	kindReplicaCampaign = "replica-campaign"
	kindReplicaEquiv    = "replica-equiv"
)

type phaseSpec struct {
	Kind     string       `json:"kind"`
	Campaign campaignSpec `json:"campaign"`
	Equiv    equivSpec    `json:"equiv"`
	// Spans is where a replica writes its spans.
	Spans string `json:"spans,omitempty"`
}

// phaseOut is what a phase reports back to the parent process.
type phaseOut struct {
	Use usage `json:"usage"`

	// Campaign phases.
	Counts        *counts `json:"counts,omitempty"`
	Summary       string  `json:"summary,omitempty"`
	InstrMisses   int     `json:"instr_misses,omitempty"`
	ExecHits      int     `json:"exec_hits,omitempty"`
	DegradedEmpty bool    `json:"degraded_empty,omitempty"`
	CorpusBytes   int64   `json:"corpus_bytes,omitempty"`

	// Equivalence phases: the report as equivcheck.Report.Encode gives it.
	Report []byte `json:"report,omitempty"`

	// Replicas: per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runPhase executes one phase in this process.
func runPhase(spec phaseSpec) (*phaseOut, error) {
	out := &phaseOut{}
	var err error
	p := startProbe()
	switch spec.Kind {
	case kindInstrSet:
		if n := len(core.ExploreInstructionSet().Unique); n == 0 {
			err = fmt.Errorf("instruction-set exploration found no instructions")
		}
		out.Use = p.stop()
	case kindCampaign:
		var res *campaign.Result
		res, err = campaign.Run(spec.Campaign.config())
		out.Use = p.stop()
		if err == nil {
			c := countsOf(res)
			out.Counts = &c
			out.Summary = res.Summary()
			out.InstrMisses, out.ExecHits = res.Cache.InstrMisses, res.Cache.ExecHits
			out.DegradedEmpty = res.Degraded.Empty()
		}
	case kindEquiv:
		var rep *equivcheck.Report
		rep, err = equivcheck.Run(spec.Equiv.options())
		out.Use = p.stop()
		if err == nil {
			out.Report, err = rep.Encode()
		}
	case kindReplicaCampaign, kindReplicaEquiv:
		tr := newTracer()
		if spec.Kind == kindReplicaCampaign {
			var c counts
			c, out.Layers, err = replicaCampaign(spec.Campaign, tr)
			out.Counts = &c
		} else {
			var rep *equivcheck.Report
			rep, out.Layers, err = replicaEquiv(spec.Equiv, tr)
			if err == nil {
				out.Report, err = rep.Encode()
			}
		}
		out.Use = p.stop()
		if err == nil {
			err = tr.write(spec.Spans)
		}
	default:
		err = fmt.Errorf("unknown phase kind %q", spec.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("phase %s: %w", spec.Kind, err)
	}
	if spec.Campaign.Corpus != "" {
		out.CorpusBytes, err = dirBytes(spec.Campaign.Corpus)
	}
	return out, err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// phaseMain is the child side: run the phase in the environment and print
// its result.
func phaseMain(raw string) int {
	var spec phaseSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad phase spec:", err)
		return 2
	}
	out, err := runPhase(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawn runs one phase in a fresh child process and waits for it to end.
func spawn(spec phaseSpec) (*phaseOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), phaseEnv+"="+string(raw))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("phase %s: %w", spec.Kind, err)
	}
	var out phaseOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("phase %s: decoding result: %w", spec.Kind, err)
	}
	return &out, nil
}
