package triage

import (
	"bytes"
	"testing"

	"pokeemu/internal/x86"
)

func TestSplitAtoms(t *testing.T) {
	init := append(x86.AsmMovRegImm32(x86.EAX, 0x2a), x86.AsmMovRegImm32(x86.EBX, 7)...)
	atoms := splitAtoms(init)
	if len(atoms) != 2 {
		t.Fatalf("atoms = %d, want 2: %x", len(atoms), atoms)
	}
	if !bytes.Equal(bytes.Join(atoms, nil), init) {
		t.Error("atoms do not reassemble the input")
	}
}

func TestSplitAtomsOpaqueResidue(t *testing.T) {
	// A valid instruction followed by an undecodable byte soup: the residue
	// must come back as one opaque atom so rebuilds are lossless.
	init := append(x86.AsmMovRegImm32(x86.EAX, 1), 0x0f, 0xff, 0xff)
	atoms := splitAtoms(init)
	if !bytes.Equal(bytes.Join(atoms, nil), init) {
		t.Fatalf("lossy split: %x -> %x", init, atoms)
	}
}

func TestSplitCaseStripsHlt(t *testing.T) {
	initBytes := x86.AsmMovRegImm32(x86.EAX, 0x2a)
	instr := []byte{0x01, 0xd8} // add eax, ebx
	prog := append(append(append([]byte(nil), initBytes...), instr...), x86.AsmHlt()...)
	c := CaseInfo{Prog: prog, TestOffset: len(initBytes)}
	atoms, gotInstr := splitCase(c)
	if len(atoms) != 1 || !bytes.Equal(gotInstr, instr) {
		t.Errorf("split = %x / %x, want 1 atom / %x", atoms, gotInstr, instr)
	}
	if !bytes.Equal(buildProg(atoms, gotInstr), prog) {
		t.Error("rebuild does not reproduce the program")
	}
}

func TestSplitCaseClampsBadOffset(t *testing.T) {
	prog := append(x86.AsmMovRegImm32(x86.EAX, 1), x86.AsmHlt()...)
	for _, off := range []int{-1, len(prog) + 1} {
		atoms, instr := splitCase(CaseInfo{Prog: prog, TestOffset: off})
		if !bytes.Equal(buildProg(atoms, instr), prog) {
			t.Errorf("offset %d: rebuild lost bytes", off)
		}
	}
}

func TestZeroImm(t *testing.T) {
	atom := x86.AsmMovRegImm32(x86.EAX, 0x11223344)
	z, changed := zeroImm(atom)
	if changed != 4 {
		t.Fatalf("changed = %d, want 4", changed)
	}
	want := x86.AsmMovRegImm32(x86.EAX, 0)
	if !bytes.Equal(z, want) {
		t.Errorf("zeroed = %x, want %x", z, want)
	}
	// Already-zero immediate: no candidate.
	if z, changed := zeroImm(want); z != nil || changed != 0 {
		t.Errorf("zero imm produced a candidate: %x, %d", z, changed)
	}
	// No immediate at all.
	if z, changed := zeroImm(x86.AsmHlt()); z != nil || changed != 0 {
		t.Errorf("hlt produced a candidate: %x, %d", z, changed)
	}
}

func TestOracleForUnknownImpl(t *testing.T) {
	if _, err := OracleFor(CaseInfo{ImplA: "hardware", ImplB: "qemu"}, 0); err == nil {
		t.Error("unknown implementation accepted")
	}
	if _, err := OracleFor(CaseInfo{ImplA: "nope", ImplB: "celer"}, 0); err == nil {
		t.Error("unknown implementation accepted")
	}
}

// TestMinimizeNonReproducing feeds a program that terminates identically on
// both implementations: the minimizer must return it unshrunk, flagged
// Reproduced=false, after exactly one oracle run.
func TestMinimizeNonReproducing(t *testing.T) {
	initBytes := x86.AsmMovRegImm32(x86.EAX, 0x2a)
	prog := append(append([]byte(nil), initBytes...), x86.AsmHlt()...)
	c := CaseInfo{
		TestID: "t#0", Handler: "mov_r_imm", Mnemonic: "mov",
		ImplA: "hardware", ImplB: "celer",
		Prog: prog, TestOffset: len(initBytes),
	}
	m, err := Minimize(c, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reproduced {
		t.Fatalf("identical-state program reported as divergent: %+v", m)
	}
	if m.OracleRuns != 1 {
		t.Errorf("oracle runs = %d, want 1", m.OracleRuns)
	}
	if !bytes.Equal(m.Prog, prog) {
		t.Errorf("non-reproducing case was altered: %x -> %x", prog, m.Prog)
	}
}

// TestRunPanickingCaseIsError checks that a case whose minimization panics
// fails the triage run with an error naming that case, for any worker
// count, instead of crashing the process.
func TestRunPanickingCaseIsError(t *testing.T) {
	defer func(orig func(CaseInfo, int, int) (*Minimized, error)) { minimize = orig }(minimize)
	minimize = func(c CaseInfo, _, _ int) (*Minimized, error) {
		if c.TestID != "t#0" {
			panic("minimizer crashed on " + c.TestID)
		}
		return &Minimized{}, nil
	}
	cases := []CaseInfo{{TestID: "t#2"}, {TestID: "t#0"}, {TestID: "t#1"}}
	for _, workers := range []int{1, 3} {
		r, err := Run(cases, Options{Minimize: true, Workers: workers})
		if r != nil || err == nil {
			t.Fatalf("workers=%d: got report %v, err %v; want an error", workers, r, err)
		}
		// The canonically first panicking case is the one reported.
		if want := "triage: minimizing t#1: panic: minimizer crashed on t#1"; err.Error() != want {
			t.Errorf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}
