package harness

import (
	"testing"
	"time"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
)

// TestFigure4Timeline verifies the execution structure of the paper's
// Figure 4: bootstrap → baseline initializer → test program, with event
// interception enabled only after the baseline init completes and the
// snapshot taken at the terminal event.
func TestFigure4Timeline(t *testing.T) {
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	prog := append(x86.AsmMovRegImm32(x86.EAX, 42), x86.AsmHlt()...)

	for _, f := range []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()} {
		res := RunBoot(f, image, boot, prog, 0)
		if res.BaselineFault {
			t.Fatalf("%s: baseline init faulted", res.Impl)
		}
		// Only post-baseline events are recorded: the mov and the hlt.
		if len(res.Events) != 2 {
			t.Errorf("%s: %d recorded events, want 2 (init events suppressed)",
				res.Impl, len(res.Events))
		}
		last := res.Events[len(res.Events)-1]
		if last.Kind != emu.EventHalt {
			t.Errorf("%s: terminal event %v, want halt", res.Impl, last.Kind)
		}
		if res.Snapshot.CPU.GPR[x86.EAX] != 42 || !res.Snapshot.CPU.Halted {
			t.Errorf("%s: snapshot not taken at the halt", res.Impl)
		}
	}
}

// TestRunWithoutBootStartsAtBaseline covers the direct-state mode used by
// unit tests: no boot code, machine already in the baseline state.
func TestRunWithoutBootStartsAtBaseline(t *testing.T) {
	image := machine.BaselineImage()
	prog := append(x86.AsmMovRegImm32(x86.EBX, 7), x86.AsmHlt()...)
	res := Run(FidelisFactory(), image, prog, 0)
	if res.Snapshot.CPU.GPR[x86.EBX] != 7 {
		t.Error("program did not run")
	}
}

// TestExceptionDuringTestIsRecorded: the terminal exception must land in
// the snapshot (the state the difference analysis compares).
func TestExceptionDuringTestIsRecorded(t *testing.T) {
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	prog := append([]byte{0xf7, 0xf1}, x86.AsmHlt()...) // div %ecx with ecx=0 → #DE
	for _, f := range []Factory{CelerFactory(), HardwareFactory()} {
		res := RunBoot(f, image, boot, prog, 0)
		if res.Snapshot.Exception == nil || res.Snapshot.Exception.Vector != x86.ExcDE {
			t.Errorf("%s: snapshot exception = %v, want #DE", res.Impl, res.Snapshot.Exception)
		}
	}
}

// TestGuestsAreIsolated: every test boots a fresh guest from the shared
// image, so a memory write in one test is invisible to the next even when
// both run through one factory and its shared program cache.
func TestGuestsAreIsolated(t *testing.T) {
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	write := x86.AsmMovMemImm32(0x300000, 0xdead)
	read := x86.AsmMovRegMem32(x86.EAX, 0x300000)
	dirty := append(append([]byte(nil), write...), x86.AsmHlt()...)
	probe := append(append([]byte(nil), read...), x86.AsmHlt()...)
	// Within one guest the write is visible, so the probe can see a leak.
	both := append(append(append([]byte(nil), write...), read...), x86.AsmHlt()...)
	for _, f := range []Factory{HardwareFactory(), FidelisFactory(), CelerFactory(), LentoFactory()} {
		if res := RunBoot(f, image, boot, both, 0); res.Snapshot.CPU.GPR[x86.EAX] != 0xdead {
			t.Fatalf("%s: write then read in one test gave %#x, want 0xdead",
				f.Name, res.Snapshot.CPU.GPR[x86.EAX])
		}
		if res := RunBoot(f, image, boot, dirty, 0); res.Snapshot.Exception != nil || !res.Snapshot.CPU.Halted {
			t.Fatalf("%s: dirtying test did not run cleanly: exception %v", f.Name, res.Snapshot.Exception)
		}
		res := RunBoot(f, image, boot, probe, 0)
		if !res.Snapshot.CPU.Halted {
			t.Fatalf("%s: probe test did not halt", f.Name)
		}
		if got := res.Snapshot.CPU.GPR[x86.EAX]; got != 0 {
			t.Errorf("%s: probe read %#x, want 0: guest memory leaked across tests", f.Name, got)
		}
	}
}

// TestMaxStepsTerminates: a runaway guest is cut off.
func TestMaxStepsTerminates(t *testing.T) {
	image := machine.BaselineImage()
	prog := []byte{0xeb, 0xfe} // jmp self
	res := Run(FidelisFactory(), image, prog, 50)
	if res.Steps != 50 {
		t.Errorf("steps = %d, want the cap", res.Steps)
	}
}

// TestWallClockBudget verifies the campaign's per-test safety net: a
// program that spins forever is cut off by Budget.Wall and flagged as
// timed out (its partial snapshot must not be diffed), while the same
// program under a pure step budget is not flagged.
func TestWallClockBudget(t *testing.T) {
	image := machine.BaselineImage()
	spin := []byte{0xeb, 0xfe} // jmp -2
	res := RunBootBudget(FidelisFactory(), image, nil, spin,
		Budget{MaxSteps: 1 << 30, Wall: time.Millisecond})
	if !res.TimedOut {
		t.Fatalf("spinning program not flagged: %d steps", res.Steps)
	}
	res = RunBootBudget(FidelisFactory(), image, nil, spin, Budget{MaxSteps: 500})
	if res.TimedOut {
		t.Error("step-capped run must not be flagged as timed out")
	}
	if res.Steps != 500 {
		t.Errorf("step budget ran %d steps, want 500", res.Steps)
	}
}
