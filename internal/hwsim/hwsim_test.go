package hwsim

import (
	"testing"

	"pokeemu/internal/emu"
	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// runGuest plays the monitor's part for one test: it boots a fresh baseline
// guest with program at the entry point, steps the hardware model to its
// terminal trap, and returns the final snapshot with the number of traps
// taken on the way.
func runGuest(program []byte, maxSteps int) (*machine.Snapshot, int) {
	m := machine.NewBaseline(nil)
	m.Mem.WriteBytes(machine.CodeBase, program)
	hw := NewHardwareShared(m, fidelis.NewCache())
	var lastExc *machine.ExceptionInfo
	exits := 0
	for i := 0; i < maxSteps; i++ {
		ev := hw.Step()
		switch ev.Kind {
		case emu.EventHalt:
			exits++
			return m.Snapshot(lastExc), exits
		case emu.EventException:
			exits++
			lastExc = ev.Exception
		case emu.EventShutdown:
			exits++
			return m.Snapshot(ev.Exception), exits
		case emu.EventTimeout:
			return m.Snapshot(lastExc), exits
		}
	}
	return m.Snapshot(lastExc), exits
}

func TestMonitorRunTest(t *testing.T) {
	prog := append(x86.AsmMovRegImm32(x86.EAX, 42), x86.AsmHlt()...)
	snap, exits := runGuest(prog, 100)
	if snap.CPU.GPR[x86.EAX] != 42 {
		t.Errorf("eax = %d", snap.CPU.GPR[x86.EAX])
	}
	if !snap.CPU.Halted {
		t.Error("guest should have halted")
	}
	if snap.Exception != nil {
		t.Errorf("unexpected exception %v", snap.Exception)
	}
	if exits == 0 {
		t.Error("the run must observe at least the halt exit")
	}
}

func TestMonitorInterceptsException(t *testing.T) {
	// div-by-zero → #DE, handled by the halting stub; the snapshot records
	// the exception and the terminal state.
	prog := append(x86.AsmMovRegImm32(x86.ECX, 0),
		append([]byte{0xf7, 0xf1}, x86.AsmHlt()...)...)
	snap, exits := runGuest(prog, 100)
	if snap.Exception == nil || snap.Exception.Vector != x86.ExcDE {
		t.Errorf("exception = %v, want #DE", snap.Exception)
	}
	if !snap.CPU.Halted {
		t.Error("the #DE stub should have halted the guest")
	}
	if exits < 2 {
		t.Errorf("exits = %d, want the #DE trap and the halt", exits)
	}
}

func TestHardwareName(t *testing.T) {
	hw := NewHardwareShared(machine.NewBaseline(nil), fidelis.NewCache())
	if hw.Name() != "hardware" {
		t.Errorf("name = %q", hw.Name())
	}
}
