// Package hwsim simulates the real-hardware reference of the paper's
// three-way comparison. The paper runs each test on an Intel workstation
// under a customized KVM; here the "hardware" executes the ideal
// architectural semantics with the hardware undefined-flag policy, and the
// harness plays the monitor's part: it boots a fresh guest per test from
// the shared image and snapshots it at the terminal trap.
package hwsim

import (
	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86/sem"
)

// Hardware is the bare-metal CPU model: the architectural semantics with
// the hardware's undefined-behavior choices (sem.HardwareConfig), and no
// emulator-specific quirks.
type Hardware struct {
	*fidelis.Emulator
}

// NewHardwareShared builds the hardware model with a shared program cache
// (hardware executes natively; nothing needs per-guest translation).
func NewHardwareShared(m *machine.Machine, cache *fidelis.Cache) *Hardware {
	return &Hardware{fidelis.NewShared(m, sem.HardwareConfig, cache)}
}

// Name implements emu.Emulator.
func (h *Hardware) Name() string { return "hardware" }
