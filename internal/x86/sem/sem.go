// Package sem is the semantics compiler: it translates decoded x86
// instructions into internal/ir programs, including inline segmentation
// checks, two-level page walks, exception raises, and status-flag updates.
// The Hi-Fi emulator (internal/fidelis) and the hardware simulator
// (internal/hwsim) both execute these programs; the symbolic execution
// engine (internal/symex) explores their paths. Architecturally-undefined
// behavior (certain status flags) is factored into an UndefPolicy so that
// the Bochs-like and hardware-like implementations can disagree exactly
// where real ones do.
package sem

import (
	"fmt"

	"pokeemu/internal/ir"
	"pokeemu/internal/x86"
)

// UndefChoice selects a behavior for one class of undefined results.
type UndefChoice uint8

// Undefined-behavior choices.
const (
	UndefCompute   UndefChoice = iota // derive from the result like a careful CPU
	UndefZero                         // force the flag(s) to zero
	UndefUnchanged                    // leave the previous value
)

// UndefPolicy fixes every architecturally-undefined status-flag result.
// Real hardware and real emulators pick different points here, which is one
// of the difference classes the paper reports.
type UndefPolicy struct {
	AFAfterLogic UndefChoice // AF after and/or/xor/test
	MulLowFlags  UndefChoice // SF/ZF/AF/PF after mul/imul
	ShiftMultiOF UndefChoice // OF when shift count > 1
	DivFlags     UndefChoice // all six flags after div/idiv
	BsfZeroDest  UndefChoice // destination when bsf/bsr source is zero
	AamUndef     UndefChoice // CF/OF/AF after aam/aad
	RotCountOF   UndefChoice // OF when rotate count != 1
}

// PolicyHardware is the undefined-flag behavior of the hardware oracle.
var PolicyHardware = UndefPolicy{
	AFAfterLogic: UndefZero,
	MulLowFlags:  UndefCompute,
	ShiftMultiOF: UndefCompute,
	DivFlags:     UndefUnchanged,
	BsfZeroDest:  UndefUnchanged,
	AamUndef:     UndefZero,
	RotCountOF:   UndefCompute,
}

// PolicyBochs is the undefined-flag behavior of the Hi-Fi emulator; it
// differs from hardware on a few classes (a real Bochs-vs-CPU divergence).
var PolicyBochs = UndefPolicy{
	AFAfterLogic: UndefZero,
	MulLowFlags:  UndefZero,
	ShiftMultiOF: UndefZero,
	DivFlags:     UndefUnchanged,
	BsfZeroDest:  UndefUnchanged,
	AamUndef:     UndefZero,
	RotCountOF:   UndefCompute,
}

// Config selects implementation-specific behaviors of the compiled
// semantics.
type Config struct {
	Undef UndefPolicy
	// FarLoadSelectorFirst fetches the selector word before the offset word
	// in lds/les/lfs/lgs/lss. Hardware fetches the offset first; Bochs the
	// opposite (the paper's lfs fetch-order finding). Observable through
	// page-table accessed bits and #PF ordering across a page boundary.
	FarLoadSelectorFirst bool
}

// HardwareConfig is the configuration of the hardware oracle.
var HardwareConfig = Config{Undef: PolicyHardware}

// BochsConfig is the configuration of the Hi-Fi emulator.
var BochsConfig = Config{Undef: PolicyBochs, FarLoadSelectorFirst: true}

// ctx carries per-instruction compilation state.
type ctx struct {
	b    *ir.Builder
	inst *x86.Inst
	cfg  Config
	osz  uint8 // operand size in bits (16 or 32)
}

func (c *ctx) konst(w uint8, v uint64) ir.Operand { return ir.C(w, v) }

// Compile translates one decoded instruction into an IR program.
func Compile(inst *x86.Inst, cfg Config) *ir.Program {
	b := ir.NewBuilder(inst.Spec.Name)
	c := &ctx{b: b, inst: inst, cfg: cfg, osz: uint8(inst.OpSize)}

	// LOCK prefix legality: only on the architected read-modify-write forms,
	// and only with a memory destination.
	if inst.Lock && (!inst.Spec.LockOK || inst.IsRegForm() || !inst.HasModRM) {
		b.RaiseNoErr(x86.ExcUD)
		return b.Build()
	}
	c.emit()
	return b.Build()
}

// advanceEIP writes the post-instruction EIP; call it only on paths that
// complete without faulting (fault paths must leave EIP at the instruction).
func (c *ctx) advanceEIP() {
	eip := c.b.Get(x86.EIPLoc)
	c.b.Set(x86.EIPLoc, c.b.Add(eip, c.konst(32, uint64(c.inst.Len))))
}

// done advances EIP and ends the program.
func (c *ctx) done() {
	c.advanceEIP()
	c.b.End()
}

// emit dispatches on the per-instruction handler name.
func (c *ctx) emit() {
	name := c.inst.Spec.Name
	switch {
	case c.emitALU(name):
	case c.emitMovLea(name):
	case c.emitStack(name):
	case c.emitFlow(name):
	case c.emitSystem(name):
	case c.emitString(name):
	case c.emitBitOps(name):
	default:
		panic(fmt.Sprintf("sem: no semantics for handler %q", name))
	}
}

// --- operand plumbing -----------------------------------------------------

// gprPart reads an 8/16/32-bit view of a GPR by ModRM index. For 8-bit,
// indices 0-3 are the low bytes of eax..ebx and 4-7 the high bytes.
func (c *ctx) gprRead(idx uint8, w uint8) ir.Operand {
	switch w {
	case 32:
		return c.b.Get(x86.GPR(x86.Reg(idx)))
	case 16:
		return c.b.Extract(c.b.Get(x86.GPR(x86.Reg(idx))), 0, 16)
	case 8:
		r := x86.Reg(idx & 3)
		full := c.b.Get(x86.GPR(r))
		if idx < 4 {
			return c.b.Extract(full, 0, 8)
		}
		return c.b.Extract(full, 8, 8)
	}
	panic("sem: bad gpr width")
}

// gprWrite writes an 8/16/32-bit view of a GPR by ModRM index, preserving
// the untouched bits.
func (c *ctx) gprWrite(idx uint8, w uint8, v ir.Operand) {
	switch w {
	case 32:
		c.b.Set(x86.GPR(x86.Reg(idx)), v)
	case 16:
		loc := x86.GPR(x86.Reg(idx))
		old := c.b.Get(loc)
		c.b.Set(loc, c.b.Concat(c.b.Extract(old, 16, 16), v))
	case 8:
		r := x86.Reg(idx & 3)
		loc := x86.GPR(r)
		old := c.b.Get(loc)
		if idx < 4 {
			c.b.Set(loc, c.b.Concat(c.b.Extract(old, 8, 24), v))
		} else {
			hi := c.b.Extract(old, 16, 16)
			lo := c.b.Extract(old, 0, 8)
			c.b.Set(loc, c.b.Concat(hi, c.b.Concat(v, lo)))
		}
	default:
		panic("sem: bad gpr width")
	}
}

// effAddr computes the ModRM effective address (32-bit addressing) and the
// segment it is relative to (honoring overrides).
func (c *ctx) effAddr() (seg x86.SegReg, off ir.Operand) {
	in := c.inst
	mod, rm := in.Mod(), in.RM()
	if mod == 3 {
		panic("sem: effAddr on register form")
	}
	b := c.b
	disp := c.konst(32, uint64(in.Disp))
	var addr ir.Operand
	seg = x86.DS
	switch {
	case rm == 4: // SIB
		sib := in.SIB
		scale := sib >> 6
		index := sib >> 3 & 7
		base := sib & 7
		var sum ir.Operand
		if base == 5 && mod == 0 {
			sum = disp
		} else {
			sum = b.Get(x86.GPR(x86.Reg(base)))
			if base == 4 || base == 5 { // ESP or EBP base → stack segment
				seg = x86.SS
			}
			sum = b.Add(sum, disp)
		}
		if index != 4 {
			iv := b.Get(x86.GPR(x86.Reg(index)))
			iv = b.Shl(iv, c.konst(8, uint64(scale)))
			sum = b.Add(sum, iv)
		}
		addr = sum
	case mod == 0 && rm == 5:
		addr = disp
	default:
		addr = b.Add(b.Get(x86.GPR(x86.Reg(rm))), disp)
		if rm == 5 { // EBP-relative defaults to SS
			seg = x86.SS
		}
	}
	if in.SegOverride >= 0 {
		seg = x86.SegReg(in.SegOverride)
	}
	return seg, addr
}

// rmOperand describes a resolved r/m operand: either a register index or a
// checked memory location.
type rmOperand struct {
	isReg bool
	reg   uint8
	mem   *memRef
	width uint8 // bits
}

// resolveRM prepares the r/m operand. If write is set, memory forms are
// translated with write permission up front, so a later store cannot fault —
// this is the Hi-Fi ordering that makes instruction effects atomic.
func (c *ctx) resolveRM(w uint8, write bool) rmOperand {
	in := c.inst
	if in.Mod() == 3 {
		return rmOperand{isReg: true, reg: in.RM(), width: w}
	}
	seg, off := c.effAddr()
	mem := c.translate(seg, off, w/8, write, false)
	return rmOperand{mem: mem, width: w}
}

func (c *ctx) rmRead(o rmOperand) ir.Operand {
	if o.isReg {
		return c.gprRead(o.reg, o.width)
	}
	return c.memLoad(o.mem)
}

func (c *ctx) rmWrite(o rmOperand, v ir.Operand) {
	if o.isReg {
		c.gprWrite(o.reg, o.width, v)
		return
	}
	c.memStore(o.mem, v)
}

// immOperand returns the (already extended) first immediate at width w.
func (c *ctx) immOperand(w uint8) ir.Operand {
	return c.konst(w, c.inst.Imm)
}
