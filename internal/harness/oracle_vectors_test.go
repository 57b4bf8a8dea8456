package harness

import (
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/machine"
	"pokeemu/internal/solver"
	"pokeemu/internal/x86"
)

// The cross-validation oracle is only as good as the agreement between its
// five independent implementations of the bit-vector semantics: the pure
// evaluator (expr.Eval), the bit-blaster (solver.BV), and the three
// emulators — fidelis, celer, and lento, the direct-decode voting peer.
// This table drives the same shift/div/extend edge-case vectors through all
// five and requires one answer.
//
// Shift counts are given raw (pre-mask): the emulators mask CL to 5 bits
// in the instruction, so the expr/solver terms shift by count&0x1f — the
// point where the two layers historically disagreed.

type oracleVector struct {
	name string
	w    uint8  // operand width: 8, 16, or 32
	op   string // shl | shr | sar | div | zext | sext
	a, b uint64 // operands; b is the raw CL count, the divisor, or unused
}

var oracleVectors = []oracleVector{
	// Counts below, at, and beyond the operand width (after the 5-bit mask).
	{"shl-w8-count7", 8, "shl", 0x81, 7},
	{"shl-w8-count8", 8, "shl", 0x81, 8},
	{"shl-w8-count40", 8, "shl", 0xff, 40}, // CL=40 masks to 8 == width
	{"shl-w32-count31", 32, "shl", 0x80000001, 31},
	{"shl-w32-count63", 32, "shl", 0x80000001, 63}, // masks to 31
	{"shr-w8-count8-msb1", 8, "shr", 0x80, 8},
	{"shr-w8-count40-msb1", 8, "shr", 0x80, 40}, // masks to 8 == width
	{"shr-w8-count9", 8, "shr", 0xff, 9},
	{"shr-w16-count48", 16, "shr", 0x8000, 48}, // masks to 16 == width
	{"shr-w32-count1", 32, "shr", 0xffffffff, 1},
	{"sar-w8-count8", 8, "sar", 0x80, 8},
	{"sar-w8-count31", 8, "sar", 0x80, 31},
	{"sar-w8-count31-pos", 8, "sar", 0x7f, 31},
	{"sar-w16-count16", 16, "sar", 0x8000, 48},
	{"sar-w32-count31", 32, "sar", 0x80000000, 31},
	// Unsigned division and remainder (32-bit instruction form).
	{"div-exact", 32, "div", 1000, 8},
	{"div-rem", 32, "div", 1000, 37},
	{"div-small-by-large", 32, "div", 3, 1000},
	{"div-max", 32, "div", 0xffffffff, 1},
	// Widening moves.
	{"zext-8-to-32", 32, "zext", 0xabcdef85, 0},
	{"sext-8-to-32-neg", 32, "sext", 0xabcdef85, 0},
	{"sext-8-to-32-pos", 32, "sext", 0xabcdef75, 0},
	{"sext-16-to-32", 32, "sext16", 0x1234f234, 0},
}

// term builds the expr-level form of a vector over the variable x.
func (v *oracleVector) term(x *expr.Expr) *expr.Expr {
	switch v.op {
	case "shl":
		return expr.Shl(x, expr.Const(v.w, v.b&0x1f))
	case "shr":
		return expr.LShr(x, expr.Const(v.w, v.b&0x1f))
	case "sar":
		return expr.AShr(x, expr.Const(v.w, v.b&0x1f))
	case "div":
		return expr.UDiv(x, expr.Const(v.w, v.b))
	case "zext":
		return expr.ZExt(expr.Extract(x, 0, 8), 32)
	case "sext":
		return expr.SExt(expr.Extract(x, 0, 8), 32)
	case "sext16":
		return expr.SExt(expr.Extract(x, 0, 16), 32)
	}
	panic("unknown op " + v.op)
}

// program assembles the x86 form: operand in EAX, count/divisor in ECX,
// result left in EAX (and the remainder in EDX for div).
func (v *oracleVector) program() []byte {
	mov := func(r x86.Reg, val uint64) []byte { return x86.AsmMovRegImm32(r, uint32(val)) }
	switch v.op {
	case "shl", "shr", "sar":
		grp2 := map[string]byte{"shl": 0xe0, "shr": 0xe8, "sar": 0xf8}[v.op]
		var sh []byte
		switch v.w {
		case 8:
			sh = []byte{0xd2, grp2} // group2 rm8, CL
		case 16:
			sh = []byte{0x66, 0xd3, grp2}
		default:
			sh = []byte{0xd3, grp2}
		}
		return cat(mov(x86.ECX, v.b), mov(x86.EAX, v.a), sh, hlt)
	case "div":
		return cat(mov(x86.EDX, 0), mov(x86.EAX, v.a), mov(x86.ECX, v.b),
			[]byte{0xf7, 0xf1}, hlt) // div %ecx
	case "zext":
		return cat(mov(x86.EAX, v.a), []byte{0x0f, 0xb6, 0xc0}, hlt) // movzx %al, %eax
	case "sext":
		return cat(mov(x86.EAX, v.a), []byte{0x0f, 0xbe, 0xc0}, hlt) // movsx %al, %eax
	case "sext16":
		return cat(mov(x86.EAX, v.a), []byte{0x0f, 0xbf, 0xc0}, hlt) // movsx %ax, %eax
	}
	panic("unknown op " + v.op)
}

func TestOracleVectorsFourWay(t *testing.T) {
	image := machine.BaselineImage()
	emulators := []Factory{FidelisFactory(), CelerFactory(), LentoFactory()}
	for _, v := range oracleVectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			x := expr.Var(v.w, "x")
			term := v.term(x)
			env := map[string]uint64{"x": v.a & expr.Mask(v.w)}

			// Oracle 1: the pure evaluator defines the expected value.
			want := expr.Eval(term, env)

			// Oracle 2: the bit-blaster, with x pinned by assumption. The
			// term must be encoded before the solve: ValueOf reads the
			// solved model, and bits encoded afterwards are unassigned.
			b := solver.NewBV()
			b.Bits(term)
			rem := expr.URem(x, expr.Const(v.w, v.b))
			if v.op == "div" {
				b.Bits(rem)
			}
			pin := b.LitFor(expr.Eq(x, expr.Const(v.w, v.a&expr.Mask(v.w))))
			if st := b.CheckLits([]solver.Lit{pin}); st != solver.Sat {
				t.Fatalf("pin check = %v", st)
			}
			if got := b.ValueOf(term); got != want {
				t.Errorf("bit-blaster: %#x, evaluator: %#x", got, want)
			}
			if v.op == "div" {
				if got, w := b.ValueOf(rem), expr.Eval(rem, env); got != w {
					t.Errorf("bit-blaster remainder: %#x, evaluator: %#x", got, w)
				}
			}

			// Oracles 3 and 4: the emulators executing the instruction form.
			prog := v.program()
			for _, res := range RunAllBoot(emulators, image, nil, prog, 0) {
				if res.Snapshot.Exception != nil {
					t.Fatalf("%s raised %v", res.Impl, res.Snapshot.Exception)
				}
				got := uint64(res.Snapshot.CPU.GPR[x86.EAX]) & expr.Mask(v.w)
				// The shift result occupies only the low w bits of EAX; the
				// high bits keep their pre-shift value and are not part of
				// the vector's contract.
				if got != want {
					t.Errorf("%s: %#x, evaluator: %#x", res.Impl, got, want)
				}
				if v.op == "div" {
					wantRem := expr.Eval(rem, env)
					if gr := uint64(res.Snapshot.CPU.GPR[x86.EDX]); gr != wantRem {
						t.Errorf("%s remainder: %#x, evaluator: %#x", res.Impl, gr, wantRem)
					}
				}
			}
		})
	}
}

// rotVector is one rotate edge case driven through the same four oracles.
// b is the raw CL count (pre-mask); cin is the carry-in the program sets via
// popf before rotating. OF is asserted only where it is architecturally
// defined — count == 1, or a masked count of zero, where no flag may change
// at all (for count > 1 the Lo-Fi emulator deliberately leaves OF alone,
// finding 8, so the implementations are allowed to disagree there).
type rotVector struct {
	name string
	w    uint8
	op   string // rol | ror | rcl | rcr
	a    uint64
	b    uint64 // raw CL count
	cin  uint64 // carry-in (0 or 1)
}

var rotateVectors = []rotVector{
	// Count 0, raw and via the 5-bit mask: nothing changes, flags included.
	{"rol-w8-count0", 8, "rol", 0xa5, 0, 1},
	{"rol-w8-count32-masks-to-0", 8, "rol", 0xa5, 32, 0},
	{"ror-w8-count0", 8, "ror", 0xa5, 0, 1},
	{"rcl-w8-count0", 8, "rcl", 0xa5, 0, 1},
	{"rcr-w8-count32-masks-to-0", 8, "rcr", 0xa5, 32, 1},
	// Masked count == width: the value is unchanged but CF is still written
	// from the (full) rotation — the corner where a fast path that treats
	// "rotation by zero bits" as "count zero" would skip the flag update.
	{"rol-w8-count8-full-rotate", 8, "rol", 0x81, 8, 0},
	{"ror-w8-count8-full-rotate", 8, "ror", 0x81, 8, 0},
	{"ror-w16-count16-full-rotate", 16, "ror", 0x8001, 16, 0},
	// rcl/rcr rotate through a w+1-bit register: count w rotates the
	// carry-in into the value, count w+1 (mod w+1 = 0) is the no-op that
	// still rewrites CF with its own value.
	{"rcl-w8-count8", 8, "rcl", 0x81, 8, 1},
	{"rcl-w8-count9-full-rotate", 8, "rcl", 0x81, 9, 1},
	{"rcr-w8-count8", 8, "rcr", 0x81, 8, 1},
	{"rcr-w8-count9-full-rotate", 8, "rcr", 0x81, 9, 0},
	// Count 1: OF is defined, assert it through the formulas.
	{"rol-w8-count1", 8, "rol", 0x81, 1, 0},
	{"ror-w32-count33-masks-to-1", 32, "ror", 0x80000001, 33, 0},
	{"rcl-w8-count1", 8, "rcl", 0x80, 1, 0},
	{"rcr-w32-count1", 32, "rcr", 1, 1, 1},
	// Larger masked counts for the wide widths.
	{"rol-w32-count40-masks-to-8", 32, "rol", 0x80000001, 40, 0},
	{"rcr-w16-count12", 16, "rcr", 0x8001, 12, 1},
}

// terms builds the expr-level result and carry-out of a rotate vector over
// the operand variable x, mirroring the IR construction: plain rotates as a
// shift pair over w bits, through-carry rotates over the concatenated
// (w+1)-bit register.
func (v *rotVector) terms(x *expr.Expr) (val, cf *expr.Expr) {
	w := uint64(v.w)
	count := v.b & 0x1f
	switch v.op {
	case "rol", "ror":
		if count == 0 {
			return x, expr.Const(1, v.cin)
		}
		n := count % w
		r := x
		if n != 0 {
			if v.op == "rol" {
				r = expr.Or(expr.Shl(x, expr.Const(v.w, n)), expr.LShr(x, expr.Const(v.w, w-n)))
			} else {
				r = expr.Or(expr.LShr(x, expr.Const(v.w, n)), expr.Shl(x, expr.Const(v.w, w-n)))
			}
		}
		if v.op == "rol" {
			return r, expr.Extract(r, 0, 1)
		}
		return r, expr.Extract(r, v.w-1, 1)
	case "rcl", "rcr":
		xw := expr.Concat(expr.Const(1, v.cin), x) // bit w = CF
		if count == 0 {
			return x, expr.Const(1, v.cin)
		}
		n := count % (w + 1)
		rx := xw
		if n != 0 {
			if v.op == "rcl" {
				rx = expr.Or(expr.Shl(xw, expr.Const(v.w+1, n)), expr.LShr(xw, expr.Const(v.w+1, w+1-n)))
			} else {
				rx = expr.Or(expr.LShr(xw, expr.Const(v.w+1, n)), expr.Shl(xw, expr.Const(v.w+1, w+1-n)))
			}
		}
		return expr.Extract(rx, 0, v.w), expr.Extract(rx, v.w, 1)
	}
	panic("unknown rotate " + v.op)
}

// program assembles the x86 form: flags (CF=cin, OF=1) via popf, count in
// CL, operand in EAX, rotate, halt. OF starts at 1 so a zero-count rotate
// that clobbers it is caught.
func (v *rotVector) program() []byte {
	modrm := map[string]byte{"rol": 0xc0, "ror": 0xc8, "rcl": 0xd0, "rcr": 0xd8}[v.op]
	var rot []byte
	switch v.w {
	case 8:
		rot = []byte{0xd2, modrm}
	case 16:
		rot = []byte{0x66, 0xd3, modrm}
	default:
		rot = []byte{0xd3, modrm}
	}
	return cat(
		x86.AsmPushImm32(uint32(v.cin)|0x800),
		x86.AsmPopf(),
		x86.AsmMovRegImm32(x86.ECX, uint32(v.b)),
		x86.AsmMovRegImm32(x86.EAX, uint32(v.a)),
		rot, hlt,
	)
}

func TestOracleVectorsRotate(t *testing.T) {
	image := machine.BaselineImage()
	emulators := []Factory{FidelisFactory(), CelerFactory(), LentoFactory()}
	for _, v := range rotateVectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			x := expr.Var(v.w, "x")
			val, cf := v.terms(x)
			env := map[string]uint64{"x": v.a & expr.Mask(v.w)}
			wantVal := expr.Eval(val, env)
			wantCF := expr.Eval(cf, env)

			b := solver.NewBV()
			b.Bits(val)
			b.Bits(cf)
			pin := b.LitFor(expr.Eq(x, expr.Const(v.w, v.a&expr.Mask(v.w))))
			if st := b.CheckLits([]solver.Lit{pin}); st != solver.Sat {
				t.Fatalf("pin check = %v", st)
			}
			if got := b.ValueOf(val); got != wantVal {
				t.Errorf("bit-blaster value: %#x, evaluator: %#x", got, wantVal)
			}
			if got := b.ValueOf(cf); got != wantCF {
				t.Errorf("bit-blaster CF: %d, evaluator: %d", got, wantCF)
			}

			masked := v.b & 0x1f
			for _, res := range RunAllBoot(emulators, image, nil, v.program(), 0) {
				if res.Snapshot.Exception != nil {
					t.Fatalf("%s raised %v", res.Impl, res.Snapshot.Exception)
				}
				efl := uint64(res.Snapshot.CPU.EFLAGS)
				if got := uint64(res.Snapshot.CPU.GPR[x86.EAX]) & expr.Mask(v.w); got != wantVal {
					t.Errorf("%s value: %#x, evaluator: %#x", res.Impl, got, wantVal)
				}
				if got := efl & 1; got != wantCF {
					t.Errorf("%s CF: %d, evaluator: %d", res.Impl, got, wantCF)
				}
				if masked == 0 {
					// Count zero after masking: no flag may change, so the
					// OF=1 planted by popf must survive.
					if efl>>11&1 != 1 {
						t.Errorf("%s: zero-count rotate cleared OF", res.Impl)
					}
				}
				if masked == 1 {
					// Count one: OF is architecturally defined.
					var wantOF uint64
					msb := wantVal >> (v.w - 1) & 1
					switch v.op {
					case "rol":
						wantOF = msb ^ wantVal&1
					case "rcl":
						wantOF = msb ^ wantCF
					case "ror", "rcr":
						wantOF = msb ^ wantVal>>(v.w-2)&1
					}
					if got := efl >> 11 & 1; got != wantOF {
						t.Errorf("%s OF: %d, want %d", res.Impl, got, wantOF)
					}
				}
			}
		})
	}
}

// adjVector drives the BCD adjust instructions (aam/aad) through the four
// oracles: the quotient/remainder split and the multiply-accumulate over AL
// and AH are exactly the term shapes the symbolic layer emits for them.
type adjVector struct {
	name string
	op   string // aam | aad
	a    uint64 // initial EAX (AX is the operand)
	imm  uint8
}

var adjVectors = []adjVector{
	{"aam-10", "aam", 0x1237, 10},
	{"aam-1", "aam", 0x1237, 1},     // AH=AL, AL=0
	{"aam-255", "aam", 0x12fe, 255}, // q=0, r=254
	{"aad-10", "aad", 0x0507, 10},
	{"aad-0", "aad", 0x0507, 0},     // AL unchanged, AH cleared
	{"aad-255", "aad", 0xff02, 255}, // 8-bit wraparound in the accumulate
}

func (v *adjVector) term(x *expr.Expr) *expr.Expr {
	al := expr.Extract(x, 0, 8)
	ah := expr.Extract(x, 8, 8)
	imm := expr.Const(8, uint64(v.imm))
	if v.op == "aam" {
		return expr.Concat(expr.UDiv(al, imm), expr.URem(al, imm))
	}
	return expr.ZExt(expr.Add(al, expr.Mul(ah, imm)), 16)
}

func (v *adjVector) program() []byte {
	op := byte(0xd4)
	if v.op == "aad" {
		op = 0xd5
	}
	return cat(x86.AsmMovRegImm32(x86.EAX, uint32(v.a)), []byte{op, v.imm}, hlt)
}

func TestOracleVectorsAdjust(t *testing.T) {
	image := machine.BaselineImage()
	emulators := []Factory{FidelisFactory(), CelerFactory(), LentoFactory()}
	for _, v := range adjVectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			x := expr.Var(16, "x")
			term := v.term(x)
			env := map[string]uint64{"x": v.a & 0xffff}
			want := expr.Eval(term, env)

			b := solver.NewBV()
			b.Bits(term)
			pin := b.LitFor(expr.Eq(x, expr.Const(16, v.a&0xffff)))
			if st := b.CheckLits([]solver.Lit{pin}); st != solver.Sat {
				t.Fatalf("pin check = %v", st)
			}
			if got := b.ValueOf(term); got != want {
				t.Errorf("bit-blaster: %#x, evaluator: %#x", got, want)
			}

			for _, res := range RunAllBoot(emulators, image, nil, v.program(), 0) {
				if res.Snapshot.Exception != nil {
					t.Fatalf("%s raised %v", res.Impl, res.Snapshot.Exception)
				}
				if got := uint64(res.Snapshot.CPU.GPR[x86.EAX]) & 0xffff; got != want {
					t.Errorf("%s: AX %#x, evaluator: %#x", res.Impl, got, want)
				}
			}
		})
	}
}

// TestOracleVectorsAamZero pins the adjust-instruction boundary the same way
// the divide-by-zero test does: aam 0 divides AL by zero, so the term layer
// keeps SMT-LIB total-function semantics while both emulators raise #DE.
func TestOracleVectorsAamZero(t *testing.T) {
	x := expr.Var(16, "x")
	v := adjVector{op: "aam", a: 0x1237, imm: 0}
	term := v.term(x)
	env := map[string]uint64{"x": v.a}
	// AL/0 = all-ones (0xff), AL%0 = AL.
	if got, want := expr.Eval(term, env), uint64(0xff37); got != want {
		t.Errorf("eval aam 0 = %#x, want %#x", got, want)
	}
	image := machine.BaselineImage()
	for _, res := range RunAllBoot([]Factory{FidelisFactory(), CelerFactory(), LentoFactory()}, image, nil, v.program(), 0) {
		ex := res.Snapshot.Exception
		if ex == nil || ex.Vector != 0 {
			t.Errorf("%s: aam 0 raised %v, want #DE (vector 0)", res.Impl, ex)
		}
	}
}

// TestOracleVectorsDivideByZero pins the deliberate disagreement at the
// boundary: SMT-LIB total-function semantics (x/0 = all-ones, x%0 = x) for
// the evaluator and bit-blaster, a #DE exception for both emulators.
func TestOracleVectorsDivideByZero(t *testing.T) {
	x := expr.Var(32, "x")
	env := map[string]uint64{"x": 1234}
	q := expr.UDiv(x, expr.Const(32, 0))
	r := expr.URem(x, expr.Const(32, 0))
	if got := expr.Eval(q, env); got != expr.Mask(32) {
		t.Errorf("eval x/0 = %#x, want all-ones", got)
	}
	if got := expr.Eval(r, env); got != 1234 {
		t.Errorf("eval x%%0 = %#x, want the dividend", got)
	}
	b := solver.NewBV()
	b.Bits(q)
	b.Bits(r)
	pin := b.LitFor(expr.Eq(x, expr.Const(32, 1234)))
	if st := b.CheckLits([]solver.Lit{pin}); st != solver.Sat {
		t.Fatalf("pin check = %v", st)
	}
	if got := b.ValueOf(q); got != expr.Mask(32) {
		t.Errorf("bit-blaster x/0 = %#x, want all-ones", got)
	}
	if got := b.ValueOf(r); got != 1234 {
		t.Errorf("bit-blaster x%%0 = %#x, want the dividend", got)
	}

	image := machine.BaselineImage()
	prog := cat(x86.AsmMovRegImm32(x86.EDX, 0), x86.AsmMovRegImm32(x86.EAX, 1234),
		x86.AsmMovRegImm32(x86.ECX, 0), []byte{0xf7, 0xf1}, hlt)
	for _, res := range RunAllBoot([]Factory{FidelisFactory(), CelerFactory(), LentoFactory()}, image, nil, prog, 0) {
		ex := res.Snapshot.Exception
		if ex == nil || ex.Vector != 0 {
			t.Errorf("%s: divide by zero raised %v, want #DE (vector 0)", res.Impl, ex)
		}
	}
}
