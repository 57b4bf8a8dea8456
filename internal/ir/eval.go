package ir

import (
	"errors"
	"fmt"

	"pokeemu/internal/expr"
	"pokeemu/internal/x86"
)

// State is the machine-state surface an IR program executes against.
// Addresses passed to Load/Store are physical.
type State interface {
	Get(loc x86.Loc) uint64
	Set(loc x86.Loc, v uint64)
	Load(phys uint32, bytes uint8) uint64
	Store(phys uint32, v uint64, bytes uint8)
}

// OutKind classifies how a program run ended.
type OutKind uint8

// Run outcomes.
const (
	OutEnd OutKind = iota
	OutRaise
	OutHalt
)

// Outcome describes the termination of a program run.
type Outcome struct {
	Kind    OutKind
	Vector  uint8
	ErrCode uint32
	HasErr  bool
	Soft    bool
}

func (o Outcome) String() string {
	switch o.Kind {
	case OutRaise:
		if o.HasErr {
			return fmt.Sprintf("raise #%d err=%#x", o.Vector, o.ErrCode)
		}
		return fmt.Sprintf("raise #%d", o.Vector)
	case OutHalt:
		return "halt"
	default:
		return "end"
	}
}

// ErrStepLimit is returned when a program exceeds its step budget
// (a diverging loop in the semantics, e.g. rep with a huge count).
var ErrStepLimit = errors.New("ir: step limit exceeded")

func signExtTo64(v uint64, w uint8) uint64 {
	if w >= 64 || v&(uint64(1)<<(w-1)) == 0 {
		return v
	}
	return v | ^expr.Mask(w)
}

// Run executes the program concretely against st. maxSteps bounds the number
// of executed statements (0 means a generous default).
func Run(p *Program, st State, maxSteps int) (Outcome, error) {
	return RunEdges(p, st, maxSteps, nil)
}

// EdgeFunc observes one control-flow edge during concrete evaluation. It
// fires on program entry (from = -1), on every jump — taken and
// fall-through sides of KCJump, and KJump — and on termination (to = -1),
// i.e. roughly once per executed basic block. Straight-line statements never
// reach it.
type EdgeFunc func(from, to int)

// RunEdges is Run with an optional edge observer for coverage
// instrumentation. The hook is nil-checked only at jumps and terminators,
// so an uninstrumented run pays one predictable branch per executed basic
// block and nothing per straight-line statement.
func RunEdges(p *Program, st State, maxSteps int, edge EdgeFunc) (Outcome, error) {
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	temps := make([]uint64, len(p.TempWidths))
	val := func(o Operand) uint64 {
		if o.IsConst {
			return o.Val
		}
		return temps[o.Temp]
	}
	widthOf := func(o Operand) uint8 {
		if o.IsConst {
			return o.Width
		}
		return p.TempWidths[o.Temp]
	}

	pc := 0
	if edge != nil {
		edge(-1, 0)
	}
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return Outcome{}, ErrStepLimit
		}
		if pc < 0 || pc >= len(p.Stmts) {
			return Outcome{}, fmt.Errorf("ir: pc %d out of range in %s", pc, p.Name)
		}
		s := &p.Stmts[pc]
		switch s.Kind {
		case KAssign:
			temps[s.Dst] = evalOp(s, val, widthOf)
		case KMove:
			temps[s.Dst] = val(s.Args[0])
		case KGet:
			temps[s.Dst] = st.Get(s.Loc) & expr.Mask(s.Loc.Width())
		case KSet:
			st.Set(s.Loc, val(s.Args[0]))
		case KLoad:
			temps[s.Dst] = st.Load(uint32(val(s.Args[0])), s.Width)
		case KStore:
			st.Store(uint32(val(s.Args[0])), val(s.Args[1]), s.Width)
		case KCJump:
			to := pc + 1
			if val(s.Args[0])&1 == 1 {
				to = s.Target
			}
			if edge != nil {
				edge(pc, to)
			}
			pc = to
			continue
		case KJump:
			if edge != nil {
				edge(pc, s.Target)
			}
			pc = s.Target
			continue
		case KRaise:
			out := Outcome{Kind: OutRaise, Vector: s.Vector, HasErr: s.HasErr, Soft: s.Soft}
			if s.HasErr {
				out.ErrCode = uint32(val(s.Args[0]))
			}
			if edge != nil {
				edge(pc, -1)
			}
			return out, nil
		case KEnd:
			if edge != nil {
				edge(pc, -1)
			}
			return Outcome{Kind: OutEnd}, nil
		case KHalt:
			if edge != nil {
				edge(pc, -1)
			}
			return Outcome{Kind: OutHalt}, nil
		default:
			return Outcome{}, fmt.Errorf("ir: unknown stmt kind %d", s.Kind)
		}
		pc++
	}
}

func evalOp(s *Stmt, val func(Operand) uint64, widthOf func(Operand) uint8) uint64 {
	m := expr.Mask(s.Width)
	a := val(s.Args[0])
	switch s.EOp {
	case expr.OpNot:
		return ^a & m
	case expr.OpNeg:
		return -a & m
	case expr.OpZExt:
		return a
	case expr.OpSExt:
		return signExtTo64(a, widthOf(s.Args[0])) & m
	case expr.OpExtract:
		return a >> s.Lo & m
	}
	bw := widthOf(s.Args[1])
	b := val(s.Args[1])
	switch s.EOp {
	case expr.OpAnd:
		return a & b
	case expr.OpOr:
		return a | b
	case expr.OpXor:
		return a ^ b
	case expr.OpAdd:
		return (a + b) & m
	case expr.OpSub:
		return (a - b) & m
	case expr.OpMul:
		return (a * b) & m
	case expr.OpUDiv:
		if b == 0 {
			return m
		}
		return a / b
	case expr.OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case expr.OpShl:
		if b >= uint64(s.Width) {
			return 0
		}
		return a << b & m
	case expr.OpLShr:
		if b >= uint64(s.Width) {
			return 0
		}
		return a >> b
	case expr.OpAShr:
		if b >= uint64(s.Width) {
			b = uint64(s.Width) - 1
		}
		return uint64(int64(signExtTo64(a, s.Width))>>b) & m
	case expr.OpEq:
		if a == b {
			return 1
		}
		return 0
	case expr.OpUlt:
		if a < b {
			return 1
		}
		return 0
	case expr.OpSlt:
		aw := widthOf(s.Args[0])
		if int64(signExtTo64(a, aw)) < int64(signExtTo64(b, bw)) {
			return 1
		}
		return 0
	case expr.OpConcat:
		return (a<<bw | b) & m
	case expr.OpIte:
		if a&1 == 1 {
			return val(s.Args[1])
		}
		return val(s.Args[2])
	default:
		panic(fmt.Sprintf("ir: eval of op %s", s.EOp))
	}
}
