package harness

import (
	"testing"

	"pokeemu/internal/diff"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// Shift counts at or beyond the operand width are only reachable through
// the CL form on 8- and 16-bit operands (the count is masked to 5 bits
// first, so e.g. CL=40 shifts an 8-bit operand by 8). The tricky case is
// count == width: the result is 0 (or the sign fill for SAR), but SHR's CF
// is the operand's MSB — the last bit actually shifted out — not 0. All
// three implementations must agree on the defined flags.
func TestShiftCountAtAndBeyondWidth(t *testing.T) {
	image := machine.BaselineImage()
	factories := []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()}
	cases := []struct {
		name    string
		handler string
		cl, a   uint32
		shift   []byte
	}{
		// CL=40 → masked count 8 == width of AL.
		{"shr-al-count-eq-width-msb1", "shr_rm8_cl", 40, 0x80, []byte{0xd2, 0xe8}},
		{"shr-al-count-eq-width-msb0", "shr_rm8_cl", 40, 0x7f, []byte{0xd2, 0xe8}},
		// CL=20 → masked count 20 > 8: everything shifted out is zero.
		{"shr-al-count-gt-width", "shr_rm8_cl", 20, 0xff, []byte{0xd2, 0xe8}},
		// CL=48 → masked count 16 == width of AX.
		{"shr-ax-count-eq-width", "shr_rmv_cl", 48, 0x8000, []byte{0x66, 0xd3, 0xe8}},
		{"shr-ax-count-gt-width", "shr_rmv_cl", 17, 0xffff, []byte{0x66, 0xd3, 0xe8}},
		// SHL and SAR at the same masked counts (regression guard: these
		// already agreed, and must keep agreeing).
		{"shl-al-count-eq-width", "shl_rm8_cl", 40, 0x01, []byte{0xd2, 0xe0}},
		{"shl-al-count-gt-width", "shl_rm8_cl", 20, 0xff, []byte{0xd2, 0xe0}},
		{"sar-al-count-eq-width", "sar_rm8_cl", 40, 0x80, []byte{0xd2, 0xf8}},
		{"sar-ax-count-gt-width", "sar_rmv_cl", 31, 0x8000, []byte{0x66, 0xd3, 0xf8}},
	}
	for _, c := range cases {
		prog := cat(
			x86.AsmMovRegImm32(x86.ECX, c.cl),
			x86.AsmMovRegImm32(x86.EAX, c.a),
			c.shift,
			hlt,
		)
		results := RunAllBoot(factories, image, nil, prog, 0)
		filter := diff.UndefFilterFor(c.handler)
		for i := 1; i < len(results); i++ {
			ds := diff.Compare(results[0].Snapshot, results[i].Snapshot, filter)
			if len(ds) > 0 {
				t.Errorf("%s: %s vs %s: %v", c.name, results[0].Impl,
					results[i].Impl, ds)
			}
		}
	}
}
