package vax

// The CISC baseline's predecode cache stores the static half of each
// instruction — everything its bytes determine: the opcode, and per
// operand its addressing mode, register, sign-extended displacement or
// literal, and the number of instruction-stream bytes it occupies.
// Operand evaluation stays per execution, because autoincrement,
// register reads and memory loads depend on machine state. The hit path
// (stepDecoded) replays the fetch path's observable order exactly: it
// advances pc and Stats.InstBytes by each operand's bytes before
// evaluating that operand, so a fault part-way through an instruction
// names the same pc and leaves the same byte count as the fetch path.

// MaxInstLen is the longest encodable instruction in bytes, derived
// from the opcode metadata: the opcode byte plus, per operand, either a
// branch displacement or a specifier byte with at most a four-byte
// extension (displacement, absolute address or literal).
var MaxInstLen = func() int {
	longest := 0
	for op := opInvalid + 1; op < numOps; op++ {
		n := 1
		for _, arg := range infos[op].Args {
			n += argMaxBytes(arg)
		}
		longest = max(longest, n)
	}
	return longest
}()

func argMaxBytes(arg Arg) int {
	switch arg.Kind {
	case ArgBr8:
		return 1
	case ArgBr16:
		return 2
	}
	return 1 + max(4, int(arg.Size))
}

// specifier is one predecoded operand.
type specifier struct {
	val  uint32 // displacement, literal (sign-extended to size), absolute address or branch displacement
	arg  Arg
	mode Mode
	reg  uint8
	n    uint8 // instruction-stream bytes, specifier byte included
}

// predecoded is one cached instruction.
type predecoded struct {
	spec  [3]specifier
	op    Op
	nspec uint8
	size  uint8 // instruction bytes: the span walk's stride
}

// peek reads n instruction-stream bytes big-endian at addr without
// side effects.
func (c *CPU) peek(addr uint32, n int) (uint32, bool) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := c.Mem.FetchByte(addr + uint32(i))
		if err != nil {
			return 0, false
		}
		v = v<<8 | uint32(b)
	}
	return v, true
}

// decodeStatic predecodes the instruction at pc without touching any
// machine state. It fails wherever executing the instruction would
// fault before or during operand decode for a reason its bytes alone
// decide — an unreadable byte, an illegal opcode, a bad mode, the
// address of a register, an immediate destination — leaving those
// instructions to the fetch path.
func (c *CPU) decodeStatic(pc uint32) (predecoded, bool) {
	opb, ok := c.peek(pc, 1)
	if !ok {
		return predecoded{}, false
	}
	info, ok := Lookup(Op(opb))
	if !ok {
		return predecoded{}, false
	}
	d := predecoded{op: info.Op, nspec: uint8(len(info.Args))}
	at := pc + 1
	for i, arg := range info.Args {
		s := &d.spec[i]
		s.arg = arg
		if arg.Kind == ArgBr8 || arg.Kind == ArgBr16 {
			n := 1
			if arg.Kind == ArgBr16 {
				n = 2
			}
			raw, ok := c.peek(at, n)
			if !ok {
				return predecoded{}, false
			}
			s.val = uint32(signExtend(raw, uint(8*n)))
			s.n = uint8(n)
			at += uint32(n)
			continue
		}
		spec, ok := c.peek(at, 1)
		if !ok {
			return predecoded{}, false
		}
		s.mode, s.reg = Mode(spec>>4), uint8(spec&0x0f)
		ext := 0 // extension bytes after the specifier
		switch s.mode {
		case ModeReg:
			if arg.Kind == ArgAddr {
				return predecoded{}, false
			}
		case ModeDeferred, ModeAutoInc, ModeAutoDec:
		case ModeDisp8:
			ext = 1
		case ModeDisp16:
			ext = 2
		case ModeDisp32:
			ext = 4
		case ModeImmAbs:
			ext = 4
			if s.reg == immSub {
				if arg.Kind == ArgWrite || arg.Kind == ArgMod || arg.Kind == ArgAddr {
					return predecoded{}, false
				}
				ext = int(arg.Size)
			}
		default:
			return predecoded{}, false
		}
		raw, ok := c.peek(at+1, ext)
		if !ok {
			return predecoded{}, false
		}
		switch {
		case s.mode >= ModeDisp8 && s.mode <= ModeDisp32:
			s.val = uint32(signExtend(raw, uint(8*ext)))
		case s.mode == ModeImmAbs && s.reg == immSub:
			s.val = signExtendToSize(raw, arg.Size)
		default:
			s.val = raw
		}
		s.n = uint8(1 + ext)
		at += uint32(1 + ext)
	}
	d.size = uint8(at - pc)
	return d, true
}

// stepDecoded executes one predecoded instruction. It copies what it
// needs out of d before exec runs: a store by this very instruction
// into its own bytes clears d's cache entry in place.
func (c *CPU) stepDecoded(d *predecoded) {
	pcStart := c.pc
	op := d.op
	c.pc++
	c.Stats.InstBytes++
	cycles := uint64(costDispatch)
	var opsBuf [3]operand
	nops := 0
	var brDisp int32
	for i := 0; i < int(d.nspec); i++ {
		s := &d.spec[i]
		c.pc += uint32(s.n)
		c.Stats.InstBytes += uint64(s.n)
		if s.arg.Kind == ArgBr8 || s.arg.Kind == ArgBr16 {
			brDisp = int32(s.val)
			continue
		}
		o, ok := c.evalOperand(s, &cycles)
		if !ok {
			return
		}
		opsBuf[nops] = o
		nops++
	}
	info := &infos[op]
	if !c.exec(op, info, opsBuf[:nops], brDisp, &cycles) {
		return
	}
	if c.Obs != nil {
		c.observe(pcStart, info.Name, cycles)
	}
	c.Trace.ExecHandle(c.opHandles[op], cycles)
}

// evalOperand is decodeOperand's dynamic half for a predecoded
// specifier, with the same cycle charges and side effects in the same
// order.
func (c *CPU) evalOperand(s *specifier, cycles *uint64) (operand, bool) {
	*cycles += costSpecifier
	var addr uint32
	switch s.mode {
	case ModeReg:
		o := operand{loc: location{isReg: true, reg: s.reg}, hasLoc: true}
		if s.arg.Kind == ArgRead || s.arg.Kind == ArgMod {
			o.val = c.readReg(s.reg, s.arg.Size)
		}
		return o, true
	case ModeDeferred:
		addr = c.R[s.reg]
	case ModeAutoInc:
		addr = c.R[s.reg]
		c.R[s.reg] += uint32(s.arg.Size)
	case ModeAutoDec:
		c.R[s.reg] -= uint32(s.arg.Size)
		addr = c.R[s.reg]
	case ModeImmAbs:
		*cycles += costDispFetch
		if s.reg == immSub {
			return operand{val: s.val}, true
		}
		addr = s.val
	default: // ModeDisp8, ModeDisp16, ModeDisp32
		*cycles += costDispFetch
		addr = c.R[s.reg] + s.val
	}
	return c.memOperand(s.arg, addr, cycles)
}
