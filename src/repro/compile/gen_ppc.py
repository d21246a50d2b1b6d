"""PowerPC superblock code generator.

Same contract as :mod:`repro.compile.gen_x86`, with the G4-specific
observation points replicated exactly:

* ``cr`` is carried in a local (the PPC analogue of EFLAGS); ``lr``,
  ``ctr`` and ``xer`` stay on the CPU object — they are touched by few
  instructions and always via plain attribute access.
* Loads add the +2 misalignment penalty *before* the permission check;
  misaligned stores raise ALIGNMENT before checking, exactly like
  ``cpu.store``.
* The MSR[DR]-clear trap (``_high_data_fault``) is hoisted into a
  local: only system instructions can change it and they always end a
  block.
* Every taken branch goes through the BTIC-poisoning check; the
  poisoned path delegates to ``cpu.branch`` so the PROGRAM fault is
  raised with identical attribution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.isa.faults import AccessKind, MemoryFault
from repro.ppc import decoder as pdec
from repro.ppc.exceptions import PPCFault, PPCVector

M = 0xFFFFFFFF

INLINE_SLACK = 8
GENERIC_SLACK = 150

#: register-count-driven loops; cycle cost unbounded per instruction
UNBOUNDED = frozenset()

#: initial per-site region cell: epoch 0 is never drawn, so it misses
_EMPTY_CELL = (None, 0)

_NAMED_SPRS = {8: "lr", 9: "ctr", 1: "xer"}


def insn_length(instr) -> int:
    return 4


def decode_raw(cpu, addr: int):
    return pdec.decode(cpu.mem.read_u32(addr, False), addr)


def fetch(cpu, addr: int):
    """Discovery-time fetch; raises MemoryFault on a failed check so
    discovery can truncate without touching DAR/DSISR."""
    instr = cpu._icache.get(addr)
    if instr is None:
        cpu.aspace.check(addr, 4, AccessKind.FETCH)
        instr = cpu._icache_warm.get(addr)
        if instr is None:
            instr = decode_raw(cpu, addr)
    return instr


# ---------------------------------------------------------------------------


class _Gen:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {
            "__builtins__": {},
            # the skeleton's except clause must resolve this even
            # though the namespace has no builtins
            "BaseException": BaseException,
            "MF": MemoryFault,
            "AKR": AccessKind.READ,
            "AKW": AccessKind.WRITE,
            "PF": PPCFault,
            "ALV": PPCVector.ALIGNMENT,
        }
        self.pend = 0
        self.max_cycles = 0
        self.pc_done = False
        self.returned = False
        self._n = 0

    def w(self, line: str) -> None:
        self.lines.append("        " + line)

    def bind(self, prefix: str, obj) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.ns[name] = obj
        return name

    def flush(self) -> None:
        if self.pend:
            self.w(f"cyc += {self.pend}")
            self.pend = 0

    def entry(self, a: int, n: int, k: int) -> None:
        self.flush()
        self.w(f"cur = {a}; nxt = {n}; ri = {k}")


def _wp_sync(g: _Gen, width: int, kind: str) -> None:
    g.w("if debug._watchpoints:")
    g.w("    cpu.cycles = cyc; cpu.instret = ins + ri; cpu.cr = cr")
    g.w("    cpu.current_pc = cur; cpu.pc = nxt")
    g.w(f"    debug.check_access(a_, {width}, {kind}, cyc)")


_READS = {4: "mem.read_u32(a_, False)", 2: "mem.read_u16(a_, False)",
          1: "mem.read_u8(a_)"}


def _load(g: _Gen, width: int, known_aligned: bool = False) -> None:
    """cpu.load(); address in ``a_``, result in ``v_``.

    The fast path inlines ``aspace.check``'s last-region hit (the same
    containment + permission test, without the call) through the same
    one-tuple ``(region, epoch)`` site cell as the x86 emitter, and the
    single-page big-endian read; the G4 core never turns
    ``translation_on`` off (high-address faults go through the ``hdf``
    guard above instead).  Misses fall back to the real calls so
    faults are attributed identically.  ``known_aligned`` skips the
    misalignment cycle penalty when the emitter has already proven
    word alignment (lmw)."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w("    cyc += 2")
    cell = g.bind("s", [_EMPTY_CELL])
    g.w(f"rg_, ep_ = {cell}[0]")
    g.w(f"if ep_ == aspace._epoch and rg_.start <= a_ and "
        f"a_ + {width} <= rg_.start + rg_.size and \"r\" in rg_.perm:")
    if width == 4:
        g.w("    o_ = a_ & 4095")
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    if pg_ is not None and o_ < 4093:")
        g.w("        v_ = (pg_[o_] << 24) | (pg_[o_ + 1] << 16) | "
            "(pg_[o_ + 2] << 8) | pg_[o_ + 3]")
        g.w("    else:")
        g.w("        v_ = mem.read_u32(a_, False)")
    elif width == 2:
        g.w("    o_ = a_ & 4095")
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    if pg_ is not None and o_ < 4095:")
        g.w("        v_ = (pg_[o_] << 8) | pg_[o_ + 1]")
        g.w("    else:")
        g.w("        v_ = mem.read_u16(a_, False)")
    else:
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    v_ = pg_[a_ & 4095] if pg_ is not None else 0")
    g.w("else:")
    g.w("    try:")
    g.w(f"        aspace.check(a_, {width}, AKR)")
    g.w("    except MF as mf:")
    g.w("        cpu._memfault(mf)")
    g.w(f"    v_ = {_READS[width]}")
    g.w(f"    {cell}[0] = (aspace._last, aspace._epoch)")
    g.w("cyc += 2")
    _wp_sync(g, width, "AKR")


def _store(g: _Gen, width: int, value: str,
           known_aligned: bool = False) -> None:
    """Mirror of :func:`_load` for writes; the fast path additionally
    requires the page to be private (COW pages and misses go through
    ``mem.write_*`` which privatizes)."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w(f'    raise PF(ALV, a_, "unaligned {width}-byte store")')
    cell = g.bind("s", [_EMPTY_CELL])
    g.w(f"rg_, ep_ = {cell}[0]")
    g.w(f"if ep_ == aspace._epoch and rg_.start <= a_ and "
        f"a_ + {width} <= rg_.start + rg_.size and \"w\" in rg_.perm:")
    g.w("    pi_ = a_ >> 12")
    g.w("    pg_ = pages.get(pi_)")
    if width == 4:
        g.w("    o_ = a_ & 4095")
        g.w("    if pg_ is not None and o_ < 4093 and pi_ not in shared_:")
        g.w(f"        pg_[o_:o_ + 4] = "
            f"(({value}) & 4294967295).to_bytes(4, \"big\")")
        g.w("    else:")
        g.w(f"        mem.write_u32(a_, {value}, False)")
    elif width == 2:
        g.w("    o_ = a_ & 4095")
        g.w("    if pg_ is not None and o_ < 4095 and pi_ not in shared_:")
        g.w(f"        t_ = {value}")
        g.w("        pg_[o_] = (t_ >> 8) & 255")
        g.w("        pg_[o_ + 1] = t_ & 255")
        g.w("    else:")
        g.w(f"        mem.write_u16(a_, {value}, False)")
    else:
        g.w("    if pg_ is not None and pi_ not in shared_:")
        g.w(f"        pg_[a_ & 4095] = ({value}) & 255")
        g.w("    else:")
        g.w(f"        mem.write_u8(a_, {value})")
    g.w("else:")
    g.w("    try:")
    g.w(f"        aspace.check(a_, {width}, AKW)")
    g.w("    except MF as mf:")
    g.w("        cpu._memfault(mf)")
    if width == 4:
        g.w(f"    mem.write_u32(a_, {value}, False)")
    elif width == 2:
        g.w(f"    mem.write_u16(a_, {value}, False)")
    else:
        g.w(f"    mem.write_u8(a_, {value})")
    g.w(f"    {cell}[0] = (aspace._last, aspace._epoch)")
    g.w("cyc += 2")
    _wp_sync(g, width, "AKW")


def _signed(g: _Gen, var: str) -> None:
    g.w(f"{var} = {var} - 4294967296 if {var} & 2147483648 else {var}")


def _set_cr0(g: _Gen, result: str) -> None:
    """set_cr0_signed: LT if negative, EQ if zero, else GT, into field 0."""
    g.w(f"cr = (cr & 268435455) | (2147483648 if {result} & 2147483648"
        f" else (536870912 if {result} == 0 else 1073741824))")


def _crf(g: _Gen, field: int, a: str, b: str) -> None:
    shift = 28 - 4 * field
    clear = (~(0xF << shift)) & M
    g.w(f"cr = (cr & {clear}) | "
        f"((8 if {a} < {b} else (4 if {a} > {b} else 2)) << {shift})")


# ---------------------------------------------------------------------------
# emitters


def _e_addi(g, i, a, n, k) -> bool:
    if i.ra:
        g.w(f"gpr[{i.rt}] = (gpr[{i.ra}] + {i.imm}) & 4294967295")
    else:
        g.w(f"gpr[{i.rt}] = {i.imm & M}")
    return True


def _e_addis(g, i, a, n, k) -> bool:
    hi = i.imm << 16
    if i.ra:
        g.w(f"gpr[{i.rt}] = (gpr[{i.ra}] + {hi}) & 4294967295")
    else:
        g.w(f"gpr[{i.rt}] = {hi & M}")
    return True


def _e_addic(g, i, a, n, k) -> bool:
    g.w(f"t_ = gpr[{i.ra}] + {i.imm}")
    g.w("cpu.xer = (cpu.xer & -536870913)"
        " | (536870912 if t_ > 4294967295 else 0)")
    g.w(f"gpr[{i.rt}] = t_ & 4294967295")
    return True


def _e_subfic(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.ra}]")
    g.w(f"cpu.xer = (cpu.xer & -536870913)"
        f" | (536870912 if v_ <= {i.imm & M} else 0)")
    g.w(f"gpr[{i.rt}] = ({i.imm} - v_) & 4294967295")
    return True


def _e_adde(g, i, a, n, k) -> bool:
    g.w(f"t_ = gpr[{i.ra}] + gpr[{i.rb}]"
        " + (1 if cpu.xer & 536870912 else 0)")
    g.w("cpu.xer = (cpu.xer & -536870913)"
        " | (536870912 if t_ > 4294967295 else 0)")
    g.w(f"gpr[{i.rt}] = t_ & 4294967295")
    return True


def _e_addze(g, i, a, n, k) -> bool:
    g.w(f"t_ = gpr[{i.ra}] + (1 if cpu.xer & 536870912 else 0)")
    g.w("cpu.xer = (cpu.xer & -536870913)"
        " | (536870912 if t_ > 4294967295 else 0)")
    g.w(f"gpr[{i.rt}] = t_ & 4294967295")
    return True


def _e_mulli(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.ra}]")
    _signed(g, "v_")
    g.w(f"gpr[{i.rt}] = (v_ * {i.imm}) & 4294967295")
    g.pend += 3
    return True


def _e_mullw(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.ra}]")
    _signed(g, "v_")
    g.w(f"t_ = gpr[{i.rb}]")
    _signed(g, "t_")
    g.w(f"gpr[{i.rt}] = (v_ * t_) & 4294967295")
    g.pend += 3
    return True


def _e_add(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.rt}] = (gpr[{i.ra}] + gpr[{i.rb}]) & 4294967295")
    return True


def _e_subf(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.rt}] = (gpr[{i.rb}] - gpr[{i.ra}]) & 4294967295")
    return True


def _e_neg(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.rt}] = (-gpr[{i.ra}]) & 4294967295")
    return True


def _e_and(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] & gpr[{i.rb}]")
    return True


def _e_or(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] | gpr[{i.rb}]")
    return True


def _e_xor(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] ^ gpr[{i.rb}]")
    return True


def _e_nand(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = (gpr[{i.rt}] & gpr[{i.rb}]) ^ 4294967295")
    return True


def _e_nor(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = (gpr[{i.rt}] | gpr[{i.rb}]) ^ 4294967295")
    return True


def _e_slw(g, i, a, n, k) -> bool:
    g.w(f"s_ = gpr[{i.rb}] & 63")
    g.w(f"gpr[{i.ra}] = (gpr[{i.rt}] << s_) & 4294967295"
        " if s_ < 32 else 0")
    return True


def _e_srw(g, i, a, n, k) -> bool:
    g.w(f"s_ = gpr[{i.rb}] & 63")
    g.w(f"gpr[{i.ra}] = (gpr[{i.rt}] >> s_) if s_ < 32 else 0")
    return True


def _e_sraw(g, i, a, n, k) -> bool:
    g.w(f"s_ = gpr[{i.rb}] & 63")
    g.w(f"v_ = gpr[{i.rt}]")
    _signed(g, "v_")
    g.w("gpr[%d] = (v_ >> (s_ if s_ < 31 else 31)) & 4294967295" % i.ra)
    return True


def _e_srawi(g, i, a, n, k) -> bool:
    sh = i.rb
    g.w(f"v_ = gpr[{i.rt}]")
    g.w(f"gpr[{i.ra}] = ((v_ - 4294967296) >> {sh}) & 4294967295"
        f" if v_ & 2147483648 else v_ >> {sh}")
    return True


def _e_ori(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] | {i.imm}")
    return True


def _e_oris(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] | {i.imm << 16}")
    return True


def _e_xori(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] ^ {i.imm}")
    return True


def _e_xoris(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.ra}] = gpr[{i.rt}] ^ {i.imm << 16}")
    return True


def _e_andi_dot(g, i, a, n, k) -> bool:
    g.w(f"r_ = gpr[{i.rt}] & {i.imm}")
    g.w(f"gpr[{i.ra}] = r_")
    _set_cr0(g, "r_")
    return True


def _e_andis_dot(g, i, a, n, k) -> bool:
    g.w(f"r_ = gpr[{i.rt}] & {i.imm << 16}")
    g.w(f"gpr[{i.ra}] = r_")
    _set_cr0(g, "r_")
    return True


def _e_rlwinm(g, i, a, n, k) -> bool:
    sh, mb, me = i.rb, i.imm, i.op2
    if mb <= me:
        mask = ((1 << (me - mb + 1)) - 1) << (31 - me)
    else:
        mask = M ^ (((1 << (mb - me - 1)) - 1) << (31 - mb + 1))
    g.w(f"v_ = gpr[{i.rt}]")
    if sh:
        g.w(f"gpr[{i.ra}] = ((v_ << {sh}) | (v_ >> {32 - sh})) & {mask}")
    else:
        g.w(f"gpr[{i.ra}] = v_ & {mask}")
    return True


def _e_cntlzw(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.rt}]")
    g.w(f"gpr[{i.ra}] = 32 - v_.bit_length() if v_ else 32")
    return True


def _e_extsb(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.rt}] & 255")
    g.w(f"gpr[{i.ra}] = (v_ | 4294967040) if v_ & 128 else v_")
    return True


def _e_extsh(g, i, a, n, k) -> bool:
    g.w(f"v_ = gpr[{i.rt}] & 65535")
    g.w(f"gpr[{i.ra}] = (v_ | 4294901760) if v_ & 32768 else v_")
    return True


def _e_cmpwi(g, i, a, n, k) -> bool:
    g.w(f"va_ = gpr[{i.ra}]")
    _signed(g, "va_")
    _crf(g, i.op2, "va_", str(i.imm))
    return True


def _e_cmplwi(g, i, a, n, k) -> bool:
    _crf(g, i.op2, f"gpr[{i.ra}]", str(i.imm))
    return True


def _e_cmpw(g, i, a, n, k) -> bool:
    g.w(f"va_ = gpr[{i.ra}]")
    _signed(g, "va_")
    g.w(f"vb_ = gpr[{i.rb}]")
    _signed(g, "vb_")
    _crf(g, i.op2, "va_", "vb_")
    return True


def _e_cmplw(g, i, a, n, k) -> bool:
    g.w(f"va_ = gpr[{i.ra}]")
    g.w(f"vb_ = gpr[{i.rb}]")
    _crf(g, i.op2, "va_", "vb_")
    return True


def _e_mfcr(g, i, a, n, k) -> bool:
    g.w(f"gpr[{i.rt}] = cr")
    return True


def _e_mfspr(g, i, a, n, k) -> bool:
    attr = _NAMED_SPRS.get(i.imm)
    if attr is None:
        return False
    g.w(f"gpr[{i.rt}] = cpu.{attr}")
    return True


def _e_mtspr(g, i, a, n, k) -> bool:
    attr = _NAMED_SPRS.get(i.imm)
    if attr is None:
        return False
    g.w(f"cpu.{attr} = gpr[{i.rt}] & 4294967295")
    return True


def _e_nopish(g, i, a, n, k) -> bool:
    g.pend += 2
    return True


# -- memory -----------------------------------------------------------------


def _d_addr(i) -> str:
    if i.ra:
        return f"(gpr[{i.ra}] + {i.imm}) & 4294967295"
    return str(i.imm & M)


def _x_addr(i) -> str:
    if i.ra:
        return f"(gpr[{i.ra}] + gpr[{i.rb}]) & 4294967295"
    return f"gpr[{i.rb}]"


def _mk_load(addr_fn, width, sign=False, update=False):
    def emit(g, i, a, n, k) -> bool:
        g.entry(a, n, k)
        g.w(f"a_ = {addr_fn(i)}")
        _load(g, width)
        if sign:
            g.w(f"gpr[{i.rt}] = (v_ | 4294901760) if v_ & 32768 else v_")
        else:
            g.w(f"gpr[{i.rt}] = v_")
        if update:
            g.w(f"gpr[{i.ra}] = a_")
        return True
    return emit


def _mk_store(addr_fn, width, update=False):
    def emit(g, i, a, n, k) -> bool:
        g.entry(a, n, k)
        g.w(f"a_ = {addr_fn(i)}")
        _store(g, width, f"gpr[{i.rt}]")
        if update:
            g.w(f"gpr[{i.ra}] = a_")
        return True
    return emit


def _u_addr(i) -> str:
    # lwzu/stwu: no ra==0 folding — the executor always reads gpr[ra]
    return f"(gpr[{i.ra}] + {i.imm}) & 4294967295"


def _e_lmw(g, i, a, n, k) -> bool:
    """Unrolled load-multiple: rt..r31, word count known at decode time
    so the cycle cost is bounded (2 per word after the alignment
    check, exactly like the per-word cpu.load calls)."""
    g.entry(a, n, k)
    g.w(f"a_ = {_d_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "lmw operand not aligned")')
    for reg in range(i.rt, 32):
        _load(g, 4, known_aligned=True)
        g.w(f"gpr[{reg}] = v_")
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


def _e_stmw(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w(f"a_ = {_d_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "stmw operand not aligned")')
    for reg in range(i.rt, 32):
        _store(g, 4, f"gpr[{reg}]", known_aligned=True)
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


# -- branches (block-final) --------------------------------------------------


def _taken_branch(g: _Gen, target: str) -> None:
    """Emit the taken path: BTIC check (cpu.branch raises the PROGRAM
    fault itself when poisoned), then the pc update + 2 cycles."""
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w(f"    cpu.pc = {target}")
    g.w("    cyc += 2")


def _e_b(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w("if cpu.btic_poisoned:")
    g.w("    cpu.branch(0)")
    g.w(f"cpu.pc = {target & 0xFFFFFFFC}")
    g.w("cyc += 2")
    g.pc_done = True
    return True


def _bc_cond(g: _Gen, bo: int, bi: int) -> str:
    """Decompose _bc_taken for constant bo/bi; emits the CTR decrement
    and returns the taken expression ('True' when unconditional)."""
    conds = []
    if not bo & 0x4:
        g.w("cpu.ctr = (cpu.ctr - 1) & 4294967295")
        conds.append("cpu.ctr == 0" if bo & 0x2 else "cpu.ctr != 0")
    if not bo & 0x10:
        bit = f"(cr >> {31 - (bi & 31)}) & 1"
        conds.append(bit if bo & 0x8 else f"not {bit}")
    return " and ".join(conds) if conds else "True"


def _e_bc(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    cond = _bc_cond(g, i.rt, i.ra)
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w(f"if {cond}:")
    _taken_branch(g, str(target & 0xFFFFFFFC))
    if cond != "True":
        g.w("else:")
        g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True


def _e_bclr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt, i.ra)
    g.w(f"tk_ = {cond}")
    g.w("t_ = cpu.lr & 4294967292")
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    g.w("if tk_:")
    _taken_branch(g, "t_")
    g.w("else:")
    g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True


def _e_bcctr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt | 0x4, i.ra)    # bcctr never decrements CTR
    g.w(f"if {cond}:")
    if i.op2 & 1:
        g.w(f"    cpu.lr = {n}")
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w("    cpu.pc = cpu.ctr & 4294967292")
    g.w("    cyc += 2")
    if cond != "True":
        g.w("else:")
        g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True


_INLINE: Dict[Callable, Callable] = {
    pdec.exec_addi: _e_addi,
    pdec.exec_addis: _e_addis,
    pdec.exec_addic: _e_addic,
    pdec.exec_subfic: _e_subfic,
    pdec.exec_adde: _e_adde,
    pdec.exec_addze: _e_addze,
    pdec.exec_mulli: _e_mulli,
    pdec.exec_mullw: _e_mullw,
    pdec.exec_add: _e_add,
    pdec.exec_subf: _e_subf,
    pdec.exec_neg: _e_neg,
    pdec.exec_and: _e_and,
    pdec.exec_or: _e_or,
    pdec.exec_xor: _e_xor,
    pdec.exec_nand: _e_nand,
    pdec.exec_nor: _e_nor,
    pdec.exec_slw: _e_slw,
    pdec.exec_srw: _e_srw,
    pdec.exec_sraw: _e_sraw,
    pdec.exec_srawi: _e_srawi,
    pdec.exec_ori: _e_ori,
    pdec.exec_oris: _e_oris,
    pdec.exec_xori: _e_xori,
    pdec.exec_xoris: _e_xoris,
    pdec.exec_andi_dot: _e_andi_dot,
    pdec.exec_andis_dot: _e_andis_dot,
    pdec.exec_rlwinm: _e_rlwinm,
    pdec.exec_cntlzw: _e_cntlzw,
    pdec.exec_extsb: _e_extsb,
    pdec.exec_extsh: _e_extsh,
    pdec.exec_cmpwi: _e_cmpwi,
    pdec.exec_cmplwi: _e_cmplwi,
    pdec.exec_cmpw: _e_cmpw,
    pdec.exec_cmplw: _e_cmplw,
    pdec.exec_mfcr: _e_mfcr,
    pdec.exec_mfspr: _e_mfspr,
    pdec.exec_mtspr: _e_mtspr,
    pdec.exec_nopish: _e_nopish,
    pdec.exec_lwz: _mk_load(_d_addr, 4),
    pdec.exec_lbz: _mk_load(_d_addr, 1),
    pdec.exec_lhz: _mk_load(_d_addr, 2),
    pdec.exec_lha: _mk_load(_d_addr, 2, sign=True),
    pdec.exec_lwzx: _mk_load(_x_addr, 4),
    pdec.exec_lbzx: _mk_load(_x_addr, 1),
    pdec.exec_lhzx: _mk_load(_x_addr, 2),
    pdec.exec_lhax: _mk_load(_x_addr, 2, sign=True),
    pdec.exec_lwzu: _mk_load(_u_addr, 4, update=True),
    pdec.exec_stw: _mk_store(_d_addr, 4),
    pdec.exec_stb: _mk_store(_d_addr, 1),
    pdec.exec_sth: _mk_store(_d_addr, 2),
    pdec.exec_stwx: _mk_store(_x_addr, 4),
    pdec.exec_stbx: _mk_store(_x_addr, 1),
    pdec.exec_sthx: _mk_store(_x_addr, 2),
    pdec.exec_stwu: _mk_store(_u_addr, 4, update=True),
    pdec.exec_lmw: _e_lmw,
    pdec.exec_stmw: _e_stmw,
}

_INLINE_FINAL: Dict[Callable, Callable] = {
    pdec.exec_b: _e_b,
    pdec.exec_bc: _e_bc,
    pdec.exec_bclr: _e_bclr,
    pdec.exec_bcctr: _e_bcctr,
}


def _emit_generic(g: _Gen, i, a: int, n: int, k: int, final: bool) -> None:
    g.entry(a, n, k)
    fn = g.bind("f", i.execute)
    obj = g.bind("i", i)
    g.w("cpu.current_pc = cur")
    g.w("cpu.pc = nxt")
    g.w("cpu.cycles = cyc")
    g.w(f"cpu.instret = ins + {k}")
    g.w("cpu.cr = cr")
    g.w("synced = True")
    g.w(f"{fn}(cpu, {obj})")
    if final:
        g.w(f"cpu.cycles += {i.cycles}")
        g.w(f"cpu.instret = ins + {k + 1}")
        g.w("return")
        g.returned = True
    else:
        g.w(f"cyc = cpu.cycles + {i.cycles}")
        g.w("cr = cpu.cr")
        g.w("synced = False")
    g.max_cycles += i.cycles + GENERIC_SLACK


def generate(nodes: List[Tuple[int, object]], ends_hard: bool):
    g = _Gen()
    start = nodes[0][0]
    n0 = (start + 4) & M
    total = len(nodes)
    for k, (a, instr) in enumerate(nodes):
        n = (a + 4) & M
        last = k == total - 1
        if last and ends_hard:
            emitter = _INLINE_FINAL.get(instr.execute)
            if emitter is not None and emitter(g, instr, a, n, k):
                g.pend += instr.cycles
                g.max_cycles += instr.cycles + INLINE_SLACK
            else:
                _emit_generic(g, instr, a, n, k, final=True)
        else:
            emitter = _INLINE.get(instr.execute)
            if emitter is not None and emitter(g, instr, a, n, k):
                g.pend += instr.cycles
                g.max_cycles += instr.cycles + INLINE_SLACK
            else:
                _emit_generic(g, instr, a, n, k, final=False)
    last_a = nodes[-1][0]
    if not g.returned:
        g.flush()
        g.w("cpu.cycles = cyc")
        g.w(f"cpu.instret = ins + {total}")
        g.w("cpu.cr = cr")
        g.w(f"cpu.current_pc = {last_a}")
        if not g.pc_done:
            g.w(f"cpu.pc = {(last_a + 4) & M}")
    src = "\n".join([
        "def _block(cpu):",
        "    gpr = cpu.gpr",
        "    mem = cpu.mem",
        "    pages = mem._pages",
        "    shared_ = mem._shared",
        "    aspace = cpu.aspace",
        "    debug = cpu.debug",
        "    cyc = cpu.cycles",
        "    ins = cpu.instret",
        "    cr = cpu.cr",
        "    hdf = cpu._high_data_fault",
        f"    cur = {start}",
        f"    nxt = {n0}",
        "    ri = 0",
        "    synced = False",
        "    try:",
    ] + g.lines + [
        "        pass",
        "    except BaseException:",
        "        if not synced:",
        "            cpu.cycles = cyc",
        "            cpu.instret = ins + ri",
        "            cpu.cr = cr",
        "            cpu.current_pc = cur",
        "            cpu.pc = nxt",
        "        raise",
    ])
    code = compile(src, f"<ppc-block@{start:#x}>", "exec")
    exec(code, g.ns)
    return g.ns["_block"], g.max_cycles
