//! Tier-2 execution: template-compiled superblocks.
//!
//! A `SuperBlock` is the unit of compiled code: a run of consecutive
//! instruction words starting at a physical fetch address, translated
//! into an array of compact `Op` records — each a pre-specialized
//! opcode with its operands (register names, immediates, pre-shifted
//! constants, branch wiring) resolved at compile time. Execution is a
//! single dense jump table over the opcode — the safe-Rust analogue of
//! threaded code's computed goto — with every op body inlined into one
//! loop frame: no fetch, no decode, no per-instruction operand
//! unpacking, no call/return per instruction, and the loop state
//! (op index, budget, register-file base) lives in machine registers
//! across ops.
//!
//! Superblocks are larger than basic blocks: compilation is a *trace* —
//! it continues through conditional branches (the not-taken path falls
//! through to the next op) and follows the static target of
//! unconditional `jal`s, so a call and its callee compile into one
//! superblock. Each op records its own entry-relative PC offset, which
//! is what lets the trace leave address order. Any branch or `jal`
//! whose target was compiled into the trace is wired directly to the
//! target op index, so a hot loop — calls included — executes entirely
//! inside one superblock without re-entering the dispatcher. A `jalr`
//! through a register that a `jal` earlier on the compile path wrote
//! (and nothing since) is a *predicted return*: the trace continues at
//! the call site, and the `jalr` is wired to it behind a runtime check
//! that the computed target is exactly that op's PC — so a loop that
//! calls a leaf routine also runs as one superblock.
//! Compilation stops at any other register-indirect jump,
//! at any privileged or trapping instruction (`gate`, `brk`, every
//! environment op), at an undecodable word, or at an already-compiled
//! address. A sentinel `End` op after the last compiled op leaves the
//! trace at the fall-through PC, and a non-trapping ALU op whose
//! destination is `r0` compiles to a `nop`, so straight-line op bodies
//! need neither an end-of-trace nor an `r0` check.
//!
//! Unlike basic blocks, a trace may **cross pages**: a `jal` whose
//! target lies in another page (up to `MAX_TRACE_PAGES` per trace)
//! extends the trace when that page translates executably *right
//! now*, and the trace records the secondary page as a
//! `(entry-relative virtual base, physical page, write generation)`
//! dependency. Every entry path — the dispatcher probe, the front
//! table, `JitCache::peek` and the link slot during chaining —
//! re-validates *all* recorded pages: generations must be unwritten and each secondary
//! virtual page must still translate to the recorded physical page
//! (via side-effect-free TLB peeks, so validation frequency never
//! perturbs snapshotted accounting). Straight-line flow still stops
//! at an unregistered page edge, which keeps the dependency set tied
//! to explicit call structure.
//!
//! Every superblock carries one **link slot** predicting the superblock
//! its exits continue in (virtual target, physical entry, arena index)
//! plus everything the prediction's translation depended on (PSW key,
//! TLB content generation). All exits share it: the trace-terminating
//! `jalr` (the inline return cache), a taken branch or `jal` whose
//! target lies outside the trace, and the fall-through past the last
//! op. On a verified hit the executor jumps in-frame — no translate, no
//! map probe; on a miss it translates and peeks the cache and
//! re-records the slot, so a monomorphic exit (a `ret` with one hot
//! caller, a loop's back edge into the trace it came from) stabilizes
//! after one miss.
//!
//! Every superblock also records the `(physical address, word)` of each
//! instruction it compiled. When a write moves a constituent page's
//! generation, the dispatcher re-reads those words: if none changed —
//! the write hit data sharing the page, such as the kernel data that
//! sits next to the trap vectors on page 0 — the trace adopts the new
//! generations and is kept (`ExecStats::jit_revalidations`); only a
//! changed word recompiles it (`ExecStats::jit_invalidations`).
//!
//! # Exactness
//!
//! The engine preserves the paper's Instruction-Stream Interrupt
//! Assumption by construction. Code that is not compiled runs through
//! [`Cpu::step`], the reference interpreter, so exactness only has to
//! be argued for superblocks:
//!
//! - **retirement clamp**: a superblock entry receives a budget of
//!   `min(caller budget, rctr)` and executes at most that many ops,
//!   each retiring exactly one instruction; internal loop iterations
//!   spend budget like any other op, so the recovery counter expires
//!   between instructions at the same retirement count the per-step
//!   path traps at;
//! - **constant check inputs**: every instruction that can change the
//!   pending-interrupt predicate, the PSW or the translation state is
//!   privileged and privileged instructions are never compiled into a
//!   superblock — so the dispatcher's entry checks and the single
//!   entry translation stay valid across internal loops;
//! - **exact faults**: a faulting op reports the same [`Exit`] as the
//!   per-step path with the PC on the faulting instruction and no
//!   retirement, by routing loads and stores through the same
//!   `access_load`/`access_store` helpers the other engines use;
//! - **self-modifying code**: a superblock records the write
//!   generation of *every* constituent page at compile time; every
//!   entry path refuses stale entries, and the dispatcher keeps a
//!   stale superblock only after re-reading every word it compiled and
//!   finding each unchanged (the compiled ops are then exactly what
//!   the per-step path would fetch and decode). A compiled store ends
//!   its trace when the physical address it wrote lies in one of the
//!   superblock's own pages — its entry page or a cross-page callee's
//!   — so a trace that patches itself abandons its compiled tail and
//!   re-fetches the patched words exactly like the per-step path.
//!   Checking the written page alone equals re-checking every page
//!   generation: the trace was fresh when entered, and only its own
//!   stores have run since (a chained successor is validated afresh
//!   when entered);
//! - **predicted returns**: a wired `jalr` continues in-frame only when
//!   its computed target equals the entry PC plus the recorded offset
//!   of the op it is wired to — the same PC the per-step path would
//!   fetch next, on a page the trace was validated for at entry;
//!   otherwise it leaves through the link slot like any other exit;
//! - **link slots**: a link is followed only if the target virtual PC,
//!   the PSW key and the TLB content generation all equal the recorded
//!   ones — translation is a pure function of these, so the recorded
//!   physical entry is what translating would yield — and the target
//!   passes the same `valid_at` predicate (entry address, non-empty,
//!   every page generation, every secondary translation) as every
//!   other entry path. A link hit skips the fetch translation, as a
//!   return-cache hit always did, so the TLB's hit counter depends on
//!   cache warmth; it is accounting only and never enters a state
//!   hash;
//! - **cross-page entry validation**: a secondary page's translation
//!   is re-checked against the recorded physical page on every entry,
//!   so a TLB remap, purge or privilege change makes the trace
//!   unreachable (the single-stepped cold path then takes the exact
//!   fault, if any, at the exact instruction the per-step path would).

use crate::cpu::{alu_imm_value, alu_value, Cpu, Exit};
use crate::exec::ExecStats;
use crate::hash::IntBuildHasher;
use crate::mem::{Memory, PAGE_SIZE};
use crate::tlb::{TlbAccess, TlbResult};
use crate::trap::Trap;
use hvft_isa::codec::decode;
use hvft_isa::instruction::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth};
use hvft_isa::reg::Reg;
use std::cell::Cell;
use std::collections::HashMap;

/// Executions of a cold address before it is compiled.
pub(crate) const PROMOTE_THRESHOLD: u32 = 16;

/// Cap on compiled superblocks; crossing it clears the cache wholesale
/// (the working set of real guests is far below this — the cap only
/// guards pathological fragmentation from eating memory).
const MAX_SUPERBLOCKS: usize = 4096;

/// Cap on tracked cold addresses before the heat table is reset.
const MAX_HEAT_ENTRIES: usize = 1 << 16;

/// Slots in the direct-mapped front table (power of two).
const FRONT_SLOTS: usize = 128;
/// Front tag marking an empty slot (no RAM block address collides).
const FRONT_EMPTY: u32 = u32::MAX;

/// Branch-wiring sentinel: the target is outside the compiled span.
const NO_TARGET: u32 = u32::MAX;

/// Pages a single trace may execute from (entry page included). Every
/// entry validates every recorded page, so the cap bounds both the
/// per-entry validation cost and the blast radius of an invalidation.
pub(crate) const MAX_TRACE_PAGES: usize = 4;

/// Link-slot sentinel: a slot is recorded and consulted only for
/// 4-aligned targets (`jalr` masks the low two bits; static exits are
/// alignment-checked first), so an empty slot can never hit.
const LINK_EMPTY: u32 = 1;

/// Pre-specialized opcode of one compiled [`Op`]. One variant per
/// instruction template: the ALU operation, memory width or branch
/// condition is the *variant*, not a field, so the dispatch loop's
/// jump table lands directly in a body with the operation constant
/// already folded in.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Divu,
    Remu,
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Slli,
    Srli,
    Srai,
    /// The `lui` shift happened at compile time; `imm` is the result.
    Lui,
    Nop,
    Lw,
    Lb,
    Lbu,
    Sw,
    Sb,
    Sbu,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jal,
    Jalr,
    Probe,
    /// Sentinel after the final op: leaves the trace at the
    /// fall-through PC without retiring anything, so the ops in front
    /// of it need no end-of-trace check.
    End,
}

/// One compiled instruction: a pre-specialized opcode plus
/// pre-resolved operands — 16 bytes, so op-record indexing is a
/// single shift and four ops share a cache line.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    /// Destination register (link register for `jal`/`jalr`).
    rd: Reg,
    /// First source: `rs1`, the load/`jalr` base, or the store value.
    rs1: Reg,
    /// Second source: `rs2`, branch comparand, or the store base.
    rs2: Reg,
    /// Immediate, pre-resolved per kind: sign-extended value,
    /// displacement, branch byte offset, or the pre-shifted `lui`
    /// constant.
    imm: i32,
    /// Branch/`jal` taken-target op index, or [`NO_TARGET`].
    target: u32,
    /// Byte offset of this op's virtual PC from the superblock's
    /// entry PC (wrapping). Ops are *not* address-contiguous — a
    /// trace follows `jal`s — so every PC-observing path derives the
    /// PC from this field, never from the op index.
    off: u32,
}

/// One secondary page of a cross-page trace: where the page sits
/// relative to the entry, and what it must still look like for the
/// compiled code to be entered.
#[derive(Clone, Copy, Debug)]
struct PageDep {
    /// Entry-relative (wrapping) byte offset of the page's virtual
    /// base address. Well-defined for any aliasing entry VPC because
    /// translation preserves the in-page offset.
    voff: u32,
    /// Physical page the virtual page translated to at compile time.
    ppage: u32,
    /// Write generation of that physical page at compile time.
    gen: u64,
}

/// Link slot of a superblock: the superblock its last exit chained
/// into — through the trace-terminating `jalr`, a taken branch or
/// `jal` leaving the span, or the fall-through past the final op —
/// plus everything that prediction's translation depended on.
#[derive(Clone, Copy, Debug)]
struct LinkSlot {
    /// Predicted virtual target, or [`LINK_EMPTY`].
    vpc: u32,
    /// Physical entry address the target translated to when recorded.
    paddr: u32,
    /// Arena index of the predicted superblock when recorded.
    idx: u32,
    /// TLB content generation the prediction was recorded under.
    tlb_gen: u64,
    /// Packed translation inputs when recorded (see [`psw_key`]).
    psw_key: u32,
}

impl LinkSlot {
    const EMPTY: LinkSlot = LinkSlot {
        vpc: LINK_EMPTY,
        paddr: 0,
        idx: 0,
        tlb_gen: 0,
        psw_key: 0,
    };
}

/// The PSW inputs a linked target's translation depends on:
/// the translation-enable bit and the privilege level. A prediction is
/// reused only while these and the TLB content generation are
/// unchanged, which is what makes skipping the re-translation sound —
/// translation is a pure function of (vaddr, these bits, TLB
/// contents).
#[inline]
fn psw_key(cpu: &Cpu) -> u32 {
    (u32::from(cpu.psw.cpl) << 1) | u32::from(cpu.psw.translation)
}

/// A compiled superblock.
#[derive(Debug)]
pub(crate) struct SuperBlock {
    ops: Box<[Op]>,
    /// Page-aligned physical address of the entry page.
    page_addr: u32,
    /// Write generation of the entry page at compile time.
    gen: u64,
    /// Physical address of the entry instruction — the cache key this
    /// superblock was compiled for (link-slot identity checks compare
    /// it, since arena indices are reused across clears).
    entry_paddr: u32,
    /// Secondary pages a cross-page trace executes from, in discovery
    /// order; empty for the common single-page trace.
    extra_pages: Box<[PageDep]>,
    /// `(physical address, word)` of every instruction compiled into
    /// `ops` (for a marker: of the uncompilable entry word). A stale
    /// superblock whose words all read back unchanged is revalidated
    /// instead of recompiled.
    words: Box<[(u32, u32)]>,
    /// Link slot shared by every exit of the trace. `Cell` because
    /// predictions are recorded while the executor holds a shared
    /// borrow of the cache (`run_chain` takes `&self`); the dispatcher
    /// is owned per-CPU and moved — never shared — across threads, so
    /// interior mutability without `Sync` is exactly the contract.
    link: Cell<LinkSlot>,
}

impl SuperBlock {
    /// Empty marker for an address that does not compile (until its
    /// entry word changes): the single-stepped cold path owns it.
    fn marker(paddr: u32, gen: u64, mem: &Memory) -> SuperBlock {
        SuperBlock {
            ops: Box::new([]),
            page_addr: paddr & !(PAGE_SIZE - 1),
            gen,
            entry_paddr: paddr,
            extra_pages: Box::new([]),
            words: mem
                .read_u32(paddr)
                .map(|w| (paddr, w))
                .into_iter()
                .collect(),
            link: Cell::new(LinkSlot::EMPTY),
        }
    }

    /// True when any constituent page has been written since compile
    /// time (SMC or DMA): the compiled trace may no longer match
    /// memory.
    #[inline]
    fn pages_stale(&self, mem: &Memory) -> bool {
        mem.page_gen(self.page_addr) != self.gen
            || self
                .extra_pages
                .iter()
                .any(|d| mem.page_gen(d.ppage) != d.gen)
    }

    /// True when `paddr` lies in one of the pages the trace was
    /// compiled from.
    #[inline]
    fn owns_page(&self, paddr: u32) -> bool {
        let page = paddr & !(PAGE_SIZE - 1);
        page == self.page_addr || self.extra_pages.iter().any(|d| d.ppage == page)
    }

    /// Re-reads every compiled word of a stale superblock. If all are
    /// unchanged — the writes that moved the page generations hit data
    /// sharing the pages, not this code — adopts the current
    /// generations so the trace is fresh again and returns true;
    /// otherwise leaves it stale and returns false.
    fn revalidate(&mut self, mem: &Memory) -> bool {
        if self.words.iter().any(|&(pa, w)| mem.read_u32(pa) != Ok(w)) {
            return false;
        }
        self.gen = mem.page_gen(self.page_addr);
        for d in self.extra_pages.iter_mut() {
            d.gen = mem.page_gen(d.ppage);
        }
        true
    }

    /// Full entry validation for an entry at virtual PC `vpc`: every
    /// constituent page unwritten since compile time *and* every
    /// secondary virtual page still translating — executably, at the
    /// current privilege — to the physical page the trace was compiled
    /// from. The common single-page trace pays one generation compare.
    #[inline]
    fn fresh(&self, vpc: u32, cpu: &Cpu, mem: &Memory) -> bool {
        !self.pages_stale(mem)
            && self.extra_pages.iter().all(|d| {
                cpu.peek_translate(vpc.wrapping_add(d.voff), TlbAccess::Execute) == Some(d.ppage)
            })
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Builds the op for `insn` at entry-relative byte offset `off`;
/// `index_of` maps compiled offsets to op indices for branch/`jal`
/// wiring. `insn` must be compilable (the first pass guarantees it).
/// `ret` is the entry-relative offset a `jalr` is predicted to return
/// to (see [`compile`]).
fn build_op(
    off: u32,
    index_of: &HashMap<u32, u32, IntBuildHasher>,
    insn: Instruction,
    ret: Option<u32>,
) -> Op {
    let op = |kind: Kind, rd: Reg, rs1: Reg, rs2: Reg, imm: i32, target: u32| Op {
        kind,
        rd,
        rs1,
        rs2,
        imm,
        target,
        off,
    };
    // Wires a PC-relative transfer to the op index of its target when
    // the target was compiled into this trace (misaligned targets are
    // never compiled, so they fall out naturally).
    let wire = |offset: i32| {
        index_of
            .get(&off.wrapping_add(offset as u32))
            .copied()
            .unwrap_or(NO_TARGET)
    };
    let z = Reg::ZERO;
    use Instruction as I;
    // Writing `r0` is a no-op, so an ALU op targeting it that cannot
    // trap does nothing at all (`divu`/`remu` can trap and stay).
    let discards = match insn {
        I::Alu { op, rd, .. } => rd == z && !matches!(op, AluOp::Divu | AluOp::Remu),
        I::AluImm { rd, .. } | I::Lui { rd, .. } => rd == z,
        _ => false,
    };
    if discards {
        return op(Kind::Nop, z, z, z, 0, NO_TARGET);
    }
    match insn {
        I::Alu {
            op: a,
            rd,
            rs1,
            rs2,
        } => {
            let kind = match a {
                AluOp::Add => Kind::Add,
                AluOp::Sub => Kind::Sub,
                AluOp::And => Kind::And,
                AluOp::Or => Kind::Or,
                AluOp::Xor => Kind::Xor,
                AluOp::Sll => Kind::Sll,
                AluOp::Srl => Kind::Srl,
                AluOp::Sra => Kind::Sra,
                AluOp::Slt => Kind::Slt,
                AluOp::Sltu => Kind::Sltu,
                AluOp::Mul => Kind::Mul,
                AluOp::Divu => Kind::Divu,
                AluOp::Remu => Kind::Remu,
            };
            op(kind, rd, rs1, rs2, 0, NO_TARGET)
        }
        I::AluImm {
            op: a,
            rd,
            rs1,
            imm,
        } => {
            let kind = match a {
                AluImmOp::Addi => Kind::Addi,
                AluImmOp::Andi => Kind::Andi,
                AluImmOp::Ori => Kind::Ori,
                AluImmOp::Xori => Kind::Xori,
                AluImmOp::Slti => Kind::Slti,
                AluImmOp::Slli => Kind::Slli,
                AluImmOp::Srli => Kind::Srli,
                AluImmOp::Srai => Kind::Srai,
            };
            op(kind, rd, rs1, z, imm, NO_TARGET)
        }
        I::Lui { rd, imm } => op(Kind::Lui, rd, z, z, (imm << 13) as i32, NO_TARGET),
        I::Nop => op(Kind::Nop, z, z, z, 0, NO_TARGET),
        I::Load {
            width,
            rd,
            base,
            disp,
        } => {
            let kind = match width {
                MemWidth::Word => Kind::Lw,
                MemWidth::Byte => Kind::Lb,
                MemWidth::ByteU => Kind::Lbu,
            };
            op(kind, rd, base, z, disp, NO_TARGET)
        }
        I::Store {
            width,
            rs,
            base,
            disp,
        } => {
            let kind = match width {
                MemWidth::Word => Kind::Sw,
                MemWidth::Byte => Kind::Sb,
                MemWidth::ByteU => Kind::Sbu,
            };
            op(kind, z, rs, base, disp, NO_TARGET)
        }
        I::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let kind = match cond {
                BranchCond::Eq => Kind::Beq,
                BranchCond::Ne => Kind::Bne,
                BranchCond::Lt => Kind::Blt,
                BranchCond::Ge => Kind::Bge,
                BranchCond::Ltu => Kind::Bltu,
                BranchCond::Geu => Kind::Bgeu,
            };
            op(kind, z, rs1, rs2, offset, wire(offset))
        }
        I::Jal { rd, offset } => op(Kind::Jal, rd, z, z, offset, wire(offset)),
        I::Jalr { rd, base, disp } => {
            let target = ret
                .and_then(|r| index_of.get(&r).copied())
                .unwrap_or(NO_TARGET);
            op(Kind::Jalr, rd, base, z, disp, target)
        }
        I::Probe { rd, rs } => op(Kind::Probe, rd, rs, z, 0, NO_TARGET),
        other => unreachable!("non-compilable instruction {other:?} reached build_op"),
    }
}

/// Compiles the superblock (trace) starting at physical address
/// `paddr` with the entry's virtual PC `entry_vpc` (they must agree in
/// their in-page offset — translation preserves it), or `None` when no
/// compilable instruction starts there. `cpu` supplies the *current*
/// translation state: a `jal` whose target lies in another page
/// extends the trace only when that page translates executably right
/// now, and the page is recorded as a dependency every entry
/// re-validates.
fn compile(paddr: u32, entry_vpc: u32, gen: u64, cpu: &Cpu, mem: &Memory) -> Option<SuperBlock> {
    debug_assert_eq!(paddr & (PAGE_SIZE - 1), entry_vpc & (PAGE_SIZE - 1));
    let page_mask = !(PAGE_SIZE - 1);
    let page_addr = paddr & page_mask;
    // Constituent pages as (entry-relative byte offset of the page's
    // virtual base, physical page address); the entry page is
    // `pages[0]`. Like op offsets, the page offsets are *wrapping*
    // deltas from `entry_vpc`.
    let mut pages: Vec<(u32, u32)> = vec![(0u32.wrapping_sub(paddr & (PAGE_SIZE - 1)), page_addr)];
    // The trace in compile order: `(instruction, entry-relative byte
    // offset, predicted return offset of a jalr)`. Offsets are
    // *wrapping* deltas — a `jal` redirect may target an address
    // before the entry.
    let mut insns: Vec<(Instruction, u32, Option<u32>)> = Vec::new();
    // Per register, the entry-relative return offset it holds when a
    // `jal` earlier on the compile path wrote it and nothing since.
    let mut ret_in: [Option<u32>; 32] = [None; 32];
    let mut words: Vec<(u32, u32)> = Vec::new();
    let mut index_of: HashMap<u32, u32, IntBuildHasher> = HashMap::default();
    let mut off: u32 = 0;
    loop {
        // Never compile the same address twice (this also bounds the
        // trace at MAX_TRACE_PAGES pages of ops).
        if index_of.contains_key(&off) {
            break;
        }
        let vaddr = entry_vpc.wrapping_add(off);
        let page_voff = (vaddr & page_mask).wrapping_sub(entry_vpc);
        // Straight-line flow only walks pages the trace has already
        // registered: falling off the edge of the last registered page
        // ends the trace, so the dependency set grows only at explicit
        // cross-page calls.
        let Some(ppage) = pages
            .iter()
            .find_map(|&(v, p)| (v == page_voff).then_some(p))
        else {
            break;
        };
        let pa = ppage | (vaddr & (PAGE_SIZE - 1));
        let Ok(word) = mem.read_u32(pa) else {
            break;
        };
        let Ok(insn) = decode(word) else {
            break;
        };
        use Instruction as I;
        // Privileged, trapping and environment instructions are never
        // compiled; execution reaching them leaves the superblock and
        // the interpreter takes over.
        if !matches!(
            insn,
            I::Alu { .. }
                | I::AluImm { .. }
                | I::Lui { .. }
                | I::Nop
                | I::Load { .. }
                | I::Store { .. }
                | I::Probe { .. }
                | I::Branch { .. }
                | I::Jal { .. }
                | I::Jalr { .. }
        ) {
            break;
        }
        index_of.insert(off, insns.len() as u32);
        words.push((pa, word));
        // A `jalr` through a register holding a return offset this
        // trace's `jal` wrote (with a 4-aligned displacement, so the
        // privilege bits riding in the link cannot carry) returns to a
        // static offset: the trace continues there, and the `jalr` is
        // wired to it behind a runtime target check.
        let ret = match insn {
            I::Jalr { base, disp, .. } if disp % 4 == 0 => {
                ret_in[base.index() as usize].map(|r| r.wrapping_add(disp as u32))
            }
            _ => None,
        };
        insns.push((insn, off, ret));
        let written = match insn {
            I::Alu { rd, .. }
            | I::AluImm { rd, .. }
            | I::Lui { rd, .. }
            | I::Load { rd, .. }
            | I::Probe { rd, .. }
            | I::Jal { rd, .. }
            | I::Jalr { rd, .. } => Some(rd),
            _ => None,
        };
        if let Some(rd) = written {
            ret_in[rd.index() as usize] = match insn {
                I::Jal { .. } if rd != Reg::ZERO => Some(off.wrapping_add(4)),
                _ => None,
            };
        }
        match insn {
            // Trace compilation follows the static target of an
            // unconditional `jal` — a call's callee or a jump's
            // continuation lands in the same superblock — when it is
            // 4-aligned and not already compiled (the wiring pass then
            // turns the `jal` into an in-span jump). A target in an
            // unregistered page extends the dependency set if the page
            // translates executably under the current state and the
            // page budget allows; otherwise the `jal` is the final op.
            I::Jal { offset, .. } => {
                let toff = off.wrapping_add(offset as u32);
                if offset % 4 != 0 || index_of.contains_key(&toff) {
                    break;
                }
                let tvoff = (entry_vpc.wrapping_add(toff) & page_mask).wrapping_sub(entry_vpc);
                if !pages.iter().any(|&(v, _)| v == tvoff) {
                    if pages.len() >= MAX_TRACE_PAGES {
                        break;
                    }
                    let vbase = entry_vpc.wrapping_add(tvoff);
                    let Some(pbase) = cpu.peek_translate(vbase, TlbAccess::Execute) else {
                        break;
                    };
                    pages.push((tvoff, pbase & page_mask));
                }
                off = toff;
            }
            // A predicted return continues the trace at the call
            // site when that lies on a registered page and is not yet
            // compiled (else the wiring pass reaches it, or the `jalr`
            // stays unwired). Any other register-indirect jump has no
            // static target: final op.
            I::Jalr { .. } => {
                let Some(toff) = ret else {
                    break;
                };
                let tvoff = (entry_vpc.wrapping_add(toff) & page_mask).wrapping_sub(entry_vpc);
                if index_of.contains_key(&toff) || !pages.iter().any(|&(v, _)| v == tvoff) {
                    break;
                }
                off = toff;
            }
            // Straight-line ops and conditional branches extend the
            // trace (the not-taken path falls through).
            _ => off = off.wrapping_add(4),
        }
    }
    let &(_, last_off, _) = insns.last()?;
    let mut ops: Vec<Op> = insns
        .iter()
        .map(|&(insn, o, ret)| build_op(o, &index_of, insn, ret))
        .collect();
    let z = Reg::ZERO;
    ops.push(Op {
        kind: Kind::End,
        rd: z,
        rs1: z,
        rs2: z,
        imm: 0,
        target: NO_TARGET,
        off: last_off.wrapping_add(4),
    });
    // A page registered at a `jal` follow whose first word then failed
    // to compile contributed no ops: drop it rather than record a
    // phantom dependency.
    let extra_pages: Vec<PageDep> = pages[1..]
        .iter()
        .filter(|&&(voff, _)| {
            insns.iter().any(|&(_, o, _)| {
                (entry_vpc.wrapping_add(o) & page_mask).wrapping_sub(entry_vpc) == voff
            })
        })
        .map(|&(voff, ppage)| PageDep {
            voff,
            ppage,
            gen: mem.page_gen(ppage),
        })
        .collect();
    Some(SuperBlock {
        ops: ops.into_boxed_slice(),
        page_addr,
        gen,
        entry_paddr: paddr,
        extra_pages: extra_pages.into_boxed_slice(),
        words: words.into_boxed_slice(),
        link: Cell::new(LinkSlot::EMPTY),
    })
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

impl SuperBlock {
    /// Number of compiled instructions (for tests): the ops without
    /// the [`Kind::End`] sentinel.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ops.len().saturating_sub(1)
    }
}

impl JitCache {
    /// Executes the superblock at arena index `start` with the CPU's
    /// PC at the corresponding virtual address, retiring at most
    /// `budget` instructions (`budget` must be positive and already
    /// clamped by the recovery counter), *chaining* straight into the
    /// next compiled superblock whenever a transfer leaves one: the
    /// op index, budget and retirement count stay in this one frame
    /// across superblock boundaries, and the architectural sync
    /// happens once on the way out. Chaining is sound because nothing
    /// a superblock executes can change the dispatcher's entry
    /// predicates (every PSW/ctl/TLB writer is privileged, hence
    /// never compiled), and the recovery counter is spent through
    /// `budget`; anything irregular — an unaligned or untranslatable
    /// target, cold or stale code — returns to the full dispatcher.
    ///
    /// Returns the number retired and the exit the embedder must
    /// handle, if any; on return the PC, retired count and recovery
    /// counter are synced.
    ///
    /// Each op body routes through the same shared semantics helpers
    /// (`alu_value`, `alu_imm_value`, `access_load`, `access_store`)
    /// as the step engine, with the operation passed as a constant
    /// that folds away after inlining — so the two engines cannot
    /// drift.
    pub(crate) fn run_chain(
        &self,
        start: u32,
        cpu: &mut Cpu,
        mem: &mut Memory,
        budget: u64,
        stats: &mut ExecStats,
    ) -> (u64, Option<Exit>) {
        debug_assert!(budget > 0);
        let mut sb = self.get(start);
        let mut ops = &sb.ops[..];
        let mut entry_vpc = cpu.pc;
        let mut i: usize = 0;
        // Budget still to spend; one decrement per retired op.
        let mut left = budget;
        let exit = 'run: loop {
            if left == 0 {
                // Budget (caller's or the recovery counter's) spent:
                // stop *between* instructions, PC on the next op.
                cpu.pc = entry_vpc.wrapping_add(ops[i].off);
                break None;
            }
            let op = &ops[i];
            // Virtual PC of this op, derived from its recorded entry
            // offset (ops are a trace, not address-contiguous) — only
            // transfers and exits consume it, so straight-line ops
            // never materialize it (`vpc!` is a macro, not a binding,
            // precisely for that).
            macro_rules! vpc {
                () => {
                    entry_vpc.wrapping_add(op.off)
                };
            }

            // Control-flow helpers shared by the op bodies below.
            // `enter!` switches the frame to superblock `idx` at the
            // PC. `chain!` is the out-of-superblock path: with the PC
            // already set, hop into the next compiled superblock if
            // one exists (fresh and aligned), else return to the
            // dispatcher. `next!` retires the op and falls through
            // (onto the `End` sentinel past the last op); `fault!`
            // leaves with the
            // PC on the op, which did *not* retire; `taken!` retires
            // a transfer, continuing at a wired in-span op index or
            // chaining at the target.
            macro_rules! enter {
                ($idx:expr) => {{
                    sb = self.get($idx);
                    ops = &sb.ops[..];
                    i = 0;
                    entry_vpc = cpu.pc;
                    continue 'run;
                }};
            }
            macro_rules! chain {
                () => {{
                    if left == 0 || !cpu.pc.is_multiple_of(4) {
                        break 'run None;
                    }
                    match self.follow(sb, cpu, mem) {
                        Follow::Linked(next) | Follow::Chained(next) => enter!(next),
                        Follow::Dispatch => break 'run None,
                    }
                }};
            }
            macro_rules! next {
                () => {{
                    left -= 1;
                    i += 1;
                    continue 'run;
                }};
            }
            macro_rules! fault {
                ($e:expr) => {{
                    cpu.pc = vpc!();
                    break 'run Some($e);
                }};
            }
            macro_rules! taken {
                ($byte_offset:expr) => {{
                    left -= 1;
                    if op.target != NO_TARGET {
                        i = op.target as usize;
                        continue 'run;
                    }
                    cpu.pc = vpc!().wrapping_add($byte_offset as u32);
                    chain!()
                }};
            }
            // ALU results go through `set_reg_nonzero`: `build_op`
            // compiles every non-trapping ALU op that targets `r0` to
            // a `Nop`. The trapping `divu`/`remu` keep their `r0`
            // write check.
            macro_rules! alu {
                ($v:ident) => {
                    alu!($v, set_reg_nonzero)
                };
                ($v:ident, $set:ident) => {{
                    let a = cpu.reg(op.rs1);
                    let b = cpu.reg(op.rs2);
                    match alu_value(AluOp::$v, a, b) {
                        Some(v) => {
                            cpu.$set(op.rd, v);
                            next!()
                        }
                        None => fault!(Exit::Trap(Trap::ArithmeticError)),
                    }
                }};
            }
            macro_rules! alu_imm {
                ($v:ident) => {{
                    let v = alu_imm_value(AluImmOp::$v, cpu.reg(op.rs1), op.imm);
                    cpu.set_reg_nonzero(op.rd, v);
                    next!()
                }};
            }
            macro_rules! load {
                ($w:ident) => {{
                    match cpu.access_load(MemWidth::$w, op.rd, op.rs1, op.imm, mem) {
                        Ok(v) => {
                            cpu.set_reg(op.rd, v);
                            next!()
                        }
                        Err(e) => fault!(e),
                    }
                }};
            }
            macro_rules! store {
                ($w:ident) => {{
                    match cpu.access_store(MemWidth::$w, op.rs1, op.rs2, op.imm, mem) {
                        Ok(pa) => {
                            // The store may have patched one of this
                            // superblock's own pages — the entry page
                            // or a cross-page callee's — ahead of the
                            // program counter: abandon the compiled
                            // tail and re-enter the dispatcher, which
                            // revalidates or recompiles. Checking the
                            // written page alone is exact: the trace
                            // was fresh when entered and only its own
                            // stores have run since.
                            if sb.owns_page(pa) {
                                left -= 1;
                                cpu.pc = vpc!().wrapping_add(4);
                                break 'run None;
                            }
                            next!()
                        }
                        Err(e) => fault!(e),
                    }
                }};
            }
            macro_rules! branch {
                (|$a:ident, $b:ident| $cond:expr) => {{
                    let $a = cpu.reg(op.rs1);
                    let $b = cpu.reg(op.rs2);
                    if $cond {
                        taken!(op.imm)
                    }
                    next!()
                }};
            }

            match op.kind {
                Kind::Add => alu!(Add),
                Kind::Sub => alu!(Sub),
                Kind::And => alu!(And),
                Kind::Or => alu!(Or),
                Kind::Xor => alu!(Xor),
                Kind::Sll => alu!(Sll),
                Kind::Srl => alu!(Srl),
                Kind::Sra => alu!(Sra),
                Kind::Slt => alu!(Slt),
                Kind::Sltu => alu!(Sltu),
                Kind::Mul => alu!(Mul),
                Kind::Divu => alu!(Divu, set_reg),
                Kind::Remu => alu!(Remu, set_reg),
                Kind::Addi => alu_imm!(Addi),
                Kind::Andi => alu_imm!(Andi),
                Kind::Ori => alu_imm!(Ori),
                Kind::Xori => alu_imm!(Xori),
                Kind::Slti => alu_imm!(Slti),
                Kind::Slli => alu_imm!(Slli),
                Kind::Srli => alu_imm!(Srli),
                Kind::Srai => alu_imm!(Srai),
                Kind::Lui => {
                    // The shift happened at compile time.
                    cpu.set_reg_nonzero(op.rd, op.imm as u32);
                    next!()
                }
                Kind::Nop => next!(),
                Kind::Lw => load!(Word),
                Kind::Lb => load!(Byte),
                Kind::Lbu => load!(ByteU),
                Kind::Sw => store!(Word),
                Kind::Sb => store!(Byte),
                Kind::Sbu => store!(ByteU),
                Kind::Beq => branch!(|a, b| a == b),
                Kind::Bne => branch!(|a, b| a != b),
                Kind::Blt => branch!(|a, b| (a as i32) < (b as i32)),
                Kind::Bge => branch!(|a, b| (a as i32) >= (b as i32)),
                Kind::Bltu => branch!(|a, b| a < b),
                Kind::Bgeu => branch!(|a, b| a >= b),
                Kind::Jal => {
                    // PA-RISC quirk: the privilege level rides in the
                    // low bits of the link value (paper §3.1). The
                    // level is read at run time — the same physical
                    // code can execute at any privilege.
                    let link = vpc!().wrapping_add(4) | u32::from(cpu.psw.cpl);
                    cpu.set_reg(op.rd, link);
                    taken!(op.imm)
                }
                Kind::Jalr => {
                    // Target before link: `rd` may alias the base.
                    let target = cpu.reg(op.rs1).wrapping_add(op.imm as u32) & !3;
                    let link = vpc!().wrapping_add(4) | u32::from(cpu.psw.cpl);
                    cpu.set_reg(op.rd, link);
                    left -= 1;
                    // A return to the call site this trace compiled
                    // continues in-frame once the computed target is
                    // exactly that op's PC.
                    if op.target != NO_TARGET
                        && target == entry_vpc.wrapping_add(ops[op.target as usize].off)
                    {
                        stats.ret_cache_hits += 1;
                        i = op.target as usize;
                        continue 'run;
                    }
                    cpu.pc = target;
                    if left == 0 {
                        break 'run None;
                    }
                    // Inline return cache: the trace-terminating
                    // `jalr` is almost always a `ret` with one hot
                    // call site, so the link slot predicts it like
                    // any static exit (`jalr` masks the low target
                    // bits, so no alignment check is needed). Hits
                    // and misses are counted for the `jalr` alone.
                    match self.follow(sb, cpu, mem) {
                        Follow::Linked(next) => {
                            stats.ret_cache_hits += 1;
                            enter!(next)
                        }
                        Follow::Chained(next) => {
                            stats.ret_cache_misses += 1;
                            enter!(next)
                        }
                        Follow::Dispatch => {
                            stats.ret_cache_misses += 1;
                            break 'run None;
                        }
                    }
                }
                Kind::Probe => {
                    // Probe never changes translation state, so it is
                    // safe inside a superblock; its semantics mirror
                    // `Cpu::execute` exactly.
                    let vaddr = cpu.reg(op.rs1);
                    if !cpu.psw.translation {
                        cpu.set_reg(op.rd, 1);
                        next!()
                    }
                    match cpu.tlb.lookup(vaddr, TlbAccess::Read, cpu.psw.is_user()) {
                        TlbResult::Hit(_) => {
                            cpu.set_reg(op.rd, 1);
                            next!()
                        }
                        TlbResult::Denied => {
                            cpu.set_reg(op.rd, 0);
                            next!()
                        }
                        TlbResult::Miss => fault!(Exit::Trap(Trap::TlbMiss {
                            vaddr,
                            write: false,
                        })),
                    }
                }
                Kind::End => {
                    cpu.pc = vpc!();
                    chain!()
                }
            }
        };
        let executed = budget - left;
        cpu.sync_retire(executed);
        (executed, exit)
    }
}

// ---------------------------------------------------------------------
// Cache and promotion
// ---------------------------------------------------------------------

/// Where a transfer out of a superblock continues.
enum Follow {
    /// The link slot's prediction verified: no translation, no probe.
    Linked(u32),
    /// Translated and found by [`JitCache::peek`]; the slot now
    /// predicts it.
    Chained(u32),
    /// Cold, stale, uncompilable or untranslatable: back to the
    /// dispatcher.
    Dispatch,
}

/// Result of a dispatcher probe.
pub(crate) enum Lookup {
    /// A fresh compiled superblock exists at this arena index
    /// (resolve it with [`JitCache::get`]); execute it.
    Compiled(u32),
    /// No compiled code here (cold, not yet hot, or uncompilable):
    /// the caller single-steps one straight-line run.
    Cold,
}

/// The superblock cache: physical fetch address → compiled superblock,
/// with an execution-count heat table driving promotion and a
/// direct-mapped front table short-circuiting the map on hot hits.
#[derive(Debug, Default)]
pub(crate) struct JitCache {
    arena: Vec<SuperBlock>,
    map: HashMap<u32, u32, IntBuildHasher>,
    /// Cold-address execution counts; an address is compiled when its
    /// count reaches [`PROMOTE_THRESHOLD`].
    heat: HashMap<u32, u32, IntBuildHasher>,
    /// `(paddr, arena index)` keyed by `(paddr >> 2) & (FRONT_SLOTS-1)`.
    front: Option<Box<[(u32, u32); FRONT_SLOTS]>>,
}

impl JitCache {
    fn front_mut(&mut self) -> &mut [(u32, u32); FRONT_SLOTS] {
        self.front
            .get_or_insert_with(|| Box::new([(FRONT_EMPTY, 0); FRONT_SLOTS]))
    }

    /// Drops every compiled superblock and all heat state.
    fn clear(&mut self) {
        self.arena.clear();
        self.map.clear();
        self.heat.clear();
        if let Some(front) = &mut self.front {
            front.fill((FRONT_EMPTY, 0));
        }
    }

    /// Resolves an arena index returned by [`JitCache::probe`] or
    /// [`JitCache::peek`].
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &SuperBlock {
        &self.arena[idx as usize]
    }

    /// The one entry predicate: true when arena index `idx` holds a
    /// compiled, fresh superblock whose entry is exactly `paddr`,
    /// entered at virtual PC `vpc`. Shared by the front table, the map
    /// path, [`Self::peek`] and the inline return cache, so no entry
    /// path can skip a page-generation or translation check.
    #[inline]
    fn valid_at(&self, idx: u32, paddr: u32, vpc: u32, cpu: &Cpu, mem: &Memory) -> bool {
        match self.arena.get(idx as usize) {
            Some(sb) => sb.entry_paddr == paddr && !sb.ops.is_empty() && sb.fresh(vpc, cpu, mem),
            None => false,
        }
    }

    /// Read-only lookup for superblock chaining: the compiled, fresh
    /// superblock at `paddr`, or `None` (cold, stale or uncompilable —
    /// the caller returns to the full dispatcher, whose [`Self::probe`]
    /// owns promotion and invalidation). The CPU's PC must already be
    /// on the entry's virtual address (`chain!` sets it before
    /// translating); cross-page traces validate their secondary
    /// translations against it. Taking `&self` is the point: the
    /// executing superblock holds a shared borrow of the cache, so
    /// chaining must not mutate it.
    #[inline]
    pub(crate) fn peek(&self, paddr: u32, cpu: &Cpu, mem: &Memory) -> Option<u32> {
        let vpc = cpu.pc;
        let fidx = ((paddr >> 2) as usize) & (FRONT_SLOTS - 1);
        if let Some(front) = &self.front {
            let (tag, idx) = front[fidx];
            if tag == paddr && self.valid_at(idx, paddr, vpc, cpu, mem) {
                return Some(idx);
            }
        }
        let idx = *self.map.get(&paddr)?;
        self.valid_at(idx, paddr, vpc, cpu, mem).then_some(idx)
    }

    /// Resolves where a transfer out of superblock `from` continues,
    /// with the CPU's PC already on the (4-aligned) target. The link
    /// slot is trusted only while nothing its prediction depends on
    /// has moved: same virtual target, same translation inputs (PSW
    /// key + TLB content generation keep the recorded physical entry
    /// current, so the fetch translation is skipped), and a fresh
    /// superblock still compiled for that exact entry — the same
    /// `valid_at` predicate every other entry path uses.
    #[inline]
    fn follow(&self, from: &SuperBlock, cpu: &mut Cpu, mem: &Memory) -> Follow {
        let slot = from.link.get();
        if slot.vpc == cpu.pc
            && slot.psw_key == psw_key(cpu)
            && slot.tlb_gen == cpu.tlb.content_gen()
            && self.valid_at(slot.idx, slot.paddr, cpu.pc, cpu, mem)
        {
            return Follow::Linked(slot.idx);
        }
        self.relink(from, cpu, mem)
    }

    /// [`Self::follow`] past a link-slot miss: translates the target
    /// and peeks the cache; a hit re-records the slot, so a monomorphic
    /// exit stabilizes after one miss.
    #[inline(never)]
    fn relink(&self, from: &SuperBlock, cpu: &mut Cpu, mem: &Memory) -> Follow {
        let target = cpu.pc;
        let Ok(paddr) = cpu.translate(target, TlbAccess::Execute) else {
            return Follow::Dispatch;
        };
        match self.peek(paddr, cpu, mem) {
            Some(idx) => {
                from.link.set(LinkSlot {
                    vpc: target,
                    paddr,
                    idx,
                    tlb_gen: cpu.tlb.content_gen(),
                    psw_key: psw_key(cpu),
                });
                Follow::Chained(idx)
            }
            None => Follow::Dispatch,
        }
    }

    /// Looks up the superblock starting at physical address `paddr`
    /// (the translation of the CPU's current PC), compiling it if the
    /// address just crossed the promotion threshold, recompiling if
    /// any constituent page changed.
    #[inline]
    pub(crate) fn probe(
        &mut self,
        paddr: u32,
        cpu: &Cpu,
        mem: &Memory,
        stats: &mut ExecStats,
    ) -> Lookup {
        let fidx = ((paddr >> 2) as usize) & (FRONT_SLOTS - 1);
        if let Some(front) = &self.front {
            let (tag, idx) = front[fidx];
            if tag == paddr && self.valid_at(idx, paddr, cpu.pc, cpu, mem) {
                return Lookup::Compiled(idx);
            }
        }
        self.probe_slow(paddr, fidx, cpu, mem, stats)
    }

    fn probe_slow(
        &mut self,
        paddr: u32,
        fidx: usize,
        cpu: &Cpu,
        mem: &Memory,
        stats: &mut ExecStats,
    ) -> Lookup {
        let gen = mem.page_gen(paddr);
        if let Some(&idx) = self.map.get(&paddr) {
            if self.arena[idx as usize].pages_stale(mem) {
                self.front_mut()[fidx] = (FRONT_EMPTY, 0);
                let sb = &mut self.arena[idx as usize];
                if sb.revalidate(mem) {
                    // Data shared a page with the code (kernel data
                    // next to the trap vectors, a stack or buffer
                    // beside a loop): the compiled words are intact,
                    // so the trace is kept.
                    stats.jit_revalidations += 1;
                } else {
                    // Self-modifying code or DMA over a compiled
                    // word: this address is known-hot, recompile in
                    // place. An empty-ops marker records an address
                    // that no longer compiles (until its entry word
                    // changes again).
                    stats.jit_invalidations += 1;
                    if mem.page_gen(sb.page_addr) == sb.gen {
                        // The entry page is intact: only a *secondary*
                        // page of a cross-page trace was written.
                        stats.jit_invalidations_secondary += 1;
                    }
                    *sb = match compile(paddr, cpu.pc, gen, cpu, mem) {
                        Some(sb) => {
                            stats.superblocks_compiled += 1;
                            if !sb.extra_pages.is_empty() {
                                stats.cross_page_superblocks += 1;
                            }
                            sb
                        }
                        None => SuperBlock::marker(paddr, gen, mem),
                    };
                }
            }
            let sb = &self.arena[idx as usize];
            if sb.ops.is_empty() {
                return Lookup::Cold;
            }
            if !sb.fresh(cpu.pc, cpu, mem) {
                // Every page is unwritten, but a secondary virtual
                // page no longer translates to the page the trace was
                // compiled from (a remap, a purge, or a privilege
                // change). The code itself is intact, so keep the
                // trace — the mapping usually comes back — and let
                // the single-stepped cold path own this entry
                // meanwhile; it takes the exact fault, if any, where
                // the per-step path would.
                return Lookup::Cold;
            }
            self.front_mut()[fidx] = (paddr, idx);
            return Lookup::Compiled(idx);
        }
        // Cold address: count the execution, promote when hot.
        if self.heat.len() >= MAX_HEAT_ENTRIES {
            self.heat.clear();
        }
        let heat = self.heat.entry(paddr).or_insert(0);
        *heat += 1;
        if *heat < PROMOTE_THRESHOLD {
            return Lookup::Cold;
        }
        self.heat.remove(&paddr);
        let sb = match compile(paddr, cpu.pc, gen, cpu, mem) {
            Some(sb) => {
                stats.superblocks_compiled += 1;
                if !sb.extra_pages.is_empty() {
                    stats.cross_page_superblocks += 1;
                }
                sb
            }
            // Uncompilable start (privileged or undecodable first
            // word): cache an empty marker so the single-stepped cold
            // path owns this address without re-attempting
            // compilation.
            None => SuperBlock::marker(paddr, gen, mem),
        };
        if self.arena.len() >= MAX_SUPERBLOCKS {
            self.clear();
        }
        let idx = self.arena.len() as u32;
        let empty = sb.ops.is_empty();
        self.arena.push(sb);
        self.map.insert(paddr, idx);
        if empty {
            return Lookup::Cold;
        }
        self.front_mut()[fidx] = (paddr, idx);
        Lookup::Compiled(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::TlbReplacement;
    use hvft_isa::asm::assemble;

    fn mem_with(src: &str) -> Memory {
        let prog = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
        let mut mem = Memory::new(4 * PAGE_SIZE as usize);
        for seg in &prog.segments {
            mem.write_bytes(seg.base, &seg.data);
        }
        mem
    }

    /// A bare CPU (translation off, kernel privilege) positioned at
    /// `pc`; compile/probe use it for translation peeks, which are
    /// identity here.
    fn cpu_at(pc: u32) -> Cpu {
        let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
        cpu.pc = pc;
        cpu
    }

    fn compile_at(paddr: u32, mem: &Memory) -> Option<SuperBlock> {
        compile(paddr, paddr, mem.page_gen(paddr), &cpu_at(paddr), mem)
    }

    #[test]
    fn superblock_chains_across_not_taken_branches() {
        let mem = mem_with(
            "s: addi r4, r0, 1
                bne  r4, r0, 8
                addi r5, r0, 2
                addi r6, r0, 3
                jal  ra, s",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(
            sb.len(),
            5,
            "compilation must continue through the conditional branch \
             and include the final jal"
        );
    }

    #[test]
    fn superblock_stops_at_privileged_instructions() {
        let mem = mem_with("s: addi r4, r0, 1\n addi r5, r0, 2\n rfi\n nop");
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 2, "rfi must not be compiled");
    }

    #[test]
    fn superblock_stops_at_gate_and_brk() {
        let mem = mem_with("s: addi r4, r0, 1\n gate 3\n nop");
        assert_eq!(compile_at(0, &mem).expect("sb").len(), 1);
        let mem = mem_with("s: nop\n brk 0\n nop");
        assert_eq!(compile_at(0, &mem).expect("sb").len(), 1);
    }

    #[test]
    fn uncompilable_start_yields_none() {
        let mem = mem_with("s: halt");
        assert!(compile_at(0, &mem).is_none());
        let zeros = Memory::new(PAGE_SIZE as usize); // .word 0 is illegal
        assert!(compile_at(0, &zeros).is_none());
    }

    #[test]
    fn backward_branches_are_wired_in_span() {
        let mem = mem_with(
            "s: addi r5, r0, 10
            loop:
                addi r6, r6, 1
                addi r5, r5, -1
                bne  r5, r0, loop
                jal  ra, s",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 5);
        // The bne at index 3 targets index 1.
        assert_eq!(sb.ops[3].target, 1);
        // The jal at index 4 targets index 0.
        assert_eq!(sb.ops[4].target, 0);
    }

    #[test]
    fn a_return_to_the_compiled_call_site_continues_the_trace() {
        let mem = mem_with(
            "s: addi r4, r0, 1
                jal  ra, f
                addi r5, r0, 2
                jal  r0, s
            f:  addi r6, r0, 3
                jalr r0, ra, 0",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        // addi, jal, f's addi, jalr, then the call site's addi and the
        // closing jal back to the entry.
        assert_eq!(sb.len(), 6);
        assert!(matches!(sb.ops[3].kind, Kind::Jalr));
        assert_eq!(sb.ops[3].target, 4, "the ret is wired to the call site");
        assert_eq!(sb.ops[4].off, 8);
        assert_eq!(sb.ops[5].target, 0);
    }

    #[test]
    fn a_return_through_a_rewritten_link_register_is_not_predicted() {
        let mem = mem_with(
            "s: jal  ra, f
                halt
            f:  addi ra, r0, 0
                jalr r0, ra, 0",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 3);
        assert_eq!(sb.ops[2].target, NO_TARGET);
    }

    #[test]
    fn forward_branches_out_of_span_are_unwired() {
        let mem = mem_with("s: beq r0, r0, 4096\n jal ra, 0");
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.ops[0].target, NO_TARGET);
    }

    #[test]
    fn straight_line_flow_stops_at_the_page_edge() {
        // Only explicit `jal`s extend the page set: a straight-line
        // walk off the entry page still ends the trace.
        let mut mem = Memory::new(2 * PAGE_SIZE as usize);
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        for i in 0..(2 * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, nop).unwrap();
        }
        let sb = compile_at(16, &mem).expect("superblock");
        assert_eq!(sb.len() as u32, (PAGE_SIZE - 16) / 4);
        assert!(sb.extra_pages.is_empty());
    }

    #[test]
    fn cross_page_jal_fuses_and_records_the_page_dependency() {
        let mem = mem_with(
            "s: addi r4, r0, 1
                jal  ra, callee
            .org 4096
            callee:
                addi r5, r0, 2
                jalr r0, ra, 0",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 4, "call + callee must fuse across the page");
        assert_eq!(sb.extra_pages.len(), 1);
        assert_eq!(sb.extra_pages[0].ppage, PAGE_SIZE);
        assert_eq!(sb.extra_pages[0].voff, PAGE_SIZE);
        assert_eq!(sb.extra_pages[0].gen, mem.page_gen(PAGE_SIZE));
    }

    #[test]
    fn trace_page_set_is_capped() {
        // A call chain touching more pages than MAX_TRACE_PAGES stops
        // extending at the cap.
        let mut src = String::from("s: jal ra, f1\n");
        for p in 1..6 {
            src.push_str(&format!(
                ".org {}\nf{p}: addi r4, r4, {p}\n jal ra, f{}\n",
                p * 4096,
                p + 1
            ));
        }
        src.push_str(".org 24576\nf6: jalr r0, ra, 0\n");
        let mem = {
            let prog = assemble(&src).unwrap_or_else(|e| panic!("asm: {e}"));
            let mut mem = Memory::new(8 * PAGE_SIZE as usize);
            for seg in &prog.segments {
                mem.write_bytes(seg.base, &seg.data);
            }
            mem
        };
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.extra_pages.len(), MAX_TRACE_PAGES - 1);
        // Pages 0..MAX_TRACE_PAGES contribute ops: the jal on the
        // last allowed page ends the trace.
        assert_eq!(sb.len(), 1 + (MAX_TRACE_PAGES - 1) * 2);
    }

    #[test]
    fn secondary_page_write_invalidates_a_cross_page_trace() {
        let mut mem = mem_with(
            "s: addi r4, r0, 1
                jal  ra, callee
            .org 4096
            callee:
                addi r5, r0, 2
                jalr r0, ra, 0",
        );
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let cpu = cpu_at(0);
        for _ in 0..PROMOTE_THRESHOLD {
            let _ = cache.probe(0, &cpu, &mem, &mut stats);
        }
        assert_eq!(stats.superblocks_compiled, 1);
        assert_eq!(stats.cross_page_superblocks, 1);
        // Write into the *second* page: the entry page's generation is
        // untouched, yet the trace must die.
        let halt = hvft_isa::codec::encode(Instruction::Halt).unwrap();
        mem.write_u32(4096, halt).unwrap();
        match cache.probe(0, &cpu, &mem, &mut stats) {
            Lookup::Compiled(idx) => {
                // Recompiled: the callee's first word is now halt, so
                // the trace ends at the jal and is single-page again.
                assert_eq!(cache.get(idx).len(), 2);
                assert!(cache.get(idx).extra_pages.is_empty());
            }
            Lookup::Cold => panic!("hot address must recompile"),
        }
        assert_eq!(stats.jit_invalidations, 1);
        assert_eq!(stats.jit_invalidations_secondary, 1);
    }

    #[test]
    fn cache_promotes_only_hot_addresses() {
        let mem = mem_with("s: addi r4, r0, 1\n jal ra, s");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD - 1 {
            assert!(matches!(
                cache.probe(0, &cpu_at(0), &mem, &mut stats),
                Lookup::Cold
            ));
        }
        assert!(matches!(
            cache.probe(0, &cpu_at(0), &mem, &mut stats),
            Lookup::Compiled(_)
        ));
        assert_eq!(stats.superblocks_compiled, 1);
        // Subsequent probes hit without recompiling.
        assert!(matches!(
            cache.probe(0, &cpu_at(0), &mem, &mut stats),
            Lookup::Compiled(_)
        ));
        assert_eq!(stats.superblocks_compiled, 1);
    }

    #[test]
    fn cache_invalidates_on_page_writes() {
        let mut mem = mem_with("s: addi r4, r0, 1\n addi r5, r0, 2\n jal ra, s");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD {
            let _ = cache.probe(0, &cpu_at(0), &mem, &mut stats);
        }
        assert_eq!(stats.superblocks_compiled, 1);
        // Patch the second instruction into a halt: recompile shrinks
        // the superblock.
        let halt = hvft_isa::codec::encode(Instruction::Halt).unwrap();
        mem.write_u32(4, halt).unwrap();
        match cache.probe(0, &cpu_at(0), &mem, &mut stats) {
            Lookup::Compiled(idx) => assert_eq!(cache.get(idx).len(), 1),
            Lookup::Cold => panic!("hot address must recompile"),
        }
        assert_eq!(stats.jit_invalidations, 1);
        assert_eq!(stats.superblocks_compiled, 2);
    }

    #[test]
    fn uncompilable_hot_address_caches_a_marker() {
        let mem = mem_with("s: halt");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD + 8 {
            assert!(matches!(
                cache.probe(0, &cpu_at(0), &mem, &mut stats),
                Lookup::Cold
            ));
        }
        assert_eq!(stats.superblocks_compiled, 0);
        assert_eq!(cache.map.len(), 1, "marker cached after promotion");
    }

    #[test]
    fn cache_stays_bounded() {
        let pages = (MAX_SUPERBLOCKS as u32 * 4).div_ceil(PAGE_SIZE) + 1;
        let mut mem = Memory::new((pages * PAGE_SIZE) as usize);
        // Fill with `jalr` so every superblock is a single op: the test
        // exercises cache bounding, not trace formation.
        let jalr = hvft_isa::codec::encode(Instruction::Jalr {
            rd: Reg::ZERO,
            base: Reg::RA,
            disp: 0,
        })
        .unwrap();
        for i in 0..(pages * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, jalr).unwrap();
        }
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let mut cpu = cpu_at(0);
        for i in 0..(MAX_SUPERBLOCKS as u32 + 64) {
            for _ in 0..PROMOTE_THRESHOLD {
                cpu.pc = i * 4;
                let _ = cache.probe(i * 4, &cpu, &mem, &mut stats);
            }
        }
        assert!(cache.map.len() <= MAX_SUPERBLOCKS);
    }
}
