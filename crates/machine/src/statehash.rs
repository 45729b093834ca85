//! Virtual-machine state hashing for lockstep divergence detection.
//!
//! The paper defines the *virtual-machine state* as "the memory and
//! registers that change only with execution of instructions by that
//! virtual machine" — general registers, PC, PSW, address-translation
//! state and main memory — and explicitly excludes the time-of-day clock,
//! interval timer and I/O state (§2.1). The replica-coordination
//! protocols guarantee this state is identical at the primary and backup
//! at every epoch boundary; hashing it is how the test suite (and the
//! `lockstep` checker in `hvft-core`) verifies that guarantee.
//!
//! The hash is built from parts so it can be **incremental**:
//!
//! - a *register digest* over the general registers, PC, PSW and the
//!   hashed control registers;
//! - one *page digest* per RAM page (the last page may be short),
//!   folding the page's bytes as little-endian 64-bit words into four
//!   interleaved lanes;
//! - the *state hash*, which folds the register digest and then every
//!   page digest, in page order.
//!
//! Every fold uses one step, `mix`, which for a fixed input word is a bijection
//! of the running state and for a fixed state is injective in the word.
//! So two states that differ in a single word always hash differently:
//! the differing step yields different states and every later step
//! preserves the difference.
//!
//! [`Memory`] caches each page digest next to the write generation it
//! was computed at, and recomputes only pages whose generation moved.
//! The cache is derived state: it is never snapshotted, and
//! [`Memory::restore`]/[`Memory::reset`] drop it.

use crate::cpu::Cpu;
use crate::mem::Memory;
use hvft_isa::reg::ControlReg;

/// Odd multiplier of [`mix`] (2⁶⁴/φ), invertible modulo 2⁶⁴.
const MIX_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Rotation of [`mix`]: carries the multiply's high bits back down.
const MIX_ROT: u32 = 29;
/// Initial running state of every fold.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One fold step: mixes `w` into the running state `h`.
///
/// For a fixed `w`, each stage (xor, multiply by an odd constant,
/// rotate) is invertible, so the step is a bijection of `h`; for a
/// fixed `h` it is injective in `w` for the same reason.
#[inline(always)]
pub(crate) fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MIX_MUL).rotate_left(MIX_ROT)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Digest of one RAM page (any length; a short tail is zero-padded to
/// a whole word, which is injective for a fixed length).
///
/// Word `i` folds into lane `i % 4`; the lanes are independent chains,
/// so the loop runs four multiplies in parallel, and the lanes are then
/// folded in order.
pub(crate) fn page_digest(bytes: &[u8]) -> u64 {
    let mut lanes = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        lanes[0] = mix(lanes[0], word(&c[0..8]));
        lanes[1] = mix(lanes[1], word(&c[8..16]));
        lanes[2] = mix(lanes[2], word(&c[16..24]));
        lanes[3] = mix(lanes[3], word(&c[24..32]));
    }
    for w in chunks.remainder().chunks(8) {
        lanes[0] = mix(lanes[0], word(w));
    }
    lanes.into_iter().fold(SEED, mix)
}

/// Control registers included in the VM state.
///
/// `rctr` is excluded (owned by the hypervisor for epoch control) and
/// `eirr` is *included*: under the protocols, interrupt assertions happen
/// at identical instruction-stream points on both replicas, so their
/// pending sets must match at epoch boundaries.
const HASHED_CTL: [ControlReg; 9] = [
    ControlReg::Iva,
    ControlReg::Ipsw,
    ControlReg::Iip,
    ControlReg::Eiem,
    ControlReg::Eirr,
    ControlReg::Ptbr,
    ControlReg::TrapArg,
    ControlReg::Scratch0,
    ControlReg::Scratch1,
];

/// Digest of the registers, PC, PSW and [`HASHED_CTL`].
fn register_digest(cpu: &Cpu) -> u64 {
    cpu.regs()
        .iter()
        .copied()
        .chain([cpu.pc, cpu.psw.pack()])
        .chain(HASHED_CTL.map(|cr| cpu.ctl(cr)))
        .fold(SEED, |h, w| mix(h, u64::from(w)))
}

/// Folds the register digest and the page digests into the state hash.
fn combine(regs: u64, pages: impl Iterator<Item = u64>) -> u64 {
    pages.fold(mix(SEED, regs), mix)
}

/// Hashes the complete virtual-machine state (registers + PSW + hashed
/// control registers + all of RAM). Only pages written since the last
/// call are rehashed.
///
/// # Examples
///
/// ```
/// use hvft_machine::cpu::Cpu;
/// use hvft_machine::mem::Memory;
/// use hvft_machine::statehash::vm_state_hash;
/// use hvft_machine::tlb::TlbReplacement;
///
/// let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
/// let mut mem = Memory::new(4096);
/// let h1 = vm_state_hash(&cpu, &mem);
/// assert_eq!(h1, vm_state_hash(&cpu, &mem));
/// mem.write_u8(7, 1).unwrap();
/// assert_ne!(h1, vm_state_hash(&cpu, &mem));
/// ```
pub fn vm_state_hash(cpu: &Cpu, mem: &Memory) -> u64 {
    combine(register_digest(cpu), mem.page_digests())
}

/// The state hash together with the parts it was folded from, so a
/// mismatch can be attributed to registers or to particular pages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateDigest {
    /// The state hash ([`vm_state_hash`]).
    pub hash: u64,
    /// Digest of the registers, PC, PSW and hashed control registers.
    pub regs: u64,
    /// Per-page digests, in page order.
    pub pages: Vec<u64>,
}

/// Computes the state hash and its parts in one pass.
pub fn vm_state_digest(cpu: &Cpu, mem: &Memory) -> StateDigest {
    let regs = register_digest(cpu);
    let pages: Vec<u64> = mem.page_digests().collect();
    StateDigest {
        hash: combine(regs, pages.iter().copied()),
        regs,
        pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;
    use crate::tlb::TlbReplacement;
    use hvft_isa::reg::Reg;
    use hvft_sim::rng::SimRng;

    fn fresh() -> (Cpu, Memory) {
        (
            Cpu::new(8, TlbReplacement::RoundRobin, 0),
            Memory::new(4096),
        )
    }

    /// Inverse of [`mix`] for a known input word.
    fn unmix(h: u64, w: u64) -> u64 {
        // Newton's iteration for the inverse of an odd number mod 2^64.
        let mut inv: u64 = MIX_MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MIX_MUL.wrapping_mul(inv)));
        }
        assert_eq!(MIX_MUL.wrapping_mul(inv), 1);
        h.rotate_right(MIX_ROT).wrapping_mul(inv) ^ w
    }

    #[test]
    fn mix_is_a_bijection_of_the_state() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let (h, w) = (rng.next_u64(), rng.next_u64());
            assert_eq!(unmix(mix(h, w), w), h);
        }
    }

    #[test]
    fn a_single_differing_word_always_changes_the_page_digest() {
        let mut rng = SimRng::seed_from_u64(5);
        // Full pages and short tails (including a partial last word).
        for len in [PAGE_SIZE as usize, 4096 - 3, 40, 7] {
            for _ in 0..200 {
                let page: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let mut other = page.clone();
                let i = rng.gen_range(len as u64) as usize;
                other[i] ^= 1 + rng.gen_range(255) as u8;
                assert_ne!(
                    page_digest(&page),
                    page_digest(&other),
                    "len {len} byte {i}"
                );
            }
        }
    }

    #[test]
    fn identical_states_hash_equal() {
        let (a_cpu, a_mem) = fresh();
        let (b_cpu, b_mem) = fresh();
        assert_eq!(vm_state_hash(&a_cpu, &a_mem), vm_state_hash(&b_cpu, &b_mem));
    }

    #[test]
    fn digest_parts_fold_to_the_hash() {
        let (mut cpu, mut mem) = (
            Cpu::new(8, TlbReplacement::RoundRobin, 0),
            Memory::new(3 * PAGE_SIZE as usize + 100),
        );
        cpu.set_reg(Reg::of(3), 9);
        mem.write_u32(PAGE_SIZE + 8, 0xDEAD_BEEF).unwrap();
        let d = vm_state_digest(&cpu, &mem);
        assert_eq!(d.hash, vm_state_hash(&cpu, &mem));
        assert_eq!(d.pages.len(), 4);
        assert_eq!(d.regs, register_digest(&cpu));
    }

    #[test]
    fn register_difference_changes_hash() {
        let (mut a, mem) = fresh();
        let base = vm_state_hash(&a, &mem);
        a.set_reg(Reg::of(5), 1);
        assert_ne!(vm_state_hash(&a, &mem), base);
    }

    #[test]
    fn memory_difference_changes_hash() {
        let (cpu, mut mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        mem.write_u8(100, 1).unwrap();
        assert_ne!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn pc_difference_changes_hash() {
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.pc = 4;
        assert_ne!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn rctr_is_excluded() {
        // The recovery counter belongs to the hypervisor, not the VM state.
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.set_ctl(hvft_isa::reg::ControlReg::Rctr, 12345);
        assert_eq!(vm_state_hash(&cpu, &mem), base);
    }

    #[test]
    fn tlb_is_excluded() {
        // With hypervisor-managed TLBs (the paper's fix), TLB contents may
        // legitimately differ between replicas.
        let (mut cpu, mem) = fresh();
        let base = vm_state_hash(&cpu, &mem);
        cpu.tlb.insert_pte(0x5000, 0x3017);
        assert_eq!(vm_state_hash(&cpu, &mem), base);
    }
}
