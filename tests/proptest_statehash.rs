//! Mutation gate for the incremental lockstep state hash.
//!
//! The state hash caches one digest per RAM page, keyed on the page's
//! write generation, and rehashes only pages whose generation moved.
//! That is sound only if every route that changes RAM either bumps the
//! generation or drops the cache. This file checks that the lockstep
//! checker still catches what the full-RAM hash caught:
//!
//! - **mutation gate**: two identical replicas run epoch by epoch with
//!   warm digest caches; then one byte of one replica changes in a
//!   random page, by a guest store, a DMA write, a program load, or a
//!   restore from a one-byte-different snapshot. The checker must
//!   report exactly that epoch, name exactly that page, and find the
//!   registers equal;
//! - **cold-recompute property**: after random writes, restores and
//!   resets, the incremental hash equals the hash of a cold copy;
//! - **restore hazard**: a restore onto a memory whose cached digest
//!   has the donor's generation but other bytes must not reuse it.

use hvft::core::LockstepChecker;
use hvft::isa::program::{Program, Segment};
use hvft::machine::cpu::{Cpu, Exit, LoadProgram};
use hvft::machine::exec::ExecTier;
use hvft::machine::mem::{Memory, IO_BASE, PAGE_SIZE};
use hvft::machine::statehash::{vm_state_digest, vm_state_hash};
use hvft::machine::tlb::TlbReplacement;
use proptest::prelude::*;

const RAM: usize = 16 * PAGE_SIZE as usize;
/// Instructions per epoch of the test replicas.
const EPOCH: u64 = 256;
/// The patch step rewrites this byte with itself when no flip is due.
const IDLE_PATCH: u32 = 15 * PAGE_SIZE;

/// Each loop iteration stores a counter into word 0 of pages 1..=6,
/// then reads a patch address and an xor mask from the I/O window and
/// applies `mem[addr] ^= mask` with a byte load and store. The
/// registers involved are cleared again, so replicas fed different
/// masks differ in RAM only.
const GUEST: &str = "
.org 0
start:
    li   r10, 0xF0000000
loop:
    addi r20, r20, 1
    li   r11, 0x1000
    li   r12, 0x1000
    addi r13, r0, 6
work:
    sw   r20, 0(r11)
    add  r11, r11, r12
    addi r13, r13, -1
    bne  r13, r0, work
    lw   r5, 0(r10)
    lw   r6, 4(r10)
    lbu  r7, 0(r5)
    xor  r7, r7, r6
    sb   r7, 0(r5)
    addi r5, r0, 0
    addi r6, r0, 0
    addi r7, r0, 0
    jal  r0, loop
";

/// How the byte of the diverging replica is changed.
#[derive(Clone, Copy, Debug)]
enum Route {
    CpuStore,
    Dma,
    Load,
    Restore,
}

struct Replica {
    cpu: Cpu,
    mem: Memory,
    /// A patch the guest applies at its next address read: address and
    /// mask.
    flip: Option<(u32, u32)>,
    /// The mask answered at the next mask read.
    mask: u32,
}

impl Replica {
    fn new(tier: ExecTier) -> Self {
        let image = hvft::isa::asm::assemble(GUEST).expect("asm");
        let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
        cpu.set_exec_tier(tier);
        let mut mem = Memory::new(RAM);
        image.load_into_cpu(&mut cpu, &mut mem);
        Replica {
            cpu,
            mem,
            flip: None,
            mask: 0,
        }
    }

    /// Runs to the end of `epoch`. A pending flip is taken only at an
    /// address read with a whole patch step left in the epoch, so it
    /// lands before the boundary.
    fn run_epoch(&mut self, epoch: u64) {
        let end = (epoch + 1) * EPOCH;
        while self.cpu.retired() < end {
            match self.cpu.run(&mut self.mem, end - self.cpu.retired()) {
                Exit::Retired => {}
                Exit::MmioRead { paddr, width, rd } => {
                    let value = if paddr == IO_BASE {
                        let room = end - self.cpu.retired() > 8;
                        let (addr, mask) = self.flip.take_if(|_| room).unwrap_or((IDLE_PATCH, 0));
                        self.mask = mask;
                        addr
                    } else {
                        std::mem::take(&mut self.mask)
                    };
                    self.cpu.complete_mmio_read(rd, width, value);
                }
                other => panic!("unexpected exit {other:?} at pc {:#x}", self.cpu.pc),
            }
        }
    }
}

/// Runs two replicas for `epochs` epochs, flipping `mask` into the byte
/// at `addr` of replica 1 during the last one by `route`, and returns
/// the checker that saw every boundary.
fn run_with_flip(
    tier: ExecTier,
    route: Route,
    epochs: u64,
    addr: u32,
    mask: u8,
) -> LockstepChecker {
    let mut reps = [Replica::new(tier), Replica::new(tier)];
    let mut checker = LockstepChecker::new();
    let last = epochs - 1;
    for epoch in 0..epochs {
        if epoch == last {
            if let Route::CpuStore = route {
                reps[1].flip = Some((addr, u32::from(mask)));
            }
        }
        for r in &mut reps {
            r.run_epoch(epoch);
        }
        if epoch == last {
            let b = &mut reps[1];
            assert!(b.flip.is_none(), "the guest store must have happened");
            // Warm the cache at the current generations, so only a
            // boundary route itself can invalidate the page's digest.
            let _ = vm_state_hash(&b.cpu, &b.mem);
            let flipped = b.mem.read_u8(addr).unwrap() ^ mask;
            match route {
                Route::CpuStore => {}
                Route::Dma => b.mem.write_bytes(addr, &[flipped]),
                Route::Load => Program {
                    segments: vec![Segment {
                        base: addr,
                        data: vec![flipped],
                    }],
                    symbols: Default::default(),
                    entry: b.cpu.pc,
                }
                .load_into_cpu(&mut b.cpu, &mut b.mem),
                Route::Restore => {
                    let mut donor = Memory::new(RAM);
                    donor.restore(&b.mem.snapshot());
                    donor.write_u8(addr, flipped).unwrap();
                    // Rewrite the old byte so this replica's cached
                    // digest sits at the donor's generation.
                    let old = b.mem.read_u8(addr).unwrap();
                    b.mem.write_u8(addr, old).unwrap();
                    assert_eq!(b.mem.page_gen(addr), donor.page_gen(addr));
                    let _ = vm_state_hash(&b.cpu, &b.mem);
                    b.mem.restore(&donor.snapshot());
                }
            }
        }
        for (i, r) in reps.iter().enumerate() {
            checker.record(i, epoch, vm_state_digest(&r.cpu, &r.mem));
        }
    }
    checker
}

fn tier_of(pick: u8) -> ExecTier {
    [ExecTier::Step, ExecTier::Jit][usize::from(pick % 2)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn a_one_byte_flip_is_caught_at_its_epoch_by_every_route(
        route in 0u8..4,
        tier in 0u8..2,
        epochs in 2u64..12,
        page in 0u32..16,
        offset in 4u32..PAGE_SIZE,
        mask in 1u8..=255,
    ) {
        let route = [Route::CpuStore, Route::Dma, Route::Load, Route::Restore][usize::from(route)];
        // The guest's own store must be the only write to its page in
        // the epoch: keep it off the code page, the counter pages and
        // the idle patch page.
        let page = match route {
            Route::CpuStore => 7 + page % 8,
            _ => page,
        };
        let addr = page * PAGE_SIZE + offset;
        let checker = run_with_flip(tier_of(tier), route, epochs, addr, mask);
        let divs = checker.divergences();
        prop_assert_eq!(divs.len(), 1, "{:?}: {:?}", route, divs);
        let d = &divs[0];
        prop_assert_eq!(d.epoch, epochs - 1, "{:?}", route);
        prop_assert_eq!((d.replica_a, d.replica_b), (0, 1));
        prop_assert!(!d.regs_differ, "{:?}: registers must agree", route);
        prop_assert_eq!(d.pages.clone(), Some(vec![page as usize]), "{:?}", route);
    }

    #[test]
    fn incremental_hash_equals_a_cold_recompute(
        ops in prop::collection::vec((0u8..6, 0u32..(RAM as u32), any::<u32>()), 1..60),
    ) {
        let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new(RAM);
        let mut saved = Vec::new();
        for (kind, addr, value) in ops {
            match kind {
                0 => mem.write_u8(addr, value as u8).unwrap(),
                1 => mem.write_u32(addr & !3, value).unwrap(),
                2 => {
                    let len = (value as usize % 6000).min(RAM - addr as usize);
                    mem.write_bytes(addr, &vec![value as u8; len]);
                }
                3 => saved.push(mem.snapshot()),
                4 => {
                    if let Some(snap) = saved.get(value as usize % saved.len().max(1)) {
                        mem.restore(snap);
                    }
                }
                _ => mem.reset(),
            }
            let mut cold = Memory::new(RAM);
            cold.restore(&mem.snapshot());
            prop_assert_eq!(vm_state_hash(&cpu, &mem), vm_state_hash(&cpu, &cold));
        }
    }
}

#[test]
fn restore_never_trusts_a_matching_generation() {
    // Two memories reach the same generation on page 2 with different
    // bytes. Restoring one from the other's snapshot must yield the
    // donor's hash, not the hash cached under the same generation.
    let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
    let mut a = Memory::new(RAM);
    let mut donor = Memory::new(RAM);
    let p = 2 * PAGE_SIZE;
    a.write_u32(p + 64, 0x1111_1111).unwrap();
    donor.write_u32(p + 64, 0x2222_2222).unwrap();
    assert_eq!(a.page_gen(p), donor.page_gen(p));
    let stale = vm_state_hash(&cpu, &a);
    a.restore(&donor.snapshot());
    assert_eq!(vm_state_hash(&cpu, &a), vm_state_hash(&cpu, &donor));
    assert_ne!(vm_state_hash(&cpu, &a), stale);
}

#[test]
fn every_route_is_caught_on_every_tier() {
    // A pinned sweep of the proptest above: each route, each tier, a
    // flip in a data page after several warm epochs.
    for route in [Route::CpuStore, Route::Dma, Route::Load, Route::Restore] {
        for tier in [ExecTier::Step, ExecTier::Jit] {
            let addr = 9 * PAGE_SIZE + 1234;
            let checker = run_with_flip(tier, route, 6, addr, 0x80);
            let divs = checker.divergences();
            assert_eq!(divs.len(), 1, "{route:?}/{tier}: {divs:?}");
            assert_eq!(divs[0].epoch, 5, "{route:?}/{tier}");
            assert_eq!(divs[0].pages, Some(vec![9]), "{route:?}/{tier}");
            assert!(!divs[0].regs_differ, "{route:?}/{tier}");
        }
    }
}
