//! The engine-equivalence oracle: time-indexed vs epoch-indexed
//! failstops.
//!
//! The `hvft-core::protocol` engines never see the clock, so *when* a
//! primary dies matters to them only through the protocol step it dies
//! at. A failstop scheduled by simulated time lands mid-epoch; the
//! successor promotes at the boundary of the epoch it was waiting on.
//! Replaying those failover epochs as epoch-aligned failstops (the
//! primary dies at that boundary, before sending anything for it) must
//! therefore reproduce the same failover epochs and the same
//! guest-visible result, at t = 1 and t = 2 alike. Epoch-aligned
//! failstops lose nothing at all: the console stream stays
//! byte-identical to the failure-free run under both protocol variants.
//! All runs are configured through the one `Scenario` builder.

use hvft::core::scenario::{Protocol, RunReport, Scenario, ScenarioBuilder};
use hvft::guest::workload::{Dhrystone, Hello};
use hvft::guest::KernelConfig;
use hvft::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Rank-1 detection latency plus hand-over slack, in nanoseconds.
const DETECT_NS: u64 = 2_000_000;

fn cpu_workload() -> Dhrystone {
    Dhrystone {
        iters: 1_500,
        syscall_every: 7,
        kernel: KernelConfig {
            tick_period_us: 2000,
            tick_work: 2,
            ..KernelConfig::default()
        },
    }
}

fn des_builder(backups: usize) -> ScenarioBuilder {
    Scenario::builder()
        .workload(cpu_workload())
        .functional_cost()
        .backups(backups)
        .detector_timeout(SimDuration::from_micros(800))
}

struct Reference {
    code: u32,
    total_ns: u64,
    console: Vec<u8>,
}

/// Failure-free t = 1 DES run of the CPU workload.
fn cpu_reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let r = des_builder(1).build().unwrap().run();
        Reference {
            code: r.exit.code().unwrap_or_else(|| panic!("{:?}", r.exit)),
            total_ns: r.completion_time.as_nanos(),
            console: r.console,
        }
    })
}

/// Runs `builder` with the acting primary failstopped at each epoch in
/// `kills`, demanding a clean exit.
fn run_epoch_kills(builder: ScenarioBuilder, kills: &[u64]) -> RunReport {
    let b = kills
        .iter()
        .fold(builder, |b, &e| b.fail_primary_at_epoch(e));
    let r = b.build().unwrap().run();
    assert!(r.exit.is_clean_exit(), "kills {kills:?}: {:?}", r.exit);
    r
}

fn failover_epochs(r: &RunReport) -> Vec<u64> {
    r.failovers.iter().map(|f| f.epoch).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn failure_free_engines_agree_across_epoch_lengths(el_exp in 9u32..13) {
        // The same workload through the replicated driver at t = 1 and
        // t = 2 and through the bare baseline: identical checksums at
        // every epoch length.
        let el = 1u32 << el_exp;
        let reference = cpu_reference();
        let bare = Scenario::builder().workload(cpu_workload()).bare().build().unwrap().run();
        prop_assert_eq!(bare.exit.code(), Some(reference.code), "bare");
        for t in [1usize, 2] {
            let r = des_builder(t).epoch_len(el).build().unwrap().run();
            match r.exit.code() {
                Some(code) => prop_assert_eq!(code, reference.code, "DES t={} EL={}", t, el),
                None => return Err(TestCaseError::fail(
                    format!("DES t={t} EL={el}: {:?}", r.exit))),
            }
            prop_assert!(r.lockstep_clean, "DES t={} EL={} diverged", t, el);
        }
    }

    #[test]
    fn time_and_epoch_indexed_failstops_agree(
        frac in 1u64..8,
        gap in 1u64..4,
        two_failures in any::<bool>(),
    ) {
        // Kill the acting primary by simulated time (twice, for t = 2);
        // the survivor must produce the reference checksum. Then replay
        // the observed failover epochs as epoch-aligned kills and demand
        // the same failover epochs and the same checksum.
        let reference = cpu_reference();
        let t = if two_failures { 2 } else { 1 };
        let t1 = (reference.total_ns * frac / 10).max(1);
        let mut b = des_builder(t).fail_primary_at(SimTime::from_nanos(t1));
        if two_failures {
            let t2 = t1 + DETECT_NS + reference.total_ns * gap / 10;
            b = b.fail_primary_at(SimTime::from_nanos(t2));
        }
        let r = b.build().unwrap().run();
        match r.exit.code() {
            Some(code) => prop_assert_eq!(code, reference.code, "DES t={} frac={}", t, frac),
            None => return Err(TestCaseError::fail(
                format!("DES t={t} frac={frac}: {:?}", r.exit))),
        }
        prop_assert!(r.lockstep_clean, "DES t={} frac={} diverged", t, frac);
        // Console bytes under a mid-epoch failover are an in-order
        // subsequence of the reference stream (fire-and-forget output
        // may lose bytes in the failover epoch, never reorder or invent
        // them).
        let mut it = reference.console.iter();
        prop_assert!(
            r.console.iter().all(|b| it.any(|m| m == b)),
            "DES console not a subsequence: {:?}", r.console
        );
        let kills = failover_epochs(&r);
        let replay = run_epoch_kills(des_builder(t), &kills);
        prop_assert_eq!(failover_epochs(&replay), kills.clone(), "replay of {:?}", kills);
        prop_assert_eq!(replay.exit, r.exit, "replay of {:?}", kills);
        prop_assert!(replay.lockstep_clean, "replay of {:?} diverged", kills);
    }
}

fn hello_workload(msg: &str) -> Hello {
    Hello {
        message: msg.into(),
        wait_ticks: 2,
        kernel: KernelConfig {
            tick_period_us: 500,
            tick_work: 0,
            ..KernelConfig::default()
        },
    }
}

#[test]
fn console_streams_are_identical_without_failures() {
    // The strongest equivalence: byte-for-byte identical console output
    // through the bare baseline and the replicated driver at t = 1 and
    // t = 2.
    let msg = "the quick brown fox jumps over the lazy dog";
    let bare = Scenario::builder()
        .workload(hello_workload(msg))
        .bare()
        .build()
        .unwrap()
        .run();
    assert_eq!(bare.exit.code(), Some(42), "{:?}", bare.exit);
    assert!(!bare.console.is_empty(), "the workload must actually print");
    for t in [1usize, 2] {
        let r = Scenario::builder()
            .workload(hello_workload(msg))
            .functional_cost()
            .backups(t)
            .detector_timeout(SimDuration::from_micros(800))
            .build()
            .unwrap()
            .run();
        assert_eq!(r.exit.code(), Some(42), "t={t}: {:?}", r.exit);
        assert_eq!(r.console, bare.console, "t={t}: the byte stream differs");
    }
}

#[test]
fn epoch_boundary_kills_lose_no_console_bytes() {
    // An epoch-aligned failstop happens before the dying primary sends
    // anything for its boundary, and every console byte of the epoch it
    // completed was already performed — so, unlike a mid-epoch kill,
    // the hand-over loses nothing under either protocol variant.
    let msg = "abcdefghijklmnopqrstuvwxyz";
    for protocol in [Protocol::Old, Protocol::New] {
        let builder = || {
            Scenario::builder()
                .workload(hello_workload(msg))
                .functional_cost()
                .protocol(protocol)
                .backups(2)
                .detector_timeout(SimDuration::from_micros(800))
                .epoch_len(256)
        };
        let reference = run_epoch_kills(builder(), &[]);
        let with_fails = run_epoch_kills(builder(), &[3, 6]);
        assert_eq!(with_fails.exit.code(), Some(42), "{protocol:?}");
        assert_eq!(
            with_fails.console, reference.console,
            "{protocol:?}: boundary-aligned failovers must be byte-transparent"
        );
        assert_eq!(failover_epochs(&with_fails), vec![3, 6], "{protocol:?}");
    }
}
