//! Integration tests of the t-fault-tolerant DES: one primary plus
//! `t ≥ 2` ordered backups with real link timing, rank-scaled failure
//! detectors, and cascading failover. All runs are assembled through
//! the `Scenario` builder — the single front door since the legacy
//! constructors were removed.

use hvft_core::scenario::{ExitStatus, Protocol, Scenario, ScenarioBuilder};
use hvft_devices::disk::check_single_processor_consistency;
use hvft_guest::{
    build_image, dhrystone_source, hello_source, io_bench_source, IoMode, KernelConfig,
};
use hvft_isa::program::Program;
use hvft_sim::time::{SimDuration, SimTime};

fn fast(image: &Program, backups: usize) -> ScenarioBuilder {
    Scenario::builder()
        .image(image.clone())
        .functional_cost()
        .backups(backups)
        // Snappy detection so cascades fit inside millisecond-scale
        // functional-cost runs: a kill scheduled before the previous
        // promotion completes would hit an already-dead processor.
        .detector_timeout(SimDuration::from_micros(800))
}

/// Detection-latency headroom between scheduled kills: the rank-1
/// detector timeout plus slack for the promotion hand-over.
const DETECT_NS: u64 = 2_000_000;

fn cpu_image(iters: u32) -> Program {
    build_image(
        &KernelConfig {
            tick_period_us: 2000,
            tick_work: 3,
            ..KernelConfig::default()
        },
        &dhrystone_source(iters, 10),
    )
    .expect("image builds")
}

fn code_of(exit: ExitStatus) -> u32 {
    match exit {
        ExitStatus::Exit(code) => code,
        other => panic!("expected a clean exit, got {other:?}"),
    }
}

fn reference(image: &Program, backups: usize) -> (u32, u64) {
    let r = fast(image, backups).build().unwrap().run();
    (code_of(r.exit), r.completion_time.as_nanos())
}

#[test]
fn t2_failure_free_run_keeps_three_replicas_in_lockstep() {
    let image = cpu_image(800);
    let (code1, _) = reference(&image, 1);
    let r = fast(&image, 2).build().unwrap().run();
    assert_eq!(r.replica_stats.len(), 3);
    assert_eq!(code_of(r.exit), code1, "t must not change the checksum");
    assert!(r.lockstep_clean);
    // Three replicas hash every epoch: two comparisons per epoch.
    assert!(
        r.lockstep_compared > 2 * 2,
        "compared only {}",
        r.lockstep_compared
    );
    assert!(r.failovers.is_empty());
    // The primary broadcast to both backups; both acknowledged.
    assert!(r.messages_per_replica[1] > 0 && r.messages_per_replica[2] > 0);
}

#[test]
fn t2_cascading_failover_is_checksum_transparent() {
    let image = cpu_image(3000);
    for protocol in [Protocol::Old, Protocol::New] {
        // The variants complete in different simulated times, so each
        // needs its own failure-free baseline.
        let ref_r = fast(&image, 2).protocol(protocol).build().unwrap().run();
        let (ref_code, total_ns) = (code_of(ref_r.exit), ref_r.completion_time.as_nanos());
        // Kill the original primary at 1/3 of the failure-free run, and
        // the first backup after it has detected, promoted, and made
        // some progress of its own.
        let t1 = total_ns / 3;
        let t2 = t1 + DETECT_NS + total_ns / 4;
        let r = fast(&image, 2)
            .protocol(protocol)
            .fail_primary_at(SimTime::from_nanos(t1))
            .fail_primary_at(SimTime::from_nanos(t2))
            .build()
            .unwrap()
            .run();
        assert_eq!(
            r.failovers.len(),
            2,
            "{protocol:?}: two promotions expected, got {:?}",
            r.failovers
        );
        assert!(
            r.failovers[0].epoch <= r.failovers[1].epoch,
            "{protocol:?}: promotions must move forward in the stream"
        );
        assert_eq!(
            code_of(r.exit),
            ref_code,
            "{protocol:?}: the last survivor must produce the reference checksum"
        );
        assert!(
            r.lockstep_clean,
            "{protocol:?}: surviving replicas diverged"
        );
    }
}

#[test]
fn t3_survives_three_cascading_failures() {
    let image = cpu_image(3000);
    let (ref_code, total_ns) = reference(&image, 3);
    let t1 = total_ns / 4;
    let t2 = t1 + DETECT_NS + total_ns / 5;
    let t3 = t2 + DETECT_NS + total_ns / 5;
    let r = fast(&image, 3)
        .fail_primary_at(SimTime::from_nanos(t1))
        .fail_primary_at(SimTime::from_nanos(t2))
        .fail_primary_at(SimTime::from_nanos(t3))
        .build()
        .unwrap()
        .run();
    assert_eq!(r.failovers.len(), 3, "{:?}", r.failovers);
    assert_eq!(code_of(r.exit), ref_code);
    assert!(r.lockstep_clean);
}

#[test]
fn t2_disk_writes_survive_cascading_failover_consistently() {
    let image = build_image(
        &KernelConfig::default(),
        &io_bench_source(6, IoMode::Write, 64, 7),
    )
    .unwrap();
    let (ref_code, total_ns) = reference(&image, 2);
    let t1 = total_ns / 3;
    let r = fast(&image, 2)
        .fail_primary_at(SimTime::from_nanos(t1))
        .fail_primary_at(SimTime::from_nanos(t1 + DETECT_NS + total_ns / 4))
        .build()
        .unwrap()
        .run();
    assert_eq!(code_of(r.exit), ref_code, "failovers: {:?}", r.failovers);
    // The environment saw a single-processor-consistent command stream
    // across both hand-overs, even with P7 retries.
    check_single_processor_consistency(&r.disk_log)
        .unwrap_or_else(|e| panic!("environment anomaly: {e}\nlog: {:#?}", r.disk_log));
    assert!(r.lockstep_clean);
}

#[test]
fn t2_cascade_sweep_never_breaks_transparency() {
    // Kill the acting primary twice at many different point pairs; every
    // run must end with the reference checksum. (Late second kills may
    // land after the survivor finished — then they are harmless no-ops,
    // which the checksum assertion still covers.)
    let image = cpu_image(1500);
    let (ref_code, total_ns) = reference(&image, 2);
    for k in 1..8 {
        let t1 = total_ns * k / 10;
        let t2 = t1 + DETECT_NS + total_ns / 5;
        let r = fast(&image, 2)
            .fail_primary_at(SimTime::from_nanos(t1.max(1)))
            .fail_primary_at(SimTime::from_nanos(t2.max(2)))
            .build()
            .unwrap()
            .run();
        assert_eq!(
            code_of(r.exit),
            ref_code,
            "kills at {t1}/{t2} ns: checksum mismatch ({:?})",
            r.failovers
        );
    }
}

#[test]
fn t2_console_output_hands_over_down_the_chain() {
    let msg = "abcdefghijklmnopqrstuvwxyz";
    let image = build_image(
        &KernelConfig {
            tick_period_us: 500,
            tick_work: 0,
            ..KernelConfig::default()
        },
        &hello_source(msg, 3),
    )
    .unwrap();
    let (_, total_ns) = reference(&image, 2);
    let t1 = total_ns / 4;
    let r = fast(&image, 2)
        .fail_primary_at(SimTime::from_nanos(t1))
        .fail_primary_at(SimTime::from_nanos(t1 + DETECT_NS + total_ns / 4))
        .build()
        .unwrap()
        .run();
    assert_eq!(r.exit, ExitStatus::Exit(42));
    // Bytes form an in-order subsequence of the message (fire-and-forget
    // output may lose bytes in failover epochs, never reorder them), and
    // emitting hosts only ever move down the chain.
    let s = String::from_utf8_lossy(&r.console).into_owned();
    let mut it = msg.chars();
    assert!(
        s.chars().all(|c| it.any(|m| m == c)),
        "not a subsequence: {s:?}"
    );
    assert!(
        r.console_hosts.windows(2).all(|w| w[0] <= w[1]),
        "hand-over must be one-way: {:?}",
        r.console_hosts
    );
    assert!(r.console_hosts.len() <= 3);
}

#[test]
fn dead_primary_never_acts_on_late_acknowledgments() {
    // Regression: under the §4.3 protocol the primary may be killed
    // while holding an I/O in AwaitIoAcks with the acknowledgment
    // already in flight; the still-draining ack must not release the
    // dead host's held I/O (a post-mortem disk command would violate
    // single-processor consistency, a console byte would violate host
    // monotonicity). A dense kill sweep maximizes the odds of landing
    // inside a held-I/O window.
    let image = build_image(
        &KernelConfig::default(),
        &io_bench_source(4, IoMode::Write, 32, 3),
    )
    .unwrap();
    let ref_r = fast(&image, 1)
        .protocol(Protocol::New)
        .build()
        .unwrap()
        .run();
    let (ref_code, total_ns) = (code_of(ref_r.exit), ref_r.completion_time.as_nanos());
    for k in 1..30 {
        let t = total_ns * k / 30;
        let r = fast(&image, 1)
            .protocol(Protocol::New)
            .fail_primary_at(SimTime::from_nanos(t.max(1)))
            .build()
            .unwrap()
            .run();
        assert_eq!(code_of(r.exit), ref_code, "kill at {t} ns");
        check_single_processor_consistency(&r.disk_log)
            .unwrap_or_else(|e| panic!("kill at {t} ns: {e}"));
        assert!(
            r.console_hosts.windows(2).all(|w| w[0] <= w[1]),
            "kill at {t} ns: console host went backwards: {:?}",
            r.console_hosts
        );
    }
}

#[test]
fn t2_backup_failstop_leaves_the_run_unharmed() {
    // Kill the *first backup* mid-run: the acting primary must remove
    // it from the acknowledgment set, carry on with the second backup,
    // and finish with the reference checksum — no failover at all.
    let image = cpu_image(1500);
    for protocol in [Protocol::Old, Protocol::New] {
        // Per-protocol reference: the §4.3 variant completes in a
        // different simulated time (and its backups legitimately trail
        // the primary, since boundaries do not wait for acks).
        let ref_r = fast(&image, 2).protocol(protocol).build().unwrap().run();
        let (ref_code, total_ns) = (code_of(ref_r.exit), ref_r.completion_time.as_nanos());
        let r = fast(&image, 2)
            .protocol(protocol)
            .fail_replica_at(SimTime::from_nanos(total_ns / 3), 1)
            .build()
            .unwrap()
            .run();
        assert_eq!(code_of(r.exit), ref_code, "{protocol:?}");
        assert!(
            r.failovers.is_empty(),
            "{protocol:?}: a backup death must not promote anyone: {:?}",
            r.failovers
        );
        assert!(r.lockstep_clean, "{protocol:?}");
        // The dead backup fell silent at the kill; the survivor kept
        // acknowledging to the end of the run.
        assert!(
            r.messages_per_replica[1] < r.messages_per_replica[2],
            "{protocol:?}: dead backup sent {} >= survivor's {}",
            r.messages_per_replica[1],
            r.messages_per_replica[2]
        );
    }
}

#[test]
fn t2_backup_failstop_sweep_is_checksum_transparent() {
    // A backup may die at any point — including inside an epoch-boundary
    // acknowledgment wait, where the primary is stalled on the dead
    // backup's ack and only remove_peer can resume it.
    let image = cpu_image(800);
    let (ref_code, total_ns) = reference(&image, 2);
    for k in 1..10 {
        let t = (total_ns * k / 10).max(1);
        let r = fast(&image, 2)
            .fail_replica_at(SimTime::from_nanos(t), 1)
            .build()
            .unwrap()
            .run();
        assert_eq!(code_of(r.exit), ref_code, "backup kill at {t} ns");
        assert!(r.failovers.is_empty(), "backup kill at {t} ns");
    }
}

#[test]
fn t1_backup_failstop_degenerates_to_an_unreplicated_run() {
    // With the only backup dead, the primary runs on alone (the paper's
    // system would re-integrate a new backup here; we assert the
    // degenerate mode completes and stops hashing comparisons).
    let image = cpu_image(800);
    let (ref_code, total_ns) = reference(&image, 1);
    let r = fast(&image, 1)
        .fail_replica_at(SimTime::from_nanos(total_ns / 2), 1)
        .build()
        .unwrap()
        .run();
    assert_eq!(code_of(r.exit), ref_code);
    assert!(r.failovers.is_empty());
}

#[test]
fn t2_backup_then_primary_failure_still_fails_over() {
    // Backup 1 dies, then the primary dies: backup 2 must detect,
    // promote, and finish — the chain order skips the dead replica.
    let image = cpu_image(3000);
    let (ref_code, total_ns) = reference(&image, 2);
    let t1 = total_ns / 4;
    let t2 = t1 + DETECT_NS + total_ns / 4;
    let r = fast(&image, 2)
        .fail_replica_at(SimTime::from_nanos(t1), 1)
        .fail_primary_at(SimTime::from_nanos(t2))
        .build()
        .unwrap()
        .run();
    assert_eq!(code_of(r.exit), ref_code, "failovers: {:?}", r.failovers);
    assert_eq!(
        r.failovers.len(),
        1,
        "exactly one promotion (backup 2): {:?}",
        r.failovers
    );
    assert!(r.lockstep_clean);
}

#[test]
fn killing_the_acting_primary_by_replica_id_is_a_primary_failure() {
    // fail_replica_at(.., 0) at a time when 0 is still primary must
    // behave exactly like a scheduled primary failure.
    let image = cpu_image(1500);
    let (ref_code, total_ns) = reference(&image, 1);
    let r = fast(&image, 1)
        .fail_replica_at(SimTime::from_nanos(total_ns / 2), 0)
        .build()
        .unwrap()
        .run();
    assert_eq!(code_of(r.exit), ref_code);
    assert_eq!(r.failovers.len(), 1, "{:?}", r.failovers);
}

#[test]
fn deep_chains_boot_and_finish() {
    // t = 5: six replicas over one coordination LAN still reach the
    // reference result (scalability smoke test for the mesh + detector
    // ranks).
    let image = cpu_image(150);
    let (ref_code, _) = reference(&image, 1);
    let r = fast(&image, 5).build().unwrap().run();
    assert_eq!(code_of(r.exit), ref_code);
    assert!(r.lockstep_clean);
    assert_eq!(r.replica_stats.len(), 6);
}

// ---------------------------------------------------------------------
// Epoch-scheduled failstops: the acting primary dies at an epoch
// boundary, before it sends anything for that boundary.
// ---------------------------------------------------------------------

fn epoch_image() -> Program {
    build_image(
        &KernelConfig {
            tick_period_us: 1000,
            tick_work: 2,
            ..KernelConfig::default()
        },
        &dhrystone_source(1_500, 6),
    )
    .expect("image builds")
}

fn epoch_run(t: usize, kills: &[u64]) -> hvft_core::scenario::RunReport {
    let mut b = fast(&epoch_image(), t).epoch_len(1024);
    for &e in kills {
        b = b.fail_primary_at_epoch(e);
    }
    b.build().unwrap().run()
}

#[test]
fn failure_free_t3_compares_every_backup_at_every_boundary() {
    let r = epoch_run(3, &[]);
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(r.lockstep_clean);
    assert!(r.failovers.is_empty());
    assert!(
        r.lockstep_compared >= 3 * (r.epochs - 1),
        "{} comparisons over {} epochs",
        r.lockstep_compared,
        r.epochs
    );
}

#[test]
fn epoch_kills_tolerate_exactly_t_failures() {
    let (code, _) = reference(&epoch_image(), 1);
    for t in 1..=3usize {
        // Fail one primary every 3 epochs, t times.
        let kills: Vec<u64> = (1..=t as u64).map(|k| k * 3).collect();
        let r = epoch_run(t, &kills);
        assert_eq!(
            r.exit,
            ExitStatus::Exit(code),
            "t={t}: the survivor must produce the reference result"
        );
        assert_eq!(
            r.failovers.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            kills,
            "t={t}: each successor promotes at the scheduled epoch"
        );
        assert!(r.lockstep_clean, "t={t}: survivors diverged");
    }
}

#[test]
fn both_protocol_variants_agree_under_an_epoch_kill() {
    let image = epoch_image();
    let run = |protocol| {
        let r = fast(&image, 2)
            .epoch_len(1024)
            .protocol(protocol)
            .fail_primary_at_epoch(4)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.failovers.len(), 1, "{protocol:?}: {:?}", r.failovers);
        code_of(r.exit)
    };
    assert_eq!(run(Protocol::Old), run(Protocol::New));
}

#[test]
fn epoch_kill_console_hand_over_is_one_way_and_lossless() {
    let msg = "abcdefghij";
    let image = build_image(
        &KernelConfig {
            tick_period_us: 200,
            tick_work: 0,
            ..KernelConfig::default()
        },
        &hello_source(msg, 2),
    )
    .unwrap();
    let run = |kills: &[u64]| {
        let mut b = fast(&image, 2).epoch_len(256);
        for &e in kills {
            b = b.fail_primary_at_epoch(e);
        }
        b.build().unwrap().run()
    };
    let clean = run(&[]);
    let r = run(&[2, 4]);
    assert_eq!(r.exit, ExitStatus::Exit(42));
    assert_eq!(r.failovers.len(), 2);
    // Emitting hosts only ever move down the chain, and a boundary kill
    // hands over without losing a byte.
    assert!(
        r.console_hosts.windows(2).all(|w| w[0] < w[1]),
        "hand-over must be one-way: {:?}",
        r.console_hosts
    );
    assert_eq!(r.console, clean.console);
}

#[test]
fn more_than_t_primary_failures_exhaust_the_system() {
    // Long enough that a lone survivor, which runs faster with no peer
    // to wait for, is still busy when the last kill lands.
    let image = cpu_image(12_000);
    for t in 1..=3usize {
        let kills = t as u64 + 1;
        // Epoch-indexed: one kill every 3 epochs.
        let mut b = fast(&image, t);
        for k in 1..=kills {
            b = b.fail_primary_at_epoch(3 * k);
        }
        let r = b.build().unwrap().run();
        assert_eq!(r.exit, ExitStatus::Exhausted, "t={t}, by epoch");
        assert_eq!(r.failovers.len(), t, "t={t}, by epoch");
        // Time-indexed: each kill lands after the previous promotion.
        let (_, total_ns) = reference(&image, t);
        let mut b = fast(&image, t);
        for k in 0..kills {
            let at = total_ns / (kills + 1) + k * DETECT_NS;
            b = b.fail_primary_at(SimTime::from_nanos(at));
        }
        let r = b.build().unwrap().run();
        assert_eq!(r.exit, ExitStatus::Exhausted, "t={t}, by time");
        assert_eq!(r.failovers.len(), t, "t={t}, by time");
    }
}
