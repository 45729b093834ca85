//! A 3-replica fault-tolerant VM surviving two cascading primary
//! failures — in the full DES, with realistic link latency, watched
//! live by a run observer.
//!
//! ```text
//! cargo run --release --example t_fault_des
//! ```
//!
//! §2 of the paper: "generalization to t-fault-tolerant virtual
//! machines is straightforward." This example runs that generalization
//! through the same machinery as the paper's prototype: one
//! primary and two ordered backups on a 10 Mbps Ethernet, per-epoch
//! `[Tme]`/`[end]` broadcasts with per-backup acknowledgments,
//! rank-scaled timeout failure detectors, and a shared console. The
//! original primary is killed mid-run; its successor is killed a little
//! later; the last survivor finishes the workload with the reference
//! checksum. An [`Observer`] hooked into the run reports the failover
//! timeline and per-replica message traffic as it happens. Finally, a
//! third failstop, scheduled by epoch number, shows that `t`-fault
//! tolerance means `t` faults and not `t + 1`.

use hvft::core::observer::Observer;
use hvft::core::scenario::{ExitStatus, Scenario, ScenarioBuilder};
use hvft::core::system::FailoverInfo;
use hvft::guest::workload::Dhrystone;
use hvft::guest::KernelConfig;
use hvft::sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn base() -> ScenarioBuilder {
    Scenario::builder()
        .workload(Dhrystone {
            iters: 4_000,
            syscall_every: 8,
            kernel: KernelConfig {
                tick_period_us: 2000,
                tick_work: 3,
                ..KernelConfig::default()
            },
        })
        .functional_cost()
        .backups(2)
        // Snappy detection keeps the demo short; the rank scaling
        // (backup k waits k x this) is what matters for correctness.
        .detector_timeout(SimDuration::from_micros(800))
        .epoch_len(4096)
}

/// Prints the protocol's milestone events as they happen and counts
/// per-replica traffic — a run observer replacing ad-hoc counters.
/// State is shared with `main` so it can be read after the run.
#[derive(Clone, Default)]
struct Timeline(Rc<RefCell<[u64; 3]>>);

impl Observer for Timeline {
    fn failover(&mut self, info: &FailoverInfo) {
        println!(
            "  [observer] P6 promotion at {} (failover epoch {}{})",
            info.at,
            info.epoch,
            if info.uncertain_synthesized {
                ", P7 synthesized an uncertain interrupt"
            } else {
                ""
            }
        );
    }
    fn message_sent(&mut self, from: usize, _to: usize, _bytes: usize, _at: SimTime) {
        self.0.borrow_mut()[from] += 1;
    }
}

fn main() {
    // Reference: the failure-free 3-replica run.
    let reference = base().build().expect("valid scenario").run();
    let ref_code = reference.exit.code().expect("reference run exits");
    println!(
        "reference: 3 replicas over Ethernet, exit {ref_code:#010x} at {} ({} epoch hashes compared, clean: {})",
        reference.completion_time, reference.lockstep_compared, reference.lockstep_clean,
    );

    // Adversarial: kill the acting primary twice.
    let total = reference.completion_time.as_nanos();
    let t1 = total / 3;
    let t2 = t1 + 2_000_000 + total / 4;
    println!("\nfailure schedule: kill primary at {t1} ns, kill its successor at {t2} ns");
    let scenario = base()
        .fail_primary_at(SimTime::from_nanos(t1))
        .fail_primary_at(SimTime::from_nanos(t2))
        .build()
        .expect("valid scenario");
    let timeline = Timeline::default();
    let mut runner = scenario.runner();
    runner.add_observer(Box::new(timeline.clone()));
    let report = runner.run();

    println!(
        "\n{} failovers: {:?}",
        report.failovers.len(),
        report
            .failovers
            .iter()
            .map(|f| (f.at, f.epoch))
            .collect::<Vec<_>>()
    );
    let code = report
        .exit
        .code()
        .unwrap_or_else(|| panic!("run ended {:?}", report.exit));
    assert_eq!(
        code, ref_code,
        "the last survivor must produce the reference checksum"
    );
    println!("survivor exit code: {code:#010x} — identical to the failure-free run ✓");
    assert_eq!(
        report.failovers.len(),
        2,
        "both kills must cause promotions"
    );
    assert!(
        report.lockstep_clean,
        "lockstep hashes must stay clean across promotions"
    );
    println!(
        "lockstep: {} comparisons across the cascade, all clean ✓",
        report.lockstep_compared
    );
    println!(
        "messages sent per replica: {:?}",
        report.messages_per_replica
    );
    // The observer's count agrees with the driver's own counters.
    let observed: u64 = timeline.0.borrow().iter().sum();
    assert_eq!(
        observed,
        report.messages_per_replica.iter().sum::<u64>(),
        "observer and driver traffic counters must agree"
    );
    println!("observer counted the same {observed} frames the driver reports ✓");
    println!(
        "completed at {} (vs {} failure-free) — the environment saw one logical processor",
        report.completion_time, reference.completion_time
    );

    // One failure too many: three epoch-aligned failstops against t = 2
    // leave no replica to promote.
    let doomed = base()
        .fail_primary_at_epoch(2)
        .fail_primary_at_epoch(4)
        .fail_primary_at_epoch(6)
        .build()
        .expect("valid scenario")
        .run();
    assert_eq!(doomed.exit, ExitStatus::Exhausted);
    assert_eq!(doomed.failovers.len(), 2);
    println!("\n3 failures against t = 2: system exhausted, exactly as specified ✓");
}
