//! The bounded NIC-queue backpressure knob (§4.3 saturated regime).
//!
//! The revised (New) protocol streams epoch-boundary messages without
//! waiting for acknowledgments, so on a slow medium a spin-waiting
//! guest oversubscribes the wire without bound — the paper's NP model
//! makes the same infinite-buffer assumption. `nic_queue_bound` makes
//! that regime physical: the sender blocks once its outbound queueing
//! delay exceeds the bound. These tests pin the two properties that
//! matter: the bound changes *timing only* (guest-visible behaviour is
//! untouched), and an unengaged bound is a bit-exact no-op so Table 1
//! runs are unchanged.

use hvft_core::scenario::{ConfigError, Protocol, Scenario, ScenarioBuilder};
use hvft_guest::workload::Dhrystone;
use hvft_guest::KernelConfig;
use hvft_net::link::LinkSpec;
use hvft_sim::time::SimDuration;

/// A deliberately slow medium: at 1 Mbps every boundary message is
/// hundreds of microseconds of air time, so a functional-cost guest
/// saturates it immediately.
fn slow_link() -> LinkSpec {
    LinkSpec {
        bits_per_sec: 1_000_000,
        propagation: SimDuration::from_micros(25),
        per_message: SimDuration::from_micros(35),
        mtu: 1024,
    }
}

fn saturated(iters: u32) -> ScenarioBuilder {
    Scenario::builder()
        .workload(Dhrystone {
            iters,
            syscall_every: 0,
            kernel: KernelConfig {
                tick_period_us: 2000,
                tick_work: 2,
                ..KernelConfig::default()
            },
        })
        .functional_cost()
        .protocol(Protocol::New)
        .epoch_len(512)
        .link(slow_link())
}

#[test]
fn backpressure_changes_timing_but_not_behaviour() {
    let unbounded = saturated(400).build().unwrap().run();
    let bounded = saturated(400)
        .nic_queue_bound(SimDuration::from_millis(1))
        .build()
        .unwrap()
        .run();
    // Guest-visible behaviour is identical…
    assert_eq!(unbounded.exit, bounded.exit);
    assert_eq!(unbounded.console, bounded.console);
    assert!(unbounded.exit.is_clean_exit(), "{:?}", unbounded.exit);
    assert!(bounded.lockstep_clean);
    // …but the bounded sender was actually stalled by the full queue:
    // the streaming primary can no longer run arbitrarily ahead of the
    // saturated medium, so its completion clock moves.
    assert!(
        bounded.completion_time > unbounded.completion_time,
        "the bound never engaged: bounded {} vs unbounded {}",
        bounded.completion_time,
        unbounded.completion_time
    );
}

#[test]
fn unengaged_bound_is_a_bit_exact_noop() {
    // The §2 (Old) protocol waits for boundary acks, so its queue never
    // builds: a generous bound must never engage and the run must be
    // bit-identical to the unbounded one — which is why Table 1
    // reproductions are unaffected by the knob's existence.
    let base = || {
        Scenario::builder()
            .workload(Dhrystone {
                iters: 300,
                ..Default::default()
            })
            .functional_cost()
    };
    let plain = base().build().unwrap().run();
    let bounded = base()
        .nic_queue_bound(SimDuration::from_millis(10))
        .build()
        .unwrap()
        .run();
    assert_eq!(plain.exit, bounded.exit);
    assert_eq!(plain.completion_time, bounded.completion_time);
    assert_eq!(plain.messages_per_replica, bounded.messages_per_replica);
    assert_eq!(plain.console, bounded.console);
}

#[test]
fn nic_bound_needs_a_timed_network() {
    // The bare baseline has no timed coordination network to
    // backpressure; the builder must reject the combination.
    let err = Scenario::builder()
        .workload(Dhrystone::default())
        .bare()
        .nic_queue_bound(SimDuration::from_millis(1))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::DriverMismatch(_)),
        "nic_queue_bound must be replicated-only"
    );
}
