//! The `t`-fault-tolerant generalization as a round-synchronous chain.
//!
//! §2 of the paper: "Our protocols are for a single backup, so we
//! implement a 1-fault-tolerant virtual machine; generalization to
//! t-fault-tolerant virtual machines is straightforward." This module
//! implements that generalization as an epoch-synchronous replica
//! chain: one primary plus `t` ordered backups, all executing identical
//! instruction streams; when the current primary failstops, the next
//! live replica in the chain promotes itself, up to `t` times.
//!
//! The chain runs the *same* [`crate::protocol::ReplicaEngine`] state
//! machines as the realistic DES in [`crate::system::FtSystem`] — the
//! P1–P7 rule logic is not re-implemented here. What changes is only
//! the machinery the rules are abstract over: replicas advance in
//! lockstep rounds of one epoch, the transport is hvft-net's
//! [`InstantLink`] (messages reduced to their information content,
//! delivered within the round), and the environment is the console plus
//! timer. That is exactly the part the paper calls straightforward —
//! and this module proves it by running `t + 1` replicas through
//! arbitrary failure schedules and checking that states stay identical
//! and the survivor finishes the workload with the reference result.

use crate::config::ProtocolVariant;
use crate::lockstep::LockstepChecker;
use crate::messages::Message;
use crate::observer::Observer;
use crate::protocol::{apply_to_guest, Effect, ReplicaEngine};
use crate::system::FailoverInfo;
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvEvent, HvGuest, HvStats};
use hvft_isa::program::Program;
use hvft_machine::mem::IO_BASE;
use hvft_net::transport::{InstantLink, Transport};
use hvft_sim::sched::Component;
use hvft_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Why a chain run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainEnd {
    /// The workload exited with this code on the acting primary.
    Exit {
        /// Guest exit code.
        code: u32,
    },
    /// More processors failed than the chain tolerates (> t).
    Exhausted,
    /// Replicas diverged at an epoch boundary (protocol violation).
    Diverged {
        /// The epoch at whose boundary hashes differed.
        epoch: u64,
    },
    /// The epoch budget ran out (guard).
    EpochLimit,
}

/// Result of a chain run.
#[derive(Clone, Debug)]
pub struct ChainResult {
    /// Outcome.
    pub end: ChainEnd,
    /// Epochs executed.
    pub epochs: u64,
    /// Number of primaries that failstopped during the run.
    pub failures: usize,
    /// Console bytes, tagged with the replica that (as acting primary)
    /// emitted them.
    pub console: Vec<(usize, u8)>,
    /// Cross-replica state-hash comparisons performed.
    pub comparisons: u64,
    /// Every promotion in order: the epoch it happened at, with `at`
    /// carrying the promoted replica's accumulated guest time (the
    /// chain is round-synchronous and has no global clock).
    pub promotions: Vec<FailoverInfo>,
    /// Simulated guest time accumulated by the acting primary (zero if
    /// the chain was exhausted).
    pub completion_time: SimDuration,
    /// Instructions retired by the acting primary's guest (zero if the
    /// chain was exhausted).
    pub retired: u64,
    /// Hypervisor statistics per replica, in chain order (default for
    /// failstopped replicas).
    pub replica_stats: Vec<HvStats>,
}

/// One chain member: a hypervised guest plus its protocol engine.
struct Replica {
    guest: HvGuest,
    engine: ReplicaEngine,
}

/// A `t`-fault-tolerant virtual machine: primary + `t` ordered backups.
pub struct TChain {
    replicas: Vec<Option<Replica>>,
    /// Index of the acting primary (first live replica).
    head: usize,
    epoch: u64,
    console: Vec<(usize, u8)>,
    lockstep: LockstepChecker,
    /// `links[&(i, j)]` carries messages from replica `i` to `j`.
    links: BTreeMap<(usize, usize), InstantLink<Message>>,
    /// Epoch of each promotion, in promotion order.
    promotions: Vec<FailoverInfo>,
    /// Run observers (see [`crate::observer::Observer`]); hook sites
    /// are the chain's round boundaries and promotions.
    observers: Vec<Box<dyn Observer>>,
}

impl TChain {
    /// Boots `t + 1` replicas of `image`. Each replica's machine gets a
    /// different TLB seed — as in the DES system, hardware
    /// non-determinism must be survivable. The chain's instantaneous
    /// links acknowledge within the round, so both protocol variants
    /// behave identically — running them through the same engine is
    /// precisely the point.
    ///
    /// This is the validated construction path used by the scenario
    /// layer; [`crate::scenario::Scenario::builder`] with
    /// [`crate::scenario::Driver::Chain`] is the public front door and
    /// validates configurations instead of panicking.
    pub(crate) fn build(
        image: &Program,
        t: usize,
        cost: CostModel,
        hv: HvConfig,
        variant: ProtocolVariant,
    ) -> Self {
        assert!(t >= 1, "a t-fault-tolerant chain needs t >= 1");
        let n = t + 1;
        let replicas = (0..n)
            .map(|i| {
                let mut cfg = hv;
                cfg.tlb_seed = hv.tlb_seed.wrapping_add(1 + i as u64);
                let engine = if i == 0 {
                    ReplicaEngine::new_primary(0, (1..n).collect(), variant)
                } else {
                    ReplicaEngine::new_backup(i, 0, variant)
                };
                Some(Replica {
                    guest: HvGuest::new(image, cost, cfg),
                    engine,
                })
            })
            .collect();
        let mut links = BTreeMap::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    links.insert((from, to), InstantLink::new());
                }
            }
        }
        TChain {
            replicas,
            head: 0,
            epoch: 0,
            console: Vec::new(),
            lockstep: LockstepChecker::new(),
            links,
            promotions: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// Number of live replicas.
    pub fn live(&self) -> usize {
        self.replicas.iter().flatten().count()
    }

    /// Registers a run observer. The chain fires the epoch-boundary and
    /// failover hooks; its instantaneous links carry no observable wire
    /// traffic.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Removes and returns the registered observers.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// Failstops the acting primary; the next live replica promotes.
    /// Returns `false` if no replica is left to promote.
    pub fn fail_primary(&mut self) -> bool {
        let dead = self.head;
        self.replicas[dead] = None;
        for (&(from, to), link) in self.links.iter_mut() {
            if from == dead || to == dead {
                link.sever();
            }
        }
        match self.replicas.iter().position(Option::is_some) {
            Some(next) => {
                self.head = next;
                let survivors: Vec<usize> = (0..self.replicas.len())
                    .filter(|&j| j != next && self.replicas[j].is_some())
                    .collect();
                let promoted = self.replicas[next].as_mut().expect("next is live");
                promoted.engine.promote_running(survivors);
                let info = FailoverInfo {
                    // The chain is round-synchronous: promotion "time"
                    // is the promoted replica's accumulated guest time.
                    at: SimTime::ZERO + promoted.guest.elapsed(),
                    epoch: self.epoch,
                    uncertain_synthesized: false,
                };
                self.promotions.push(info);
                for obs in &mut self.observers {
                    obs.failover(&info);
                }
                true
            }
            None => false,
        }
    }

    /// Applies engine effects for replica `i`; sends go onto the links,
    /// everything else goes through the shared guest applier. Purely
    /// guest-local: the chain has no disk and holds no I/O.
    fn process_effects(&mut self, i: usize, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(link) = self.links.get_mut(&(i, to)) {
                        let bytes = msg.wire_bytes();
                        let _ = link.send(SimTime::ZERO, bytes, msg);
                    }
                }
                Effect::SynthesizeUncertain | Effect::ResumeHeldIo => {
                    unreachable!("the chain performs no device I/O")
                }
                guest_local => {
                    if let Some(r) = self.replicas[i].as_mut() {
                        apply_to_guest(&guest_local, &mut r.guest);
                    }
                }
            }
        }
    }

    /// Drains every link to a fixpoint, feeding messages to the
    /// receiving engines in deterministic `(from, to)` order.
    fn pump_messages(&mut self) {
        loop {
            let mut fired = false;
            let pairs: Vec<(usize, usize)> = self.links.keys().copied().collect();
            for (from, to) in pairs {
                let Some(msg) = self
                    .links
                    .get_mut(&(from, to))
                    .and_then(|l| l.pop_ready(SimTime::ZERO))
                else {
                    continue;
                };
                fired = true;
                let Some(r) = self.replicas[to].as_mut() else {
                    continue;
                };
                let effects = r.engine.message_received(from, msg);
                self.process_effects(to, effects);
            }
            if !fired {
                return;
            }
        }
    }

    /// Runs every live replica through one epoch (or to workload exit).
    ///
    /// Returns `Some(end)` when the run is over.
    fn step_epoch(&mut self, budget: SimDuration) -> Option<ChainEnd> {
        let mut exit_code: Option<u32> = None;
        let head = self.head;
        let mut at_boundary: Vec<usize> = Vec::new();
        for i in 0..self.replicas.len() {
            let is_primary = i == head;
            let Some(replica) = self.replicas[i].as_mut() else {
                continue;
            };
            loop {
                match replica.guest.run(budget) {
                    HvEvent::EpochEnd => {
                        self.lockstep.record(
                            i,
                            replica.guest.epoch(),
                            replica.guest.state_digest(),
                        );
                        at_boundary.push(i);
                        break;
                    }
                    HvEvent::MmioRead { paddr } => {
                        let v = match paddr.wrapping_sub(IO_BASE) {
                            hvft_devices::mmio::CONSOLE_REG_STATUS => 1,
                            _ => 0,
                        };
                        replica.guest.finish_mmio_read(v);
                    }
                    HvEvent::MmioWrite { paddr, value } => {
                        // Output suppression at backups, exactly as in
                        // the DES system.
                        if is_primary
                            && paddr.wrapping_sub(IO_BASE) == hvft_devices::mmio::CONSOLE_REG_TX
                        {
                            self.console.push((i, value as u8));
                        }
                        replica.guest.finish_mmio_write();
                    }
                    HvEvent::Diag { value, code } => {
                        if code == hvft_guest::layout::diag::EXIT {
                            if is_primary {
                                exit_code = Some(value);
                            }
                            break;
                        }
                    }
                    HvEvent::Halted => break,
                    HvEvent::BudgetExhausted => return Some(ChainEnd::EpochLimit),
                    HvEvent::Idle => return Some(ChainEnd::EpochLimit),
                }
            }
        }
        if !self.observers.is_empty() {
            for &i in &at_boundary {
                let (epoch, at) = {
                    let r = self.replicas[i].as_ref().expect("boundary replica is live");
                    (r.guest.epoch(), SimTime::ZERO + r.guest.elapsed())
                };
                for obs in &mut self.observers {
                    obs.epoch_boundary(i, epoch, at);
                }
            }
        }
        self.epoch += 1;
        if !self.lockstep.is_clean() {
            return Some(ChainEnd::Diverged { epoch: self.epoch });
        }
        if let Some(code) = exit_code {
            return Some(ChainEnd::Exit { code });
        }
        // Boundary processing through the engines: the primary issues
        // [Tme]/[end], backups wait for them; the instant links resolve
        // the whole exchange (including acknowledgments) within the
        // round.
        for i in at_boundary {
            let Some(r) = self.replicas[i].as_mut() else {
                continue;
            };
            let epoch = r.guest.epoch();
            let vclock = r.guest.vclock.snapshot();
            let effects = r.engine.boundary_reached(epoch, vclock);
            self.process_effects(i, effects);
        }
        self.pump_messages();
        for (i, r) in self.replicas.iter().enumerate() {
            if let Some(r) = r {
                debug_assert!(
                    r.engine.is_running(),
                    "replica {i} stuck after the round's message pump"
                );
            }
        }
        None
    }

    /// Runs to completion, failstopping the acting primary at each epoch
    /// number listed in `failures_at` (ascending).
    ///
    /// The loop itself is the shared scheduler kernel's: the chain is
    /// one [`hvft_sim::sched::Component`] whose clock is its round
    /// number, advanced one round per scheduling decision.
    pub fn run(&mut self, failures_at: &[u64], max_epochs: u64) -> ChainResult {
        let mut rounds = ChainRounds {
            chain: self,
            failures_at: failures_at.to_vec(),
            next_failure: 0,
            failures: 0,
            max_epochs,
            budget: SimDuration::from_secs(10),
        };
        hvft_sim::sched::run_solo(&mut rounds)
    }

    fn result(&self, end: ChainEnd, failures: usize) -> ChainResult {
        let head = self.replicas[self.head].as_ref();
        ChainResult {
            end,
            epochs: self.epoch,
            failures,
            console: self.console.clone(),
            comparisons: self.lockstep.compared(),
            promotions: self.promotions.clone(),
            completion_time: head.map_or(SimDuration::ZERO, |r| r.guest.elapsed()),
            retired: head.map_or(0, |r| r.guest.cpu.retired()),
            replica_stats: self
                .replicas
                .iter()
                .map(|r| r.as_ref().map(|r| *r.guest.stats()).unwrap_or_default())
                .collect(),
        }
    }
}

/// One kernel component wrapping a chain run: the chain is
/// round-synchronous, so its "clock" is simply the round number, and
/// each `advance` injects due failstops and executes one epoch round.
struct ChainRounds<'a> {
    chain: &'a mut TChain,
    failures_at: Vec<u64>,
    next_failure: usize,
    failures: usize,
    max_epochs: u64,
    budget: SimDuration,
}

impl Component for ChainRounds<'_> {
    type Output = ChainResult;

    fn next_action_time(&self) -> Option<SimTime> {
        Some(SimTime::from_nanos(self.chain.epoch))
    }

    fn advance(&mut self) -> Option<ChainResult> {
        if self.chain.epoch >= self.max_epochs {
            return Some(self.chain.result(ChainEnd::EpochLimit, self.failures));
        }
        if let Some(&at) = self.failures_at.get(self.next_failure) {
            if self.chain.epoch >= at {
                self.next_failure += 1;
                self.failures += 1;
                if !self.chain.fail_primary() {
                    return Some(self.chain.result(ChainEnd::Exhausted, self.failures));
                }
            }
        }
        self.chain
            .step_epoch(self.budget)
            .map(|end| self.chain.result(end, self.failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::{build_image, dhrystone_source, hello_source, KernelConfig};

    fn image() -> Program {
        let kernel = KernelConfig {
            tick_period_us: 1000,
            tick_work: 2,
            ..KernelConfig::default()
        };
        build_image(&kernel, &dhrystone_source(1_500, 6)).unwrap()
    }

    fn chain(t: usize) -> TChain {
        let hv = HvConfig {
            epoch_len: 1024,
            ..HvConfig::default()
        };
        TChain::build(
            &image(),
            t,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        )
    }

    fn reference_code() -> u32 {
        let mut c = chain(1);
        match c.run(&[], 100_000).end {
            ChainEnd::Exit { code } => code,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failure_free_chain_stays_in_lockstep() {
        let mut c = chain(3);
        let r = c.run(&[], 100_000);
        assert!(matches!(r.end, ChainEnd::Exit { .. }), "{:?}", r.end);
        assert_eq!(c.live(), 4);
        assert_eq!(r.failures, 0);
        // Every boundary compared all four replicas.
        assert!(r.comparisons >= 3 * (r.epochs - 1), "{:?}", r.comparisons);
    }

    #[test]
    fn result_reports_the_acting_primarys_retired_count() {
        let mut c = chain(2);
        let r = c.run(&[3], 100_000);
        assert!(matches!(r.end, ChainEnd::Exit { .. }), "{:?}", r.end);
        let head = c.replicas[c.head].as_ref().expect("a live head");
        assert!(r.retired > 0);
        assert_eq!(r.retired, head.guest.cpu.retired());
    }

    #[test]
    fn tolerates_exactly_t_failures() {
        let code = reference_code();
        for t in 1..=3usize {
            let mut c = chain(t);
            // Fail one primary every 3 epochs, t times.
            let fails: Vec<u64> = (1..=t as u64).map(|k| k * 3).collect();
            let r = c.run(&fails, 100_000);
            match r.end {
                ChainEnd::Exit { code: got } => {
                    assert_eq!(
                        got, code,
                        "t={t}: survivor must produce the reference result"
                    )
                }
                other => panic!("t={t}: {other:?}"),
            }
            assert_eq!(r.failures, t);
            assert_eq!(c.live(), 1, "t={t}: exactly the survivor remains");
        }
    }

    #[test]
    fn both_protocol_variants_drive_the_chain_identically() {
        let img = image();
        let hv = HvConfig {
            epoch_len: 1024,
            ..HvConfig::default()
        };
        let run = |variant| {
            let mut c = TChain::build(&img, 2, CostModel::functional(), hv, variant);
            let r = c.run(&[4], 100_000);
            match r.end {
                ChainEnd::Exit { code } => (code, r.epochs),
                other => panic!("{variant:?}: {other:?}"),
            }
        };
        assert_eq!(run(ProtocolVariant::Old), run(ProtocolVariant::New));
    }

    #[test]
    fn t_plus_one_failures_exhaust_the_chain() {
        let mut c = chain(2);
        let r = c.run(&[1, 2, 3], 100_000);
        assert_eq!(r.end, ChainEnd::Exhausted);
        assert_eq!(r.failures, 3);
        assert_eq!(c.live(), 0);
    }

    #[test]
    fn console_output_hands_over_down_the_chain() {
        let kernel = KernelConfig {
            tick_period_us: 200,
            tick_work: 0,
            ..KernelConfig::default()
        };
        let img = build_image(&kernel, &hello_source("abcdefghij", 2)).unwrap();
        let hv = HvConfig {
            epoch_len: 256,
            ..HvConfig::default()
        };
        let mut c = TChain::build(&img, 2, CostModel::functional(), hv, ProtocolVariant::Old);
        let r = c.run(&[2, 4], 100_000);
        assert!(matches!(r.end, ChainEnd::Exit { code: 42 }), "{:?}", r.end);
        // Emitting replica indices never decrease (one-way promotions).
        let emitters: Vec<usize> = r.console.iter().map(|&(i, _)| i).collect();
        assert!(emitters.windows(2).all(|w| w[0] <= w[1]), "{emitters:?}");
        // Bytes remain an in-order subsequence of the message.
        let bytes: Vec<u8> = r.console.iter().map(|&(_, b)| b).collect();
        let mut it = b"abcdefghij".iter();
        assert!(bytes.iter().all(|b| it.any(|m| m == b)), "{bytes:?}");
    }

    #[test]
    fn divergence_is_detected_across_the_chain() {
        let hv = HvConfig {
            epoch_len: 1024,
            tlb_managed: false,
            tlb_slots: 4,
            ..HvConfig::default()
        };
        let mut c = TChain::build(
            &image(),
            2,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        );
        let r = c.run(&[], 100_000);
        assert!(
            matches!(r.end, ChainEnd::Diverged { .. }),
            "unmanaged random TLBs must diverge somewhere in the chain: {:?}",
            r.end
        );
    }

    #[test]
    #[should_panic(expected = "t >= 1")]
    fn zero_backups_rejected() {
        let hv = HvConfig::default();
        let _ = TChain::build(
            &image(),
            0,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        );
    }
}
