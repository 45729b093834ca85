//! The replica-coordination engine: rules P1–P7 and the §4.3 revision
//! as pure state machines.
//!
//! This module is the single home of the paper's protocol logic. The
//! engines know nothing about discrete-event scheduling, channels,
//! devices, or [`hvft_hypervisor::hvguest::HvGuest`]: they consume
//! *events* (an epoch boundary was reached, a message arrived, a device
//! interrupt was raised, an acknowledgment came in, the failure
//! detector fired) and emit *effects* (send a message, assign the
//! clock, deliver buffered interrupts, start the next epoch, release a
//! held I/O). [`crate::system::FtSystem`] — the realistic DES with
//! modelled link timing, a shared disk and timeout failure detectors —
//! drives them, alone or as one shard of a
//! [`crate::cluster::FtCluster`] on a shared LAN.
//!
//! Because the engines never see the clock, *when* a primary dies does
//! not matter to them, only at which protocol step: a failstop
//! scheduled by simulated time, and one scheduled by epoch number at
//! the epochs that run's successors promoted at, produce the same
//! failover epochs and the same guest-visible result. The
//! engine-equivalence property test enforces exactly that.
//!
//! # Rules, by their paper names
//!
//! - **P1**: an interrupt arriving at the primary during epoch `E` is
//!   buffered for delivery at the end of `E` and forwarded as `[E, Int]`
//!   ([`ReplicaEngine::interrupt_raised`]);
//! - **P2**: at the end of epoch `E` the primary sends `[Tme_p]`,
//!   (original protocol) awaits acknowledgments for everything sent,
//!   delivers buffered interrupts, sends `[end, E]`, and starts `E + 1`
//!   ([`ReplicaEngine::boundary_reached`]);
//! - **P3**: interrupts destined for an unpromoted backup VM are
//!   ignored — realized here by backup I/O suppression, which is the
//!   driver's half of the contract;
//! - **P4**: the backup acknowledges and buffers `[E, Int]`
//!   ([`ReplicaEngine::message_received`]);
//! - **P5**: at the end of its epoch `E` the backup awaits `[Tme_p]`,
//!   assigns it, awaits `[end, E]`, delivers the epoch-`E` buffer, and
//!   starts `E + 1`;
//! - **P6**: if instead the failure detector fires, the backup delivers
//!   what it buffered and promotes itself
//!   ([`ReplicaEngine::promote_at_boundary`]);
//! - **P7**: I/O outstanding at the failover epoch gets a synthesized
//!   *uncertain* interrupt so the replayed driver retries;
//! - **§4.3 revision**: the boundary ack-wait of P2 is dropped;
//!   acknowledgments must instead be complete before the primary
//!   initiates any I/O ([`ReplicaEngine::io_requested`]).
//!
//! # The t-fault generalization
//!
//! The paper calls generalizing to `t` backups "straightforward"; the
//! engine makes the three ingredients explicit. A primary broadcasts to
//! every live backup with per-peer sequence numbers and treats "all
//! acknowledged" as *every* live peer having acknowledged. A backup
//! always acknowledges toward whichever replica most recently sent it a
//! sequenced message (promotion transfers that role). On promotion with
//! survivors, the new primary completes the failover epoch `E` the way
//! the old primary would have: it re-issues `[Tme_p]` for `E` only if
//! the dead primary never managed to send it (every live backup saw the
//! same message prefix — FIFO channels deliver a crashed sender's
//! in-flight messages), forwards a synthesized uncertain interrupt for
//! outstanding I/O so *all* survivors retire it at the same stream
//! point, and announces `[end, E]`.

use crate::config::ProtocolVariant;
use crate::messages::{DiskCompletion, ForwardedInterrupt, Message};
use hvft_devices::mmio;
use hvft_hypervisor::guest_iface::GuestCtl;
use hvft_hypervisor::vclock::VClock;
use hvft_machine::trap::irq;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a replica by its position in the chain order (0 is the
/// initial primary; backups follow in promotion order).
pub type ReplicaId = usize;

/// What an engine asks its driver to do.
///
/// Effects are emitted in the exact order they must be carried out;
/// message sends on one FIFO transport preserve that order on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Transmit `msg` to replica `to` (sequence number already stamped).
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The protocol message.
        msg: Message,
    },
    /// `Tme_b := Tme_p` — assign the received clock state (rule P5).
    AssignClock(VClock),
    /// Deliver the interval-timer interrupt if the virtual timer has
    /// expired ("interrupts based on Tme", rules P2/P5).
    DeliverTimer,
    /// Deliver one buffered interrupt into the guest; the driver also
    /// applies any device payload (disk status/data) it carries.
    DeliverInterrupt(ForwardedInterrupt),
    /// Rule P7 with no surviving backups: synthesize an uncertain
    /// completion for the replica's outstanding I/O.
    SynthesizeUncertain,
    /// Re-arm the recovery counter: the next epoch begins.
    StartEpoch,
    /// §4.3: acknowledgments completed; perform the held I/O now and
    /// complete the guest's stalled MMIO instruction.
    ResumeHeldIo,
}

/// Verdict of [`ReplicaEngine::io_requested`] (§4.3 gate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoGate {
    /// Perform the I/O immediately.
    Proceed,
    /// Hold the I/O; [`Effect::ResumeHeldIo`] will release it once all
    /// acknowledgments are in.
    Hold,
}

/// Details of a completed promotion (rules P6/P7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Promotion {
    /// The failover epoch (P6's `E`).
    pub epoch: u64,
    /// Whether P7 synthesized an uncertain interrupt.
    pub uncertain_synthesized: bool,
}

/// Protocol phase of one replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Guest instructions are executing.
    Running,
    /// Primary, original protocol: boundary of `epoch` reached, awaiting
    /// acknowledgments (rule P2).
    AwaitBoundaryAcks {
        /// The boundary's epoch.
        epoch: u64,
    },
    /// Primary, revised protocol: an I/O is held until acknowledgments
    /// complete (§4.3).
    AwaitIoAcks,
    /// Backup at the boundary of `epoch`, awaiting `[Tme_p]` (rule P5).
    AwaitTime {
        /// The boundary's epoch.
        epoch: u64,
    },
    /// Backup, clock assigned, awaiting `[end, epoch]` (rule P5).
    AwaitEnd {
        /// The boundary's epoch.
        epoch: u64,
    },
}

/// The pure protocol state machine for one replica.
///
/// A replica starts as the primary or as a backup and may switch role
/// exactly once per promotion; a `t`-fault system drives `t + 1` of
/// these, re-wiring roles as primaries failstop.
///
/// # Examples
///
/// One original-protocol epoch boundary between a primary and a
/// backup, the driver's message routing done by hand:
///
/// ```
/// use hvft_core::config::ProtocolVariant;
/// use hvft_core::protocol::{Effect, ReplicaEngine};
/// use hvft_hypervisor::vclock::VClock;
///
/// let mut primary = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
/// let mut backup = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
///
/// // The primary's guest reaches the end of epoch 0: [Tme] goes out
/// // and the boundary stalls awaiting its acknowledgment (rule P2).
/// let effects = primary.boundary_reached(0, VClock::new());
/// let Effect::Send { to: 1, msg } = &effects[0] else { unreachable!() };
/// assert!(!primary.is_running());
///
/// // The backup waits at its own boundary for [Tme] (rule P5), then
/// // assigns the clock and acknowledges.
/// assert!(backup.boundary_reached(0, VClock::new()).is_empty());
/// let replies = backup.message_received(0, msg.clone());
/// let Effect::Send { msg: ack, .. } = &replies[0] else { unreachable!() };
///
/// // The acknowledgment releases the primary into epoch 1.
/// let released = primary.message_received(1, ack.clone());
/// assert!(primary.is_running());
/// assert!(released.contains(&Effect::StartEpoch));
/// ```
#[derive(Clone, Debug)]
pub struct ReplicaEngine {
    id: ReplicaId,
    variant: ProtocolVariant,
    is_primary: bool,
    phase: Phase,
    /// Live backups, in chain order (primary role only).
    peers: Vec<ReplicaId>,
    /// Per-peer count of sequenced messages sent (primary role).
    next_seq: BTreeMap<ReplicaId, u64>,
    /// Per-peer highest cumulative acknowledgment received (primary).
    acked: BTreeMap<ReplicaId, u64>,
    /// The replica we acknowledge to (backup role): whoever most
    /// recently sent us a sequenced message.
    primary: ReplicaId,
    /// Highest sequence number received from the current primary.
    highest_recv: u64,
    /// `[Tme_p]` payloads received, by epoch (backup role).
    got_time: BTreeMap<u64, VClock>,
    /// `[end, E]` notices received (backup role).
    got_end: BTreeSet<u64>,
    /// Interrupts buffered for delivery, keyed by delivery epoch
    /// (rules P1/P4).
    buffered: BTreeMap<u64, Vec<ForwardedInterrupt>>,
}

impl ReplicaEngine {
    /// The engine for the initial primary, coordinating `peers` (the
    /// backups, in chain order).
    pub fn new_primary(id: ReplicaId, peers: Vec<ReplicaId>, variant: ProtocolVariant) -> Self {
        ReplicaEngine {
            id,
            variant,
            is_primary: true,
            phase: Phase::Running,
            peers,
            next_seq: BTreeMap::new(),
            acked: BTreeMap::new(),
            primary: id,
            highest_recv: 0,
            got_time: BTreeMap::new(),
            got_end: BTreeSet::new(),
            buffered: BTreeMap::new(),
        }
    }

    /// The engine for a backup acknowledging toward `primary`.
    pub fn new_backup(id: ReplicaId, primary: ReplicaId, variant: ProtocolVariant) -> Self {
        ReplicaEngine {
            id,
            variant,
            is_primary: false,
            phase: Phase::Running,
            peers: Vec::new(),
            next_seq: BTreeMap::new(),
            acked: BTreeMap::new(),
            primary,
            highest_recv: 0,
            got_time: BTreeMap::new(),
            got_end: BTreeSet::new(),
            buffered: BTreeMap::new(),
        }
    }

    /// This replica's chain position.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Whether this replica currently acts as the primary.
    pub fn is_primary(&self) -> bool {
        self.is_primary
    }

    /// Whether guest instructions may execute right now.
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// Whether the replica is a backup waiting at an epoch boundary
    /// (the states from which rule P6 may promote it).
    pub fn is_waiting_backup(&self) -> bool {
        matches!(self.phase, Phase::AwaitTime { .. } | Phase::AwaitEnd { .. })
    }

    /// Whether a §4.3 held I/O is pending acknowledgment completion.
    pub fn holds_io(&self) -> bool {
        self.phase == Phase::AwaitIoAcks
    }

    /// Live backups this primary coordinates (empty for backups).
    pub fn peers(&self) -> &[ReplicaId] {
        &self.peers
    }

    fn all_acked(&self) -> bool {
        self.peers.iter().all(|p| {
            self.acked.get(p).copied().unwrap_or(0) >= self.next_seq.get(p).copied().unwrap_or(0)
        })
    }

    /// Stamps and queues one sequenced message per live peer.
    fn broadcast(&mut self, effects: &mut Vec<Effect>, make: impl Fn(u64) -> Message) {
        for &to in &self.peers {
            let seq = self.next_seq.entry(to).or_insert(0);
            *seq += 1;
            effects.push(Effect::Send {
                to,
                msg: make(*seq),
            });
        }
    }

    // -----------------------------------------------------------------
    // Boundary processing (rules P2 and P5)
    // -----------------------------------------------------------------

    /// The replica's guest reached the end of `epoch`; `vclock` is its
    /// clock snapshot at the boundary (used by the primary's `[Tme_p]`).
    pub fn boundary_reached(&mut self, epoch: u64, vclock: VClock) -> Vec<Effect> {
        debug_assert_eq!(self.phase, Phase::Running, "boundary while not running");
        if self.is_primary {
            let mut effects = Vec::new();
            if !self.peers.is_empty() {
                self.broadcast(&mut effects, |seq| Message::Time { seq, epoch, vclock });
                if self.variant == ProtocolVariant::Old && !self.all_acked() {
                    self.phase = Phase::AwaitBoundaryAcks { epoch };
                    return effects;
                }
            }
            self.finish_boundary(epoch, &mut effects);
            effects
        } else {
            self.phase = Phase::AwaitTime { epoch };
            self.try_advance()
        }
    }

    /// Rule P2, second half: deliver, announce, start the next epoch.
    fn finish_boundary(&mut self, epoch: u64, effects: &mut Vec<Effect>) {
        effects.push(Effect::DeliverTimer);
        for fwd in self.buffered.remove(&epoch).unwrap_or_default() {
            effects.push(Effect::DeliverInterrupt(fwd));
        }
        if !self.peers.is_empty() {
            self.broadcast(effects, |seq| Message::EpochEnd { seq, epoch });
        }
        effects.push(Effect::StartEpoch);
        self.phase = Phase::Running;
    }

    /// Rule P5's waiting sequence, re-evaluated whenever state changes.
    fn try_advance(&mut self) -> Vec<Effect> {
        let mut effects = Vec::new();
        loop {
            match self.phase {
                Phase::AwaitTime { epoch } => {
                    let Some(vc) = self.got_time.remove(&epoch) else {
                        return effects;
                    };
                    effects.push(Effect::AssignClock(vc));
                    self.phase = Phase::AwaitEnd { epoch };
                }
                Phase::AwaitEnd { epoch } if self.got_end.remove(&epoch) => {
                    effects.push(Effect::DeliverTimer);
                    for fwd in self.buffered.remove(&epoch).unwrap_or_default() {
                        effects.push(Effect::DeliverInterrupt(fwd));
                    }
                    effects.push(Effect::StartEpoch);
                    self.phase = Phase::Running;
                    return effects;
                }
                _ => return effects,
            }
        }
    }

    // -----------------------------------------------------------------
    // Messages (rules P2/P4 and acknowledgments)
    // -----------------------------------------------------------------

    /// A protocol message arrived from replica `from`.
    ///
    /// Sequenced messages are *resend-tolerant*: a message whose
    /// sequence number was already received (a retransmission whose
    /// original, or whose acknowledgment, the lossy network dropped) is
    /// re-acknowledged but changes no protocol state, so a driver may
    /// replay `[E, Int]`, `[Tme_p]` or `[end, E]` any number of times
    /// without double-buffering an interrupt or re-assigning a clock.
    pub fn message_received(&mut self, from: ReplicaId, msg: Message) -> Vec<Effect> {
        if let Some(seq) = msg.seq() {
            if self.is_duplicate(from, seq) {
                return vec![self.ack(from, seq)];
            }
        }
        match msg {
            Message::Ack { upto } => {
                let slot = self.acked.entry(from).or_insert(0);
                *slot = (*slot).max(upto);
                self.resume_if_acked()
            }
            Message::Interrupt {
                seq,
                epoch,
                interrupt,
            } => {
                let mut effects = vec![self.ack(from, seq)];
                self.buffered.entry(epoch).or_default().push(interrupt);
                effects.extend(self.try_advance());
                effects
            }
            Message::Time { seq, epoch, vclock } => {
                let mut effects = vec![self.ack(from, seq)];
                self.got_time.insert(epoch, vclock);
                effects.extend(self.try_advance());
                effects
            }
            Message::EpochEnd { seq, epoch } => {
                let mut effects = vec![self.ack(from, seq)];
                self.got_end.insert(epoch);
                effects.extend(self.try_advance());
                effects
            }
            Message::StateChunk { .. } => {
                // State-transfer chunks are driver traffic: the driver
                // intercepts them before the engine and restores the
                // replica itself. A stray chunk (e.g. one still in
                // flight from a primary that since died) is protocol
                // no-op.
                Vec::new()
            }
        }
    }

    /// Whether a sequenced message from `from` was already processed.
    /// A message from a *new* sender is never a duplicate — a new
    /// primary's sequence space starts fresh.
    fn is_duplicate(&self, from: ReplicaId, seq: u64) -> bool {
        from == self.primary && seq <= self.highest_recv
    }

    /// Cumulatively acknowledges everything received from the sender;
    /// a sequenced message from a *new* sender means a new primary has
    /// taken over (its sequence space starts fresh).
    fn ack(&mut self, from: ReplicaId, seq: u64) -> Effect {
        if from != self.primary {
            self.primary = from;
            self.highest_recv = 0;
        }
        self.highest_recv = self.highest_recv.max(seq);
        Effect::Send {
            to: self.primary,
            msg: Message::Ack {
                upto: self.highest_recv,
            },
        }
    }

    /// Resumes a primary stalled on acknowledgments, if they are in.
    fn resume_if_acked(&mut self) -> Vec<Effect> {
        if !self.all_acked() {
            return Vec::new();
        }
        match self.phase {
            Phase::AwaitBoundaryAcks { epoch } => {
                let mut effects = Vec::new();
                self.finish_boundary(epoch, &mut effects);
                effects
            }
            Phase::AwaitIoAcks => {
                self.phase = Phase::Running;
                vec![Effect::ResumeHeldIo]
            }
            _ => Vec::new(),
        }
    }

    /// A live peer failstopped or finished: stop counting it toward the
    /// acknowledgment condition (may resume a stalled primary).
    pub fn remove_peer(&mut self, peer: ReplicaId) -> Vec<Effect> {
        self.peers.retain(|&p| p != peer);
        if self.is_primary {
            self.resume_if_acked()
        } else {
            Vec::new()
        }
    }

    /// Reintegration: a repaired replica rejoins the chain as a live
    /// backup. Called by the driver at the epoch boundary whose
    /// snapshot the rejoiner restores, *before* that boundary's
    /// `[Tme]`/`[end]` broadcast, so the new peer receives the complete
    /// boundary sequence over a fresh sequence space.
    ///
    /// Interrupts currently buffered at this primary were broadcast
    /// while the rejoiner was dead; its restored state expects them
    /// (the snapshot predates their delivery), so they are re-forwarded
    /// as freshly sequenced `[E, Int]` messages — without this the
    /// rejoiner would miss a delivery and diverge one epoch later.
    pub fn add_peer(&mut self, peer: ReplicaId) -> Vec<Effect> {
        debug_assert!(self.is_primary, "only the acting primary admits peers");
        if !self.peers.contains(&peer) {
            self.peers.push(peer);
            self.peers.sort_unstable();
        }
        self.next_seq.insert(peer, 0);
        self.acked.insert(peer, 0);
        let mut effects = Vec::new();
        let pending: Vec<(u64, Vec<ForwardedInterrupt>)> =
            self.buffered.iter().map(|(&e, v)| (e, v.clone())).collect();
        for (epoch, fwds) in pending {
            for interrupt in fwds {
                let seq = self.next_seq.entry(peer).or_insert(0);
                *seq += 1;
                effects.push(Effect::Send {
                    to: peer,
                    msg: Message::Interrupt {
                        seq: *seq,
                        epoch,
                        interrupt,
                    },
                });
            }
        }
        effects
    }

    // -----------------------------------------------------------------
    // Interrupts (rule P1) and I/O (§4.3)
    // -----------------------------------------------------------------

    /// The epoch tag for an interrupt received now (P1's `E`):
    /// interrupts arriving while boundary processing for `E` is under
    /// way belong to `E + 1`.
    fn interrupt_epoch(&self, guest_epoch: u64) -> u64 {
        match self.phase {
            Phase::AwaitBoundaryAcks { epoch } => epoch + 1,
            _ => guest_epoch,
        }
    }

    /// Rule P1: a device interrupt was raised at the acting primary
    /// while its guest is at epoch `guest_epoch`. Buffers it locally
    /// and forwards `[E, Int]` to every live backup.
    pub fn interrupt_raised(&mut self, guest_epoch: u64, fwd: ForwardedInterrupt) -> Vec<Effect> {
        debug_assert!(self.is_primary, "interrupts are buffered at the primary");
        let epoch = self.interrupt_epoch(guest_epoch);
        self.buffered.entry(epoch).or_default().push(fwd.clone());
        let mut effects = Vec::new();
        self.broadcast(&mut effects, |seq| Message::Interrupt {
            seq,
            epoch,
            interrupt: fwd.clone(),
        });
        effects
    }

    /// §4.3: may the primary initiate an externally visible I/O right
    /// now? Under the revised protocol every coordination message must
    /// be acknowledged first — I/O is the only way VM state is revealed.
    pub fn io_requested(&mut self) -> IoGate {
        debug_assert!(self.is_primary, "only the primary performs I/O");
        if self.variant == ProtocolVariant::New && !self.peers.is_empty() && !self.all_acked() {
            self.phase = Phase::AwaitIoAcks;
            IoGate::Hold
        } else {
            IoGate::Proceed
        }
    }

    // -----------------------------------------------------------------
    // Promotion (rules P6/P7)
    // -----------------------------------------------------------------

    /// Rules P6 + P7: the failure detector fired while this backup was
    /// waiting at an epoch boundary. `vclock` is the replica's own
    /// clock snapshot, `outstanding_io` whether a device operation is
    /// still in flight, and `survivors` the remaining live backups in
    /// chain order.
    ///
    /// With no survivors (the paper's 1-fault prototype) everything
    /// buffered is delivered and outstanding I/O gets a locally
    /// synthesized uncertain interrupt. With survivors, the new primary
    /// instead *completes the failover epoch as a primary*: the
    /// uncertain interrupt is forwarded like any other so every replica
    /// retires it at the same instruction-stream point, `[Tme_p]` is
    /// re-issued only if the dead primary never sent it, and `[end, E]`
    /// closes the epoch.
    pub fn promote_at_boundary(
        &mut self,
        vclock: VClock,
        outstanding_io: bool,
        survivors: Vec<ReplicaId>,
    ) -> (Vec<Effect>, Promotion) {
        let (epoch, time_already_assigned) = match self.phase {
            Phase::AwaitTime { epoch } => (epoch, false),
            Phase::AwaitEnd { epoch } => (epoch, true),
            other => unreachable!("promotion outside a waiting state: {other:?}"),
        };
        self.is_primary = true;
        self.peers = survivors;
        let mut effects = Vec::new();
        let mut synthesized = false;
        if self.peers.is_empty() {
            // No replica is left to stay in step with: deliver the
            // boundary epoch (with its timer check), then drain every
            // other buffered epoch — holding epoch-tagged completions
            // any longer would only delay the driver.
            effects.push(Effect::DeliverTimer);
            for fwd in self.buffered.remove(&epoch).unwrap_or_default() {
                effects.push(Effect::DeliverInterrupt(fwd));
            }
            let later: Vec<u64> = self.buffered.keys().copied().collect();
            for e in later {
                for fwd in self.buffered.remove(&e).unwrap_or_default() {
                    effects.push(Effect::DeliverInterrupt(fwd));
                }
            }
            if outstanding_io {
                effects.push(Effect::SynthesizeUncertain);
                synthesized = true;
            }
            effects.push(Effect::StartEpoch);
            self.phase = Phase::Running;
        } else {
            // Survivors remain: finish epoch `E` the way the dead
            // primary would have. Every live backup received the same
            // message prefix, so `[Tme_p]` is re-sent exactly when
            // nobody has it.
            if outstanding_io {
                let fwd = ForwardedInterrupt {
                    irq_bits: irq::DISK,
                    disk: Some(DiskCompletion {
                        status: mmio::disk_status::UNCERTAIN,
                        data: None,
                    }),
                };
                self.buffered.entry(epoch).or_default().push(fwd.clone());
                self.broadcast(&mut effects, |seq| Message::Interrupt {
                    seq,
                    epoch,
                    interrupt: fwd.clone(),
                });
                synthesized = true;
            }
            if !time_already_assigned {
                effects.push(Effect::AssignClock(vclock));
                self.broadcast(&mut effects, |seq| Message::Time { seq, epoch, vclock });
            }
            self.finish_boundary(epoch, &mut effects);
        }
        (
            effects,
            Promotion {
                epoch,
                uncertain_synthesized: synthesized,
            },
        )
    }
}

/// Applies the guest-local part of an effect through the narrow
/// [`GuestCtl`] surface. Driver-specific parts — transmitting
/// [`Effect::Send`], device payloads of [`Effect::DeliverInterrupt`],
/// performing held I/O — remain the driver's job.
pub fn apply_to_guest<G: GuestCtl>(effect: &Effect, guest: &mut G) {
    match effect {
        Effect::AssignClock(vc) => guest.vclock_assign(*vc),
        Effect::DeliverTimer => {
            if guest.timer_expired() {
                guest.assert_irq(irq::TIMER);
            }
        }
        Effect::DeliverInterrupt(fwd) => guest.assert_irq(fwd.irq_bits),
        Effect::StartEpoch => guest.begin_epoch(),
        Effect::Send { .. } | Effect::SynthesizeUncertain | Effect::ResumeHeldIo => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VClock {
        VClock::new()
    }

    fn sends(effects: &[Effect]) -> Vec<(ReplicaId, &Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Routes every Send effect to its destination engine, to a
    /// fixpoint; returns the non-Send effects each engine emitted.
    fn pump(engines: &mut [ReplicaEngine], initial: Vec<(ReplicaId, Effect)>) -> Vec<Vec<Effect>> {
        let mut local: Vec<Vec<Effect>> = engines.iter().map(|_| Vec::new()).collect();
        let mut queue: Vec<(ReplicaId, ReplicaId, Message)> = Vec::new();
        for (from, e) in initial {
            match e {
                Effect::Send { to, msg } => queue.push((from, to, msg)),
                other => local[from].push(other),
            }
        }
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            for e in engines[to].message_received(from, msg) {
                match e {
                    Effect::Send { to: t2, msg } => queue.push((to, t2, msg)),
                    other => local[to].push(other),
                }
            }
        }
        local
    }

    #[test]
    fn old_protocol_full_epoch_cycle() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);

        // Primary hits the boundary first: sends [Tme], then stalls on
        // the acknowledgment (rule P2, original protocol).
        let pe = p.boundary_reached(0, vc());
        assert_eq!(sends(&pe).len(), 1);
        assert!(matches!(sends(&pe)[0].1, Message::Time { epoch: 0, .. }));
        assert!(!p.is_running(), "P2 waits for acks before finishing");

        // Backup reaches its boundary: waits for [Tme].
        let be = b.boundary_reached(0, vc());
        assert!(be.is_empty());
        assert!(b.is_waiting_backup());

        // Deliver [Tme] to the backup: it acks and assigns.
        let [(_, time)] = sends(&pe)[..] else {
            panic!()
        };
        let be = b.message_received(0, time.clone());
        assert!(matches!(
            be[0],
            Effect::Send {
                to: 0,
                msg: Message::Ack { upto: 1 }
            }
        ));
        assert!(be.contains(&Effect::AssignClock(vc())));

        // The ack releases the primary: deliver + [end] + next epoch.
        let ack = match &be[0] {
            Effect::Send { msg, .. } => msg.clone(),
            _ => panic!(),
        };
        let pe = p.message_received(1, ack);
        assert!(pe.contains(&Effect::DeliverTimer));
        assert!(pe.contains(&Effect::StartEpoch));
        assert!(p.is_running());
        let end = sends(&pe)
            .into_iter()
            .find(|(_, m)| matches!(m, Message::EpochEnd { .. }))
            .expect("[end, 0] must be announced")
            .1
            .clone();

        // [end] lets the backup start the next epoch.
        let be = b.message_received(0, end);
        assert!(be.iter().any(|e| matches!(e, Effect::StartEpoch)));
        assert!(b.is_running());
    }

    #[test]
    fn new_protocol_gates_io_not_boundaries() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::New);
        // The boundary does not wait even though nothing is acked yet.
        let pe = p.boundary_reached(0, vc());
        assert!(p.is_running(), "§4.3 drops the boundary ack-wait");
        assert!(pe.contains(&Effect::StartEpoch));
        // But I/O is gated until the outstanding [Tme]/[end] are acked.
        assert_eq!(p.io_requested(), IoGate::Hold);
        assert!(p.holds_io());
        // The cumulative ack for both messages releases it.
        let pe = p.message_received(1, Message::Ack { upto: 2 });
        assert_eq!(pe, vec![Effect::ResumeHeldIo]);
        assert!(p.is_running());
        // With everything acked, further I/O proceeds immediately.
        assert_eq!(p.io_requested(), IoGate::Proceed);
    }

    #[test]
    fn boundary_interrupts_tag_the_next_epoch() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
        let _ = p.boundary_reached(3, vc());
        assert!(!p.is_running(), "stalled on acks");
        let fwd = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: None,
        };
        let effects = p.interrupt_raised(3, fwd);
        match sends(&effects)[0].1 {
            Message::Interrupt { epoch, .. } => assert_eq!(
                *epoch, 4,
                "interrupts during boundary processing of E belong to E+1"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn promotion_without_survivors_flushes_everything() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        // Buffer interrupts for the boundary epoch and a later epoch.
        let f0 = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: None,
        };
        let f1 = ForwardedInterrupt {
            irq_bits: irq::TIMER,
            disk: None,
        };
        let _ = b.message_received(
            0,
            Message::Interrupt {
                seq: 1,
                epoch: 2,
                interrupt: f0.clone(),
            },
        );
        let _ = b.message_received(
            0,
            Message::Interrupt {
                seq: 2,
                epoch: 3,
                interrupt: f1.clone(),
            },
        );
        let _ = b.boundary_reached(2, vc());
        let (effects, promo) = b.promote_at_boundary(vc(), true, Vec::new());
        assert!(b.is_primary() && b.is_running());
        assert_eq!(
            promo,
            Promotion {
                epoch: 2,
                uncertain_synthesized: true
            }
        );
        // Both buffers delivered, uncertain synthesized, epoch started.
        assert!(effects.contains(&Effect::DeliverInterrupt(f0)));
        assert!(effects.contains(&Effect::DeliverInterrupt(f1)));
        assert!(effects.contains(&Effect::SynthesizeUncertain));
        assert_eq!(effects.last(), Some(&Effect::StartEpoch));
    }

    #[test]
    fn promotion_with_survivors_resends_time_only_if_missing() {
        // Case 1: promoted from AwaitTime — nobody got [Tme, E]; the new
        // primary must issue it.
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = b.boundary_reached(5, vc());
        let (effects, promo) = b.promote_at_boundary(vc(), false, vec![2]);
        assert_eq!(promo.epoch, 5);
        let msgs: Vec<_> = sends(&effects);
        assert!(
            msgs.iter()
                .any(|(to, m)| *to == 2 && matches!(m, Message::Time { epoch: 5, .. })),
            "[Tme] re-issued to the survivor: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|(_, m)| matches!(m, Message::EpochEnd { epoch: 5, .. })),
            "[end, 5] closes the failover epoch"
        );
        assert!(b.is_running());

        // Case 2: promoted from AwaitEnd — [Tme, E] was already
        // broadcast by the dead primary; only [end] goes out.
        let mut c = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = c.boundary_reached(7, vc());
        let _ = c.message_received(
            0,
            Message::Time {
                seq: 1,
                epoch: 7,
                vclock: vc(),
            },
        );
        assert!(c.is_waiting_backup());
        let (effects, _) = c.promote_at_boundary(vc(), false, vec![2]);
        let msgs = sends(&effects);
        assert!(
            !msgs.iter().any(|(_, m)| matches!(m, Message::Time { .. })),
            "already-assigned [Tme] must not be re-sent: {msgs:?}"
        );
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, Message::EpochEnd { epoch: 7, .. })));
    }

    #[test]
    fn promotion_with_survivors_forwards_the_uncertain_interrupt() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::New);
        let _ = b.boundary_reached(4, vc());
        let (effects, promo) = b.promote_at_boundary(vc(), true, vec![2, 3]);
        assert!(promo.uncertain_synthesized);
        // The uncertain completion travels as [E, Int] to every
        // survivor AND is delivered locally at the boundary.
        let ints: Vec<_> = sends(&effects)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::Interrupt { epoch: 4, .. }))
            .collect();
        assert_eq!(ints.len(), 2, "one copy per survivor");
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::DeliverInterrupt(f) if f.disk.as_ref().is_some_and(|d| d.status == mmio::disk_status::UNCERTAIN)
        )));
        assert!(!effects.contains(&Effect::SynthesizeUncertain));
    }

    #[test]
    fn t2_primary_needs_every_backup_ack() {
        let mut p = ReplicaEngine::new_primary(0, vec![1, 2], ProtocolVariant::Old);
        let mut b1 = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let mut b2 = ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old);
        let pe = p.boundary_reached(0, vc());
        assert_eq!(sends(&pe).len(), 2, "[Tme] broadcast to both backups");
        assert!(!p.is_running());
        // One ack is not enough.
        let _ = b1.message_received(0, sends(&pe)[0].1.clone());
        let pe2 = p.message_received(1, Message::Ack { upto: 1 });
        assert!(pe2.is_empty() && !p.is_running());
        // The second releases the boundary.
        let _ = b2.message_received(0, sends(&pe)[1].1.clone());
        let pe3 = p.message_received(2, Message::Ack { upto: 1 });
        assert!(pe3.contains(&Effect::StartEpoch));
        assert!(p.is_running());
    }

    #[test]
    fn a_full_t2_epoch_round_trips_through_the_pump() {
        let mut engines = vec![
            ReplicaEngine::new_primary(0, vec![1, 2], ProtocolVariant::Old),
            ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old),
            ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old),
        ];
        let mut initial = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            for e in engine.boundary_reached(0, vc()) {
                initial.push((i, e));
            }
        }
        let locals = pump(&mut engines, initial);
        for (i, engine) in engines.iter().enumerate() {
            assert!(engine.is_running(), "replica {i} stuck: {engine:?}");
            assert!(
                locals[i].contains(&Effect::StartEpoch),
                "replica {i} never started epoch 1: {:?}",
                locals[i]
            );
        }
    }

    #[test]
    fn duplicate_messages_reack_without_state_changes() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let int = Message::Interrupt {
            seq: 1,
            epoch: 0,
            interrupt: ForwardedInterrupt {
                irq_bits: irq::DISK,
                disk: None,
            },
        };
        let _ = b.message_received(0, int.clone());
        // The retransmitted copy must be acked but not re-buffered.
        let effects = b.message_received(0, int);
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: 0,
                msg: Message::Ack { upto: 1 }
            }],
            "a duplicate produces exactly a re-ack"
        );
        let _ = b.boundary_reached(0, vc());
        let time = Message::Time {
            seq: 2,
            epoch: 0,
            vclock: vc(),
        };
        let first = b.message_received(0, time.clone());
        assert!(first.contains(&Effect::AssignClock(vc())));
        let second = b.message_received(0, time);
        assert!(
            !second.contains(&Effect::AssignClock(vc())),
            "a duplicate [Tme] must not re-assign the clock: {second:?}"
        );
        // Delivery of [end, 0] releases exactly one buffered interrupt.
        let effects = b.message_received(0, Message::EpochEnd { seq: 3, epoch: 0 });
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, Effect::DeliverInterrupt(_)))
            .count();
        assert_eq!(delivered, 1, "the duplicate was not double-buffered");
    }

    #[test]
    fn backup_switches_allegiance_to_a_new_primary() {
        let mut b = ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old);
        let _ = b.message_received(0, Message::EpochEnd { seq: 9, epoch: 0 });
        assert_eq!(b.highest_recv, 9);
        // Replica 1 promoted and starts its own sequence space.
        let effects = b.message_received(1, Message::EpochEnd { seq: 1, epoch: 1 });
        match &effects[0] {
            Effect::Send {
                to,
                msg: Message::Ack { upto },
            } => {
                assert_eq!(*to, 1, "acks go to the new primary");
                assert_eq!(*upto, 1, "sequence tracking restarted");
            }
            other => panic!("{other:?}"),
        }
    }
}
