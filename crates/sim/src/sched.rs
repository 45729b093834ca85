//! The shared scheduler kernel: one deterministic event-loop skeleton
//! for every driver in the workspace.
//!
//! Every driver in `hvft-core` used to hand-roll the same loop — "find
//! the earliest thing that can happen, do it, repeat" — twice over:
//! `FtSystem` arbitrated between its event sources and its hosts' guest
//! slices, and `FtCluster` interleaved whole systems in min-time order. Each copy
//! had to re-invent the same two invariants:
//!
//! 1. **Earliest first**: nothing may act before the globally earliest
//!    pending action (conservative discrete-event simulation);
//! 2. **FIFO-deterministic tie-breaking**: at equal times, whoever was
//!    registered (or offered) first acts first, so a run is exactly
//!    reproducible regardless of container iteration order.
//!
//! This module owns both invariants once:
//!
//! - [`Component`] + [`Scheduler`] drive a set of peers (cluster
//!   shards) in min-time order;
//! - [`Agenda`] arbitrates a single driver's heterogeneous event
//!   sources (deliveries, timers, failure schedules…) so the "what is
//!   next" and "do the next thing" answers can never disagree — they
//!   are one pick;
//! - [`conservative_budget`] computes how far a computation may run
//!   ahead of its peers (the lookahead rule that makes conservative
//!   co-simulation safe);
//! - [`run_solo`] is the degenerate one-component loop.
//!
//! # Examples
//!
//! ```
//! use hvft_sim::sched::{Component, Scheduler};
//! use hvft_sim::time::SimTime;
//!
//! /// A counter that acts at times `start, start+2, …` and finishes
//! /// after `n` actions.
//! struct Ticker { next: u64, left: u32, fired: Vec<u64> }
//!
//! impl Component for Ticker {
//!     type Output = Vec<u64>;
//!     fn next_action_time(&self) -> Option<SimTime> {
//!         (self.left > 0).then(|| SimTime::from_nanos(self.next))
//!     }
//!     fn advance(&mut self) -> Option<Vec<u64>> {
//!         self.fired.push(self.next);
//!         self.next += 2;
//!         self.left -= 1;
//!         (self.left == 0).then(|| std::mem::take(&mut self.fired))
//!     }
//! }
//!
//! let mut sched = Scheduler::new();
//! sched.add(Ticker { next: 0, left: 2, fired: vec![] });
//! sched.add(Ticker { next: 1, left: 2, fired: vec![] });
//! let outputs = sched.run();
//! // Interleaved in global time order: 0, 1, 2, 3.
//! assert_eq!(outputs, vec![vec![0, 2], vec![1, 3]]);
//! ```

use crate::time::{SimDuration, SimTime};

/// One schedulable peer in a [`Scheduler`]: a component announces when
/// it can next act, and `advance` performs exactly one scheduling
/// decision's worth of work.
pub trait Component {
    /// What the component yields when its run completes.
    type Output;

    /// The earliest instant this component can act. `None` means the
    /// component cannot make progress on its own — it is finished (or
    /// deadlocked) and its next [`Component::advance`] must produce the
    /// output without moving time.
    fn next_action_time(&self) -> Option<SimTime>;

    /// Performs the component's earliest action. Returns `Some(output)`
    /// once the component's run is over.
    fn advance(&mut self) -> Option<Self::Output>;
}

/// Drives a set of [`Component`]s on one conservative schedule: every
/// step advances the unfinished component with the smallest
/// [`Component::next_action_time`], ties broken by registration order
/// (FIFO), so multi-component runs are exactly reproducible.
///
/// A component reporting `None` is treated as due *now*
/// ([`SimTime::ZERO`]): it is advanced immediately so it can surrender
/// its output instead of wedging the schedule.
pub struct Scheduler<C: Component> {
    components: Vec<C>,
    outputs: Vec<Option<C::Output>>,
}

impl<C: Component> Default for Scheduler<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Component> Scheduler<C> {
    /// An empty schedule.
    pub fn new() -> Self {
        Scheduler {
            components: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Registers a component; returns its index. Registration order is
    /// the tie-breaking priority at equal action times.
    pub fn add(&mut self, c: C) -> usize {
        self.components.push(c);
        self.outputs.push(None);
        self.components.len() - 1
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Shared access to component `i`.
    pub fn component(&self, i: usize) -> &C {
        &self.components[i]
    }

    /// Exclusive access to component `i` (external drivers that manage
    /// their own advancement, e.g. a parallel executor, mutate through
    /// this and report completion via [`Scheduler::record`]).
    pub fn component_mut(&mut self, i: usize) -> &mut C {
        &mut self.components[i]
    }

    /// Iterates over all components in registration order.
    pub fn components(&self) -> impl Iterator<Item = &C> {
        self.components.iter()
    }

    /// Whether component `i` has produced its output.
    pub fn is_finished(&self, i: usize) -> bool {
        self.outputs[i].is_some()
    }

    /// The index of the unfinished component that must act next —
    /// smallest [`Component::next_action_time`] (`None` counts as
    /// [`SimTime::ZERO`]), FIFO tie-break — or `None` when every
    /// component has finished.
    pub fn pick(&self) -> Option<usize> {
        let mut pick: Option<(SimTime, usize)> = None;
        for (i, c) in self.components.iter().enumerate() {
            if self.outputs[i].is_some() {
                continue;
            }
            let t = c.next_action_time().unwrap_or(SimTime::ZERO);
            if pick.is_none_or(|(pt, _)| t < pt) {
                pick = Some((t, i));
            }
        }
        pick.map(|(_, i)| i)
    }

    /// Advances the picked component by one scheduling decision.
    /// Returns the index it advanced, or `None` when all are finished.
    pub fn step(&mut self) -> Option<usize> {
        let i = self.pick()?;
        if let Some(out) = self.components[i].advance() {
            self.outputs[i] = Some(out);
        }
        Some(i)
    }

    /// Records component `i`'s output on behalf of an external driver
    /// that advanced it through [`Scheduler::component_mut`].
    pub fn record(&mut self, i: usize, output: C::Output) {
        debug_assert!(self.outputs[i].is_none(), "component {i} already finished");
        self.outputs[i] = Some(output);
    }

    /// Runs every component to completion and returns the outputs in
    /// registration order.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn run(&mut self) -> Vec<C::Output> {
        assert!(!self.components.is_empty(), "empty schedule");
        while self.step().is_some() {}
        self.take_outputs()
    }

    /// Removes and returns every output, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if any component has not finished.
    pub fn take_outputs(&mut self) -> Vec<C::Output> {
        self.outputs
            .iter_mut()
            .enumerate()
            .map(|(i, o)| {
                o.take()
                    .unwrap_or_else(|| panic!("component {i} unfinished"))
            })
            .collect()
    }
}

/// Runs a single component to completion — the degenerate one-peer
/// schedule ([`Component::advance`] already performs the earliest
/// action, so no arbitration is needed).
pub fn run_solo<C: Component>(c: &mut C) -> C::Output {
    loop {
        if let Some(out) = c.advance() {
            return out;
        }
    }
}

/// Deterministic arbitration among one driver's heterogeneous event
/// sources.
///
/// A driver offers each source's next due time (tagged with how to
/// dispatch it); [`Agenda::earliest`] returns the single earliest
/// offer, ties broken by offer order. Because the same pick answers
/// both "when is the next event" and "which event fires", the two can
/// never drift apart — the bug class the hand-rolled
/// `next_event_time`/`process_one_event` pairs had to guard against by
/// convention.
///
/// # Examples
///
/// ```
/// use hvft_sim::sched::Agenda;
/// use hvft_sim::time::SimTime;
///
/// let mut a = Agenda::new();
/// a.offer(Some(SimTime::from_nanos(7)), "timer");
/// a.offer(None, "idle source");
/// a.offer(Some(SimTime::from_nanos(7)), "delivery");
/// // Equal times: the first-offered source wins.
/// assert_eq!(a.earliest(), Some((SimTime::from_nanos(7), &"timer")));
/// ```
pub struct Agenda<T> {
    /// The best offer so far. A later offer replaces it only on a
    /// *strictly* smaller time, which is exactly the first-offered-
    /// wins-ties rule — so no buffering is needed, and building an
    /// agenda allocates nothing (it sits in every driver's hot loop).
    best: Option<(SimTime, T)>,
}

impl<T> Default for Agenda<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Agenda<T> {
    /// An empty agenda.
    pub fn new() -> Self {
        Agenda { best: None }
    }

    /// Offers a source's next due time; `None` (idle source) is
    /// ignored. Offer order is the tie-breaking priority.
    pub fn offer(&mut self, time: Option<SimTime>, tag: T) {
        if let Some(t) = time {
            if self.best.as_ref().is_none_or(|&(bt, _)| t < bt) {
                self.best = Some((t, tag));
            }
        }
    }

    /// Whether any source is due.
    pub fn is_empty(&self) -> bool {
        self.best.is_none()
    }

    /// The earliest offer (first-offered wins ties).
    pub fn earliest(&self) -> Option<(SimTime, &T)> {
        self.best.as_ref().map(|(t, tag)| (*t, tag))
    }

    /// Consumes the agenda and returns the earliest offer by value.
    pub fn into_earliest(self) -> Option<(SimTime, T)> {
        self.best
    }
}

/// How long a computation at `now` may run before anything else could
/// possibly affect it: the earliest pending event, or any peer's clock
/// plus the communication `lookahead` (a peer cannot influence this
/// computation sooner than its own clock plus the minimum latency of
/// the medium between them). With no horizon at all, `idle_grain`
/// bounds the slice so external schedules stay responsive.
pub fn conservative_budget(
    now: SimTime,
    next_event: Option<SimTime>,
    peer_clocks: impl IntoIterator<Item = SimTime>,
    lookahead: SimDuration,
    idle_grain: SimDuration,
) -> SimDuration {
    let mut horizon = next_event.unwrap_or(SimTime::MAX);
    for c in peer_clocks {
        horizon = horizon.min(c.saturating_add(lookahead));
    }
    if horizon == SimTime::MAX {
        idle_grain
    } else {
        horizon - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Appends `(id, time)` pairs to a shared log; finishes after `n`.
    struct Logger {
        id: u8,
        times: Vec<u64>,
        at: usize,
        log: Vec<(u8, u64)>,
    }

    impl Component for Logger {
        type Output = Vec<(u8, u64)>;
        fn next_action_time(&self) -> Option<SimTime> {
            self.times.get(self.at).map(|&n| t(n))
        }
        fn advance(&mut self) -> Option<Self::Output> {
            let now = self.times[self.at];
            self.log.push((self.id, now));
            self.at += 1;
            (self.at == self.times.len()).then(|| std::mem::take(&mut self.log))
        }
    }

    fn logger(id: u8, times: Vec<u64>) -> Logger {
        Logger {
            id,
            times,
            at: 0,
            log: Vec::new(),
        }
    }

    #[test]
    fn components_interleave_in_global_time_order() {
        let mut s = Scheduler::new();
        s.add(logger(0, vec![5, 20]));
        s.add(logger(1, vec![1, 30]));
        let out = s.run();
        assert_eq!(out[0], vec![(0, 5), (0, 20)]);
        assert_eq!(out[1], vec![(1, 1), (1, 30)]);
    }

    #[test]
    fn ties_break_by_registration_order() {
        // Both components are due at the same instants; the pick must
        // always favour the first-registered one.
        let mut s = Scheduler::new();
        s.add(logger(0, vec![10, 10]));
        s.add(logger(1, vec![10, 10]));
        let mut order = Vec::new();
        while let Some(i) = s.step() {
            order.push(i);
        }
        assert_eq!(order, vec![0, 0, 1, 1]);
    }

    #[test]
    fn none_time_means_due_now() {
        struct Instant;
        impl Component for Instant {
            type Output = &'static str;
            fn next_action_time(&self) -> Option<SimTime> {
                None
            }
            fn advance(&mut self) -> Option<&'static str> {
                Some("done")
            }
        }
        let mut s = Scheduler::new();
        s.add(Instant);
        assert_eq!(s.run(), vec!["done"]);
    }

    #[test]
    fn record_marks_externally_driven_components_finished() {
        let mut s = Scheduler::new();
        s.add(logger(0, vec![1]));
        s.add(logger(1, vec![2]));
        s.record(1, vec![(9, 9)]);
        assert!(s.is_finished(1));
        assert_eq!(s.pick(), Some(0));
        while s.step().is_some() {}
        let out = s.take_outputs();
        assert_eq!(out[1], vec![(9, 9)]);
    }

    #[test]
    fn run_solo_loops_to_completion() {
        let mut l = logger(3, vec![1, 2, 3]);
        let out = run_solo(&mut l);
        assert_eq!(out, vec![(3, 1), (3, 2), (3, 3)]);
    }

    #[test]
    fn agenda_picks_earliest_with_offer_order_ties() {
        let mut a = Agenda::new();
        a.offer(Some(t(9)), 'a');
        a.offer(Some(t(3)), 'b');
        a.offer(None, 'c');
        a.offer(Some(t(3)), 'd');
        assert_eq!(a.earliest(), Some((t(3), &'b')));
        assert_eq!(a.into_earliest(), Some((t(3), 'b')));
    }

    #[test]
    fn empty_agenda_has_no_pick() {
        let a: Agenda<u8> = Agenda::new();
        assert!(a.is_empty());
        assert_eq!(a.earliest(), None);
    }

    #[test]
    fn conservative_budget_clamps_to_event_and_peers() {
        let la = SimDuration::from_nanos(10);
        let grain = SimDuration::from_millis(1);
        // Event horizon governs.
        assert_eq!(
            conservative_budget(t(100), Some(t(130)), [t(1000)], la, grain),
            SimDuration::from_nanos(30)
        );
        // Peer clock + lookahead governs.
        assert_eq!(
            conservative_budget(t(100), Some(t(900)), [t(150)], la, grain),
            SimDuration::from_nanos(60)
        );
        // No horizon at all: the idle grain bounds the slice.
        assert_eq!(conservative_budget(t(100), None, [], la, grain), grain);
    }
}
