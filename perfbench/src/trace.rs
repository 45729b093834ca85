//! The benchmark's own tracer: spans around the public calls it makes
//! into each layer, and the protocol events the `Observer` hooks report,
//! kept in memory and written out when the benchmark ends.

use hvft::core::observer::{DropReason, Observer};
use hvft::core::system::FailoverInfo;
use hvft::sim::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// A timed interval around one call.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Host ns since the tracer started.
    pub start_ns: u64,
    /// Host ns since the tracer started (`start_ns` while open).
    pub end_ns: u64,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
    /// Which run of the benchmark the span belongs to.
    pub run: u32,
    /// Which shard (system) it concerns, if one.
    pub shard: Option<usize>,
}

impl Span {
    /// Host duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A protocol event announced by an `Observer` hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ev {
    /// A replica reached an epoch boundary.
    Boundary,
    /// A backup promoted itself.
    Failover,
    /// A frame went onto the medium towards `to`.
    Sent {
        /// Receiving replica.
        to: usize,
        /// Frame size.
        bytes: usize,
    },
    /// A frame was lost to loss injection (`true`) or a severed link.
    Dropped(bool),
    /// Unacknowledged frames were re-sent.
    Retransmit(usize),
    /// A receiver discarded a duplicate.
    Suppressed,
    /// An interrupt was delivered into a guest.
    Irq,
    /// A reintegration snapshot was taken.
    Snapshot,
    /// A repaired replica rejoined.
    Reintegrated,
}

/// One instant event, attributed to the span open when it fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The event.
    pub ev: Ev,
    /// Shard the observer is attached to.
    pub shard: usize,
    /// Replica (chain position) the hook named first.
    pub replica: usize,
    /// Simulated time of the event, ns.
    pub sim_ns: u64,
    /// Host ns since the tracer started.
    pub wall_ns: u64,
    /// Innermost open span when the hook fired.
    pub span: Option<usize>,
}

/// Spans and events of one process, in memory.
pub struct Trace {
    t0: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Recorded events, in firing order.
    pub events: Vec<Event>,
    open: Vec<usize>,
    run: u32,
}

/// The tracer as shared with observers.
pub type Shared = Rc<RefCell<Trace>>;

impl Trace {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            events: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts run `run`: later spans carry its id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Drops the spans and events of every run but run 0 (the probes
    /// around single layers) and the current one, so that only the last
    /// traced run is kept in memory and written out.
    pub fn keep_current_run(&mut self) {
        assert!(self.open.is_empty(), "spans still open");
        let run = self.run;
        let mut remap = vec![None; self.spans.len()];
        let mut kept = Vec::new();
        for (i, s) in self.spans.drain(..).enumerate() {
            if s.run == run || s.run == 0 {
                remap[i] = Some(kept.len());
                kept.push(s);
            }
        }
        for s in &mut kept {
            s.parent = s.parent.and_then(|p| remap[p]);
        }
        self.spans = kept;
        self.events
            .retain_mut(|e| match e.span.and_then(|p| remap[p]) {
                Some(p) => {
                    e.span = Some(p);
                    true
                }
                None => false,
            });
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, shard: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
            shard,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now();
    }

    fn event(&mut self, ev: Ev, shard: usize, replica: usize, at: SimTime) {
        let wall_ns = self.now();
        self.events.push(Event {
            ev,
            shard,
            replica,
            sim_ns: at.as_nanos(),
            wall_ns,
            span: self.open.last().copied(),
        });
    }

    /// Per span name: count, total ns and self ns (duration minus the
    /// time its children cover; children never overlap, since the
    /// benchmark calls one layer at a time).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans and events as JSON lines, self-time summary first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                r#"{{"type":"summary","name":"{name}","count":{count},"total_ns":{total},"self_ns":{own}}}"#
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                r#"{{"type":"span","id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"run":{},"shard":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                json_opt(s.parent),
                s.run,
                json_opt(s.shard)
            );
        }
        for e in &self.events {
            let (kind, extra) = match e.ev {
                Ev::Boundary => ("epoch_boundary", String::new()),
                Ev::Failover => ("failover", String::new()),
                Ev::Sent { to, bytes } => {
                    ("message_sent", format!(r#","to":{to},"bytes":{bytes}"#))
                }
                Ev::Dropped(loss) => ("message_dropped", format!(r#","loss":{loss}"#)),
                Ev::Retransmit(n) => ("retransmit", format!(r#","frames":{n}"#)),
                Ev::Suppressed => ("duplicate_suppressed", String::new()),
                Ev::Irq => ("interrupt_delivered", String::new()),
                Ev::Snapshot => ("snapshot_taken", String::new()),
                Ev::Reintegrated => ("replica_reintegrated", String::new()),
            };
            let _ = writeln!(
                out,
                r#"{{"type":"event","kind":"{kind}","shard":{},"replica":{},"sim_ns":{},"wall_ns":{},"span":{}{extra}}}"#,
                e.shard,
                e.replica,
                e.sim_ns,
                e.wall_ns,
                json_opt(e.span)
            );
        }
        out
    }
}

fn json_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// The observer the benchmark attaches to each traced system.
pub struct Probe {
    /// Where events go.
    pub trace: Shared,
    /// The system's shard index.
    pub shard: usize,
}

impl Probe {
    fn note(&self, ev: Ev, replica: usize, at: SimTime) {
        self.trace.borrow_mut().event(ev, self.shard, replica, at);
    }
}

impl Observer for Probe {
    fn epoch_boundary(&mut self, replica: usize, _epoch: u64, at: SimTime) {
        self.note(Ev::Boundary, replica, at);
    }

    fn failover(&mut self, info: &FailoverInfo) {
        self.note(Ev::Failover, 0, info.at);
    }

    fn message_sent(&mut self, from: usize, to: usize, bytes: usize, at: SimTime) {
        self.note(Ev::Sent { to, bytes }, from, at);
    }

    fn message_dropped(&mut self, from: usize, _to: usize, at: SimTime, reason: DropReason) {
        self.note(Ev::Dropped(reason == DropReason::Loss), from, at);
    }

    fn retransmit(&mut self, from: usize, _to: usize, frames: usize, at: SimTime) {
        self.note(Ev::Retransmit(frames), from, at);
    }

    fn duplicate_suppressed(&mut self, _from: usize, to: usize, at: SimTime) {
        self.note(Ev::Suppressed, to, at);
    }

    fn interrupt_delivered(&mut self, replica: usize, _irq_bits: u32, at: SimTime) {
        self.note(Ev::Irq, replica, at);
    }

    fn snapshot_taken(&mut self, replica: usize, _epoch: u64, _bytes: u64, at: SimTime) {
        self.note(Ev::Snapshot, replica, at);
    }

    fn replica_reintegrated(&mut self, replica: usize, _epoch: u64, _bytes: u64, at: SimTime) {
        self.note(Ev::Reintegrated, replica, at);
    }
}
