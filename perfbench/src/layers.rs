//! The traced run: per-layer metrics, each measured around public calls
//! into one layer.

use crate::outcome::SysOut;
use crate::trace::{Ev, Probe, Shared, Trace};
use crate::workloads::{Bench, Kind, PAPER_NP_EL4096};
use crate::{
    median, metric, ns_per_insn, percentile, retired, run_plain, time_setups, timed_run,
    with_heap_offset, Checker, Metric, SimResults,
};
use hvft::core::Parallelism;
use hvft::hypervisor::{BareHost, HvGuest, HvGuestSnapshot};
use hvft::net::lan::Lan;
use hvft::sim::time::{SimDuration, SimTime};
use hvft::sim::{PoolStats, WorkPool};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Calls timed per guest probe (state hash, snapshot, restore).
const PROBE_CALLS: usize = 64;
/// Fewest repetitions of each timed phase.
const MIN_REPS: usize = 3;

/// Runs an instance step by step, in the order the cluster's
/// sequential coordinator uses (smallest next action time, then shard
/// index), with a span around every `FtSystem::step` call and the
/// probe observer on every shard.
fn run_traced(bench: &Bench, trace: &Shared) -> (Vec<SysOut>, f64) {
    let (mut instance, _) = bench.setup(None);
    let n = bench.shards.len();
    for shard in 0..n {
        instance.system_mut(shard).add_observer(Box::new(Probe {
            trace: Rc::clone(trace),
            shard,
        }));
    }
    let mut outs: Vec<Option<SysOut>> = vec![None; n];
    let t = Instant::now();
    let root = trace.borrow_mut().begin("run", None);
    loop {
        let mut pick: Option<(SimTime, usize)> = None;
        for (i, out) in outs.iter().enumerate() {
            if out.is_some() {
                continue;
            }
            let at = instance
                .system_mut(i)
                .next_action_time()
                .unwrap_or(SimTime::ZERO);
            if pick.is_none_or(|(best, _)| at < best) {
                pick = Some((at, i));
            }
        }
        let Some((_, i)) = pick else { break };
        let span = trace.borrow_mut().begin("step", Some(i));
        let done = instance.system_mut(i).step();
        trace.borrow_mut().end(span);
        if let Some(result) = done {
            let retired = instance.system_mut(i).primary_retired();
            outs[i] = Some(SysOut::from_ft(&result, retired));
        }
    }
    trace.borrow_mut().end(root);
    let wall = t.elapsed().as_secs_f64();
    (
        outs.into_iter()
            .map(|o| o.expect("every shard finished"))
            .collect(),
        wall,
    )
}

/// What the step spans and observer events of traced runs show.
#[derive(Default)]
struct StepStats {
    steps: u64,
    step_ns: Vec<u64>,
    boundary_step_ns: Vec<u64>,
    epoch_wall_ns: Vec<u64>,
    boundaries: u64,
    irqs: u64,
    lost: u64,
    bytes: u64,
}

impl StepStats {
    /// Folds in the spans and events of trace run `run`.
    fn add(&mut self, trace: &Trace, run: u32) {
        let mut boundary_span = vec![false; trace.spans.len()];
        let mut last: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let (mut boundaries, mut irqs, mut lost, mut bytes) = (0, 0, 0, 0);
        for e in &trace.events {
            if e.span.is_none_or(|s| trace.spans[s].run != run) {
                continue;
            }
            match e.ev {
                Ev::Boundary => {
                    boundaries += 1;
                    if let Some(s) = e.span {
                        boundary_span[s] = true;
                    }
                    if let Some(prev) = last.insert((e.shard, e.replica), e.wall_ns) {
                        self.epoch_wall_ns.push(e.wall_ns - prev);
                    }
                }
                Ev::Irq => irqs += 1,
                Ev::Dropped(true) => lost += 1,
                Ev::Sent { bytes: b, .. } => bytes += b as u64,
                _ => {}
            }
        }
        let mut steps = 0;
        for (i, s) in trace.spans.iter().enumerate() {
            if s.run == run && s.name == "step" {
                steps += 1;
                self.step_ns.push(s.dur_ns());
                if boundary_span[i] {
                    self.boundary_step_ns.push(s.dur_ns());
                }
            }
        }
        // Counts are deterministic: keep the last run's.
        (
            self.steps,
            self.boundaries,
            self.irqs,
            self.lost,
            self.bytes,
        ) = (steps, boundaries, irqs, lost, bytes);
    }
}

/// Times `f` inside a run-0 span named `name`; returns host ns.
fn timed<T>(
    trace: &Shared,
    name: &'static str,
    shard: Option<usize>,
    f: impl FnOnce() -> T,
) -> u64 {
    let span = trace.borrow_mut().begin(name, shard);
    let t = Instant::now();
    black_box(f());
    let ns = t.elapsed().as_nanos() as u64;
    trace.borrow_mut().end(span);
    ns
}

fn median_u64(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&f)
}

/// The traced run. Returns the per-layer metrics and, for the
/// human-readable report only, the derived layer split.
pub fn per_layer(bench: &Bench, seconds: u64, checker: &mut Checker) -> (Vec<Metric>, Vec<Metric>) {
    let start = Instant::now();
    let budget = seconds as f64;
    let until = |share: f64| start.elapsed().as_secs_f64() < share * budget;
    let trace: Shared = Rc::new(RefCell::new(Trace::new()));
    let lockstep = bench.lockstep();
    let seq = Parallelism::Sequential;

    // guest / lang and core: set-up.
    let (_, image_s, runner_s) = time_setups(bench);

    // Warm-up, then untraced, traced and (for a cluster) threaded runs
    // in turn. The untraced runs are the traced runs' twins; the
    // threaded runs feed the pool metrics.
    let (outs, _) = run_plain(&mut bench.setup(None).0, seq);
    checker.check(bench, &outs, "warm-up", lockstep);
    let mut untraced = Vec::new();
    let mut threaded = Vec::new();
    let mut traced = Vec::new();
    let mut pool = PoolStats::default();
    let mut pool_wall_ns = 0u64;
    let mut steps = StepStats::default();
    let mut run = 0;
    while traced.len() < MIN_REPS || until(0.55) {
        let (outs, wall) = timed_run(bench, 3 * traced.len(), None, seq);
        checker.check(bench, &outs, "untraced run", lockstep);
        untraced.push(ns_per_insn(&outs, wall));
        if let Some(par) = bench.threaded() {
            let before = WorkPool::global().stats();
            let (outs, wall) = timed_run(bench, 3 * traced.len() + 1, None, par);
            let after = WorkPool::global().stats();
            pool.jobs += after.jobs - before.jobs;
            pool.busy_nanos += after.busy_nanos - before.busy_nanos;
            pool.steals += after.steals - before.steals;
            pool.parks += after.parks - before.parks;
            pool_wall_ns += (wall * 1e9) as u64;
            checker.check(bench, &outs, "threaded run", lockstep);
            threaded.push(ns_per_insn(&outs, wall));
        }
        run += 1;
        trace.borrow_mut().set_run(run);
        let (outs, wall) = with_heap_offset(3 * traced.len() + 2, || run_traced(bench, &trace));
        checker.check(bench, &outs, "traced run", lockstep);
        traced.push(ns_per_insn(&outs, wall));
        steps.add(&trace.borrow(), run);
        trace.borrow_mut().keep_current_run();
    }
    trace.borrow_mut().set_run(0);
    let first = checker.first().to_vec();
    let primary_retired = retired(&first) as f64;
    let untraced_ns = median(&untraced);
    let threads_ns = if threaded.is_empty() {
        untraced_ns
    } else {
        median(&threaded)
    };

    // statehash: the same scenario with lockstep off.
    let off_ns = if lockstep {
        let mut off = Vec::new();
        while off.len() < MIN_REPS || until(0.7) {
            let (outs, wall) = timed_run(bench, off.len(), Some(false), seq);
            checker.check(bench, &outs, "lockstep-off run", false);
            off.push(ns_per_insn(&outs, wall));
        }
        median(&off)
    } else {
        untraced_ns
    };

    // machine: the bare machine on every shard's image, at its tier.
    let (instance, _) = bench.setup(None);
    let mut bare_ns = Vec::new();
    while bare_ns.len() < MIN_REPS || until(0.8) {
        let (mut wall, mut insns) = (0u64, 0u64);
        for (i, s) in instance.scenarios().into_iter().enumerate() {
            let cfg = s.config();
            let mut host = BareHost::new(
                s.image(),
                cfg.cost,
                cfg.hv.ram_bytes,
                cfg.disk_blocks,
                cfg.seed,
            );
            host.set_exec_tier(cfg.hv.exec_tier);
            let mut r = None;
            wall += timed(&trace, "bare.run", Some(i), || {
                r = Some(host.run(cfg.max_insns))
            });
            insns += r.expect("bare run returned").retired;
        }
        bare_ns.push(wall as f64 / insns.max(1) as f64);
    }
    let bare_ns = median(&bare_ns);

    // hypervisor and statehash: a guest restored to a mid-run checkpoint.
    let (mut instance, _) = bench.setup(None);
    for (i, o) in first.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_nanos(o.completion_ns / 2);
        instance.system_mut(i).schedule_checkpoint(at);
    }
    let (outs, _) = run_plain(&mut instance, seq);
    checker.check(bench, &outs, "checkpointed run", lockstep);
    let (mut hash_ns, mut snap_ns, mut restore_ns) = (Vec::new(), Vec::new(), Vec::new());
    let states: Vec<HvGuestSnapshot> = (0..first.len())
        .map(|i| {
            let checkpoint = instance.system_mut(i).checkpoints().first();
            checkpoint
                .expect("a checkpoint halfway through the run is always taken")
                .state
                .guest
                .clone()
        })
        .collect();
    for (i, (s, state)) in instance.scenarios().into_iter().zip(&states).enumerate() {
        let cfg = s.config();
        let mut guest = HvGuest::new(s.image(), cfg.cost, cfg.hv);
        guest.restore(state);
        for _ in 0..PROBE_CALLS {
            hash_ns.push(timed(&trace, "hvguest.state_hash", Some(i), || {
                guest.state_hash()
            }));
        }
        for _ in 0..PROBE_CALLS {
            snap_ns.push(timed(&trace, "hvguest.snapshot", Some(i), || {
                guest.snapshot()
            }));
        }
        for _ in 0..PROBE_CALLS {
            restore_ns.push(timed(&trace, "hvguest.restore", Some(i), || {
                guest.restore(state)
            }));
        }
    }
    let hash_ns = median_u64(&hash_ns);

    // net: the last traced run's frames replayed through a fresh Lan.
    let scenarios = instance.scenarios();
    let mut base = vec![0usize];
    for s in &scenarios {
        base.push(base.last().expect("non-empty") + 1 + s.config().backups);
    }
    let sends: Vec<(usize, usize, usize, SimTime)> = trace
        .borrow()
        .events
        .iter()
        .filter(|e| e.span.is_some_and(|s| trace.borrow().spans[s].run == run))
        .filter_map(|e| match e.ev {
            Ev::Sent { to, bytes } => Some((
                base[e.shard] + e.replica,
                base[e.shard] + to,
                bytes,
                SimTime::from_nanos(e.sim_ns),
            )),
            _ => None,
        })
        .collect();
    let link = scenarios[0].config().link;
    let nodes = *base.last().expect("non-empty");
    let mut lan_ns = Vec::new();
    while lan_ns.len() < MIN_REPS || until(0.9) {
        let mut lan: Lan<()> = Lan::new(link, 1);
        for _ in 0..nodes {
            lan.add_node();
        }
        let ns = timed(&trace, "lan.replay", None, || {
            for &(from, to, bytes, at) in &sends {
                while lan.pop_ready(at).is_some() {}
                black_box(lan.send(at, from, to, bytes, ()));
            }
            while lan.pop_ready(SimTime::MAX).is_some() {}
        });
        lan_ns.push(ns as f64 / sends.len().max(1) as f64);
    }

    // Everything the first run's simulated record says.
    let sum = |f: &dyn Fn(&SysOut) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let exec = |f: &dyn Fn(&hvft::machine::ExecStats) -> u64| {
        first.iter().map(|o| f(&o.primary.exec)).sum::<u64>() as f64
    };
    let all_retired = first
        .iter()
        .flat_map(|o| &o.replicas)
        .map(|s| s.exec.step_retired + s.exec.block_retired + s.exec.jit_retired)
        .sum::<u64>() as f64;
    let frames = sum(&|o| o.frames_total());
    let epochs = sum(&|o| o.epochs);
    let calls = if lockstep {
        steps.boundaries as f64
    } else {
        0.0
    };
    let untraced_wall_ns = untraced_ns * primary_retired;
    let sim = SimResults::new(bench, &first, checker.bare());
    let slots = bench.shards.len()
        * scenarios
            .iter()
            .map(|s| 1 + s.config().backups)
            .max()
            .unwrap_or(1);
    let workers = bench.threaded().map_or(1, |p| p.effective_workers(slots)) as f64;
    let jobs = pool.jobs.max(1) as f64;
    let hits = exec(&|e| e.ret_cache_hits);
    let lookups = hits + exec(&|e| e.ret_cache_misses);
    let ms = |s: &[f64]| median(s) * 1e3;

    let metrics = vec![
        metric("guest.image_build_ms", ms(&image_s), "ms"),
        metric("core.runner_build_ms", ms(&runner_s), "ms"),
        metric("statehash.calls", calls, "count"),
        metric("statehash.ns_per_call", hash_ns, "ns"),
        metric(
            "statehash.share",
            calls * hash_ns / untraced_wall_ns,
            "ratio",
        ),
        metric("statehash.lockstep_off_ns_per_insn", off_ns, "ns"),
        metric("machine.bare_ns_per_insn", bare_ns, "ns"),
        metric(
            "machine.exec_share",
            bare_ns * all_retired / untraced_wall_ns,
            "ratio",
        ),
        metric(
            "machine.jit_share",
            exec(&|e| e.jit_retired) / exec(&|e| e.step_retired + e.block_retired + e.jit_retired),
            "ratio",
        ),
        metric(
            "machine.superblocks_compiled",
            exec(&|e| e.superblocks_compiled),
            "count",
        ),
        metric(
            "machine.jit_invalidations",
            exec(&|e| e.jit_invalidations),
            "count",
        ),
        metric(
            "machine.ret_cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric(
            "hypervisor.simulated",
            sum(&|o| o.primary.simulated),
            "count",
        ),
        metric(
            "hypervisor.reflected",
            sum(&|o| o.primary.reflected),
            "count",
        ),
        metric(
            "hypervisor.tlb_fills",
            sum(&|o| o.primary.tlb_fills),
            "count",
        ),
        metric("hypervisor.mmio", sum(&|o| o.primary.mmio), "count"),
        metric(
            "hypervisor.irqs_delivered",
            sum(&|o| o.primary.irqs_delivered),
            "count",
        ),
        metric("hypervisor.snapshot_us", median_u64(&snap_ns) / 1e3, "us"),
        metric("hypervisor.restore_us", median_u64(&restore_ns) / 1e3, "us"),
        metric("core.steps", steps.steps as f64, "count"),
        metric(
            "core.step_ns_p50",
            percentile(&mut steps.step_ns, 50.0) as f64,
            "ns",
        ),
        metric(
            "core.step_ns_p99",
            percentile(&mut steps.step_ns, 99.0) as f64,
            "ns",
        ),
        metric(
            "core.boundary_step_ns_p50",
            percentile(&mut steps.boundary_step_ns, 50.0) as f64,
            "ns",
        ),
        metric(
            "core.epoch_wall_us_p50",
            percentile(&mut steps.epoch_wall_ns, 50.0) as f64 / 1e3,
            "us",
        ),
        metric(
            "core.epoch_wall_us_p99",
            percentile(&mut steps.epoch_wall_ns, 99.0) as f64 / 1e3,
            "us",
        ),
        metric("core.frames_per_epoch", frames / epochs.max(1.0), "ratio"),
        metric("core.interrupts_delivered", steps.irqs as f64, "count"),
        metric(
            "core.failovers",
            sum(&|o| o.failovers.len() as u64),
            "count",
        ),
        metric(
            "core.replica_insn_ratio",
            all_retired / primary_retired,
            "ratio",
        ),
        metric("net.frames", frames, "count"),
        metric("net.bytes", steps.bytes as f64, "bytes"),
        metric(
            "net.retransmit_ratio",
            sum(&|o| o.retransmitted) / frames.max(1.0),
            "ratio",
        ),
        metric("net.frames_lost", steps.lost as f64, "count"),
        metric("net.frames_suppressed", sum(&|o| o.suppressed), "count"),
        metric("net.lan_ns_per_frame", median(&lan_ns), "ns"),
        metric("devices.disk_ops", sum(&|o| o.disk.len() as u64), "count"),
        metric(
            "devices.guest_retries",
            sum(&|o| u64::from(o.guest_retries)),
            "count",
        ),
        metric("sim.pool_jobs", pool.jobs as f64, "count"),
        metric(
            "sim.pool_busy_share",
            pool.busy_nanos as f64 / (pool_wall_ns.max(1) as f64 * workers),
            "ratio",
        ),
        metric("sim.steals_per_job", pool.steals as f64 / jobs, "ratio"),
        metric("sim.parks_per_job", pool.parks as f64 / jobs, "ratio"),
        metric("sim.seq_ns_per_insn", untraced_ns, "ns"),
        metric("sim.threads_ns_per_insn", threads_ns, "ns"),
        metric("sim.parallel_speedup", untraced_ns / threads_ns, "ratio"),
        metric(
            "snapshot.transfer_bytes",
            sum(&|o| o.transfer_bytes),
            "bytes",
        ),
        metric(
            "snapshot.reintegrations",
            sum(&|o| o.reintegrations.len() as u64),
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            median(&traced) / untraced_ns,
            "ratio",
        ),
        metric(
            "sim_np_paper_err",
            if bench.kind == Kind::CpuLockstep {
                (sim.np - PAPER_NP_EL4096).abs() / PAPER_NP_EL4096
            } else {
                0.0
            },
            "ratio",
        ),
        metric("sim_io_latency_us_p50", sim.io_latency_us.0, "sim_us"),
        metric("sim_io_latency_us_p90", sim.io_latency_us.1, "sim_us"),
        metric("sim_failover_gap_ms", sim.failover_gap_ms, "sim_ms"),
    ];

    // The layer split of the untraced run's wall time, for the report.
    let hash_share = calls * hash_ns / untraced_wall_ns;
    let exec_share = bare_ns * all_retired / untraced_wall_ns;
    let mut split = vec![
        metric("split.statehash", hash_share, "share"),
        metric("split.guest_execution", exec_share, "share"),
        metric("split.rest", 1.0 - hash_share - exec_share, "share"),
    ];
    split[1].note = format!(
        "bare ns/insn × {:.2} replica insns per primary insn",
        all_retired / primary_retired
    );
    split[2].note =
        "protocol engines, reliable layer, LAN, scheduler, hypervisor events".to_owned();
    if lockstep {
        // The hash layer seen from outside in two ways: calls × cost,
        // and what turning lockstep off saves.
        let est = calls * hash_ns / primary_retired;
        let delta = untraced_ns - off_ns;
        let mut views = metric("check.hash_views_ratio", est / delta, "ratio");
        views.note = format!(
            "calls × ns_per_call = {est:.1} ns/insn vs ns_per_insn − lockstep_off = {delta:.1} ns/insn"
        );
        split.push(views);
    }

    let path = format!("perfbench/out/trace-{}.jsonl", bench.kind.name());
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, trace.borrow().to_jsonl()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    (metrics, split)
}
