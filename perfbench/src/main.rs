//! The hvft benchmark: end-to-end and per-layer metrics of replicated
//! runs on three workloads, measured from outside the program.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cpu-lockstep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` makes a separate traced run and
//! reports the per-layer metrics. Every run is checked against a bare
//! reference of the same image and seed, and every simulated result must
//! be identical across the runs of one seed. A human-readable report
//! goes to standard output, and its last line is one JSON object.

mod layers;
mod outcome;
mod trace;
mod workloads;

use hvft::core::Parallelism;
use outcome::{verify, SysOut};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Bench, Instance, Kind};

/// Fresh set-ups timed per process; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Fewest timed runs in one process, however long they take.
const MIN_RUNS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Verification and the determinism guard, shared by every run of one
/// process.
pub struct Checker {
    bare: Vec<SysOut>,
    lockstep: bool,
    first: Option<Vec<SysOut>>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed verification or differed from the first run.
    pub failed: u64,
    /// What went wrong, in order.
    pub problems: Vec<String>,
}

impl Checker {
    /// Runs the bare references of every shard.
    pub fn new(bench: &Bench) -> Checker {
        let bare = bench
            .shards
            .iter()
            .map(|s| SysOut::from_report(&s.bare_reference()))
            .collect();
        Checker {
            bare,
            lockstep: bench.lockstep(),
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// The bare references, in shard order.
    pub fn bare(&self) -> &[SysOut] {
        &self.bare
    }

    /// The first checked run's outputs.
    pub fn first(&self) -> &[SysOut] {
        self.first.as_deref().expect("a run was checked")
    }

    /// Checks one run of the workload (`what` names it in reports).
    /// Runs with lockstep turned off are verified but left out of the
    /// determinism guard, since hash comparisons are part of the record.
    pub fn check(&mut self, bench: &Bench, outs: &[SysOut], what: &str, lockstep: bool) {
        self.attempted += 1;
        let mut ok = true;
        for ((shard, run), bare) in bench.shards.iter().zip(outs).zip(&self.bare) {
            if let Err(e) = verify(shard, run, bare, lockstep) {
                self.problems.push(format!("{what}: {e}"));
                ok = false;
            }
        }
        if lockstep == self.lockstep {
            match &self.first {
                None => self.first = Some(outs.to_vec()),
                Some(first) if first.as_slice() != outs => {
                    let shard = first.iter().zip(outs).position(|(a, b)| a != b);
                    self.problems.push(format!(
                        "{what}: simulated results differ from the first run of this seed \
                         (shard {shard:?})"
                    ));
                    ok = false;
                }
                Some(_) => {}
            }
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs an instance to completion without tracing. Returns each
/// shard's outputs and the host seconds the run took.
pub fn run_plain(instance: &mut Instance, par: Parallelism) -> (Vec<SysOut>, f64) {
    match instance {
        Instance::Single { runner, .. } => {
            let t = Instant::now();
            let report = runner.run();
            let wall = t.elapsed().as_secs_f64();
            (vec![SysOut::from_report(&report)], wall)
        }
        Instance::Cluster { cluster, .. } => {
            let t = Instant::now();
            let results = cluster.run_with(par);
            let wall = t.elapsed().as_secs_f64();
            let outs = results
                .iter()
                .enumerate()
                .map(|(i, r)| SysOut::from_ft(r, cluster.system(i).primary_retired()))
                .collect();
            (outs, wall)
        }
    }
}

/// Calls `f` with the heap shifted by an amount that depends on `rep`.
///
/// How the allocator happens to place the guests' memory and the
/// driver's tables moves a replicated run's host time by up to a third,
/// and a process tends to reuse one placement run after run. Shifting
/// the heap before each timed run makes every run draw a fresh
/// placement, so the median over runs is the median over placements.
pub fn with_heap_offset<T>(rep: usize, f: impl FnOnce() -> T) -> T {
    let small = vec![0u8; 64 + rep.wrapping_mul(40_503) % (64 << 10)];
    let large = vec![0u8; 4096 + rep.wrapping_mul(2_654_435_761) % (1 << 20)];
    let out = f();
    std::hint::black_box((&small, &large));
    out
}

/// Sets up a fresh instance and runs it untraced at a shifted heap
/// offset (see [`with_heap_offset`]).
pub fn timed_run(
    bench: &Bench,
    rep: usize,
    lockstep: Option<bool>,
    par: Parallelism,
) -> (Vec<SysOut>, f64) {
    with_heap_offset(rep, || run_plain(&mut bench.setup(lockstep).0, par))
}

/// Instructions retired by the acting primaries.
pub fn retired(outs: &[SysOut]) -> u64 {
    outs.iter().map(|o| o.retired).sum::<u64>().max(1)
}

/// Host ns per primary-retired instruction.
pub fn ns_per_insn(outs: &[SysOut], wall_s: f64) -> f64 {
    wall_s * 1e9 / retired(outs) as f64
}

/// Median of `v` (which must be non-empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile of `v` (non-empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of integer samples; 0 when there are none.
pub fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A reported metric.
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// A note for the human-readable report.
    pub note: String,
}

/// Shorthand for a metric without a note.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

/// Simulated results that hold for every run of the seed.
pub struct SimResults {
    /// Σ N′ / Σ N over the shards.
    pub np: f64,
    /// Median and p90 guest-visible disk latency, µs (0 without I/O).
    pub io_latency_us: (f64, f64),
    /// Mean time from a primary failstop to the promotion, ms (0
    /// without a failover).
    pub failover_gap_ms: f64,
}

impl SimResults {
    /// From the first run and the bare references.
    pub fn new(bench: &Bench, outs: &[SysOut], bare: &[SysOut]) -> SimResults {
        let sum = |v: &[SysOut]| v.iter().map(|o| o.completion_ns as f64).sum::<f64>();
        let mut lat: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.op_latencies_ns.clone())
            .collect();
        let p50 = percentile(&mut lat, 50.0) as f64 / 1e3;
        let p90 = percentile(&mut lat, 90.0) as f64 / 1e3;
        let mut gaps = Vec::new();
        for (shard, out) in bench.shards.iter().zip(outs) {
            let kills = shard.faults.iter().filter_map(|f| match f {
                workloads::Fault::Primary(at) => Some(at.as_nanos()),
                _ => None,
            });
            for (kill, &(promoted, _)) in kills.zip(&out.failovers) {
                gaps.push(promoted.saturating_sub(kill) as f64 / 1e6);
            }
        }
        SimResults {
            np: sum(outs) / sum(bare),
            io_latency_us: (p50, p90),
            failover_gap_ms: if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().sum::<f64>() / gaps.len() as f64
            },
        }
    }
}

/// Times `SETUP_REPS` fresh set-ups (image, scenario, driver), each at
/// a shifted heap offset; returns the per-rep totals, image times and
/// driver times, seconds.
pub fn time_setups(bench: &Bench) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut total = Vec::with_capacity(SETUP_REPS);
    let mut image = Vec::with_capacity(SETUP_REPS);
    let mut runner = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = with_heap_offset(rep, || bench.setup(None).1);
        total.push(t.total_s());
        image.push(t.image_s);
        runner.push(t.runner_s);
    }
    (total, image, runner)
}

/// The untraced run: end-to-end metrics.
fn end_to_end(bench: &Bench, seconds: u64, checker: &mut Checker) -> Vec<Metric> {
    let (setups, _, _) = time_setups(bench);
    let (outs, _) = run_plain(&mut bench.setup(None).0, Parallelism::Sequential);
    checker.check(bench, &outs, "warm-up", bench.lockstep());
    // The high-water mark after the set-ups and one whole run. The timed
    // runs below shift the heap (see `with_heap_offset`), and how many
    // of them fit in the budget varies, so they are left out.
    let rss = peak_rss_mb();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || start.elapsed() < budget {
        let (outs, wall) = timed_run(bench, samples.len(), None, Parallelism::Sequential);
        checker.check(bench, &outs, "timed run", bench.lockstep());
        samples.push(ns_per_insn(&outs, wall));
    }
    if let Some(par) = bench.threaded() {
        let (outs, _) = run_plain(&mut bench.setup(None).0, par);
        checker.check(bench, &outs, "threaded run", bench.lockstep());
    }
    let sim = SimResults::new(bench, checker.first(), checker.bare());
    let mut ns = metric("ns_per_insn", median(&samples), "ns");
    ns.note = format!(
        "median of {} runs, quartiles {:.2}..{:.2}",
        samples.len(),
        quantile(&samples, 0.25),
        quantile(&samples, 0.75)
    );
    let mut setup = metric("setup_s", median(&setups), "s");
    setup.note = format!("median of {SETUP_REPS} set-ups");
    let mut np = metric("sim_np", sim.np, "ratio");
    if bench.kind == Kind::CpuLockstep {
        np.note = format!(
            "paper (Table 1, EL 4096) {:.2}; NpcModel::paper().np(4096) = {:.3}",
            workloads::PAPER_NP_EL4096,
            hvft::model::NpcModel::paper().np(4096)
        );
    }
    vec![ns, setup, metric("peak_rss_mb", rss, "MB"), np]
}

fn print_report(args: &Args, checker: &Checker, metrics: &[Metric], extra: &[Metric]) {
    println!(
        "{} seed {} ({}): {} runs checked against the bare reference, {} failed \
         (fail_ratio {})",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        checker.attempted,
        checker.failed,
        checker.failed as f64 / checker.attempted.max(1) as f64
    );
    for p in &checker.problems {
        println!("  FAILED {p}");
    }
    for m in metrics.iter().chain(extra) {
        println!(
            "  {:<36} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(checker: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        checker.failed == 0 && checker.problems.is_empty(),
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cpu-lockstep|io-lossy|cluster-failover> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let bench = Bench::new(args.kind, args.seed);
    let mut checker = Checker::new(&bench);
    let (metrics, extra) = if args.trace {
        layers::per_layer(&bench, args.seconds, &mut checker)
    } else {
        (end_to_end(&bench, args.seconds, &mut checker), Vec::new())
    };
    print_report(&args, &checker, &metrics, &extra);
    println!("{}", json_line(&checker, &metrics));
    if checker.failed == 0 && checker.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
