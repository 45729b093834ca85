//! The benchmark's three workloads, each derived from one seed.
//!
//! A workload is a list of replicated systems ("shards"). Each shard
//! names its guest, its scenario configuration and a failure schedule.
//! The single-system workloads go through [`Scenario::runner`]; the
//! cluster is assembled on [`FtCluster`] directly so that observers can
//! be attached to every shard and its steps can be driven one by one.

use hvft::core::cluster::FtCluster;
use hvft::core::scenario::{
    ExecTier, Parallelism, Protocol, RunReport, Runner, Scenario, ScenarioBuilder,
};
use hvft::core::system::FtSystem;
use hvft::guest::workload::{Dhrystone, IoBench, MatMul, Sieve, Workload};
use hvft::guest::{layout, CompiledWorkload, IoMode, KernelConfig};
use hvft::isa::program::Program;
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;

/// Which of the three workloads to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Figure 2 point: Dhrystone, paper kernel, t=1, EL 4096, lockstep on.
    CpuLockstep,
    /// Generated read/write mix, t=2, §4.3 protocol, 2% loss, EL 1024.
    IoLossy,
    /// Four t=2 shards on one Ethernet, two threads, JIT, with a
    /// backup loss, a reintegration and a primary failover.
    ClusterFailover,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::CpuLockstep, Kind::IoLossy, Kind::ClusterFailover];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CpuLockstep => "cpu-lockstep",
            Kind::IoLossy => "io-lossy",
            Kind::ClusterFailover => "cluster-failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Dhrystone iterations of `cpu-lockstep` (≈ 1.3 M instructions).
const CPU_ITERS: u32 = 50_000;
/// Disk operations in the generated `io-lossy` program.
const IO_OPS: u32 = 40;
/// Blocks the generated program draws from (the default disk has 128).
const IO_BLOCKS: u64 = 64;
/// Pool threads of `cluster-failover`'s threaded runs.
const CLUSTER_THREADS: usize = 2;

/// The Figure 2 reference: the paper's measured NP for the CPU-intense
/// workload at EL 4096 (Table 1).
pub const PAPER_NP_EL4096: f64 = 6.50;

/// A failure or repair, applied through the public `FtSystem` calls.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// The then-acting primary failstops.
    Primary(SimTime),
    /// Backup `replica` failstops.
    Replica(SimTime, usize),
    /// Repaired `replica` rejoins and is reintegrated.
    Rejoin(SimTime, usize),
}

/// What a shard's run must show beyond matching the bare reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    /// Failovers the run must survive.
    pub failovers: usize,
    /// Reintegrations the run must complete.
    pub reintegrations: usize,
}

/// One replicated system of a workload.
pub struct Shard {
    /// Short name for reports.
    pub name: &'static str,
    guest: Box<dyn Workload>,
    configure: fn(ScenarioBuilder) -> ScenarioBuilder,
    /// Scenario seed (loss RNG, TLB replacement, disk).
    pub seed: u64,
    /// Failure schedule.
    pub faults: Vec<Fault>,
    /// Events the run must show.
    pub expect: Expect,
}

impl Shard {
    fn builder(&self, image: Program, lockstep: Option<bool>) -> ScenarioBuilder {
        let b = (self.configure)(Scenario::builder().image(image).seed(self.seed));
        match lockstep {
            Some(on) => b.lockstep(on),
            None => b,
        }
    }

    /// The shard's guest image.
    pub fn image(&self) -> Program {
        self.guest.image().expect("workload image assembles")
    }

    /// The bare-hardware reference run of the same image and seed, at
    /// the shard's execution tier.
    pub fn bare_reference(&self) -> RunReport {
        let image = self.image();
        let tier = self
            .builder(image.clone(), None)
            .build()
            .expect("workload scenario is valid")
            .config()
            .hv
            .exec_tier;
        Scenario::builder()
            .image(image)
            .bare()
            .seed(self.seed)
            .exec_tier(tier)
            .build()
            .expect("bare reference is a valid scenario")
            .run()
    }

    fn schedule(&self, sys: &mut FtSystem) {
        for &f in &self.faults {
            match f {
                Fault::Primary(at) => sys.schedule_failure(at),
                Fault::Replica(at, r) => sys.schedule_replica_failure(at, r),
                Fault::Rejoin(at, r) => sys.schedule_rejoin(at, r),
            }
        }
    }
}

/// A ready-to-run instance of a workload. One exists per run, so the
/// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Instance {
    /// One replicated system behind the scenario front door.
    Single {
        /// The validated scenario (its image feeds the layer probes).
        scenario: Scenario,
        /// The driver, with the failure schedule applied.
        runner: Runner,
    },
    /// Several systems on one shared LAN.
    Cluster {
        /// The cluster.
        cluster: FtCluster,
        /// The shards' scenarios, in shard order.
        scenarios: Vec<Scenario>,
    },
}

impl Instance {
    /// The scenarios, in shard order.
    pub fn scenarios(&self) -> Vec<&Scenario> {
        match self {
            Instance::Single { scenario, .. } => vec![scenario],
            Instance::Cluster { scenarios, .. } => scenarios.iter().collect(),
        }
    }

    /// The replicated system of shard `i`.
    pub fn system_mut(&mut self, i: usize) -> &mut FtSystem {
        match self {
            Instance::Single { runner, .. } => runner.ft_mut().expect("replicated driver"),
            Instance::Cluster { cluster, .. } => cluster.system_mut(i),
        }
    }
}

/// Host time spent setting one instance up, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Workload::image()` (guest assembly, hvft-lang compilation).
    pub image_s: f64,
    /// `Scenario::build` plus the driver construction (`runner()`, or
    /// the cluster's `add_system` calls).
    pub runner_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.image_s + self.runner_s
    }
}

/// A workload at one seed.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// Its shards.
    pub shards: Vec<Shard>,
}

impl Bench {
    /// Derives the workload's inputs from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Bench {
        let mut rng = SplitMix(seed ^ 0x6876_6674_6265_6e63);
        let shards = match kind {
            Kind::CpuLockstep => vec![Shard {
                name: "dhrystone",
                guest: Box::new(Dhrystone {
                    iters: CPU_ITERS,
                    syscall_every: 0,
                    kernel: hvft_bench::paper_kernel(),
                }),
                // The builder's defaults are the Figure 2 point:
                // calibrated HP 9000/720 costs, §2 protocol, EL 4096,
                // t=1, 10 Mb Ethernet, lockstep on, default tier.
                configure: |b| b,
                seed: rng.next(),
                faults: Vec::new(),
                expect: Expect::default(),
            }],
            Kind::IoLossy => {
                let source = io_program(&mut rng);
                vec![Shard {
                    name: "io-mix",
                    guest: Box::new(
                        CompiledWorkload::with_kernel(
                            "io-mix",
                            &source,
                            hvft_bench::paper_kernel(),
                        )
                        .expect("generated io program compiles"),
                    ),
                    configure: |b| {
                        b.backups(2)
                            .protocol(Protocol::New)
                            .lossy(0.02)
                            .retransmit(SimDuration::from_millis(5))
                            .detector_timeout(SimDuration::from_millis(300))
                            .epoch_len(1024)
                            .lockstep(false)
                    },
                    seed: rng.next(),
                    faults: Vec::new(),
                    expect: Expect::default(),
                }]
            }
            Kind::ClusterFailover => cluster_shards(&mut rng),
        };
        Bench { kind, shards }
    }

    /// Builds every shard's image, scenario and driver, timing each
    /// layer. `lockstep` overrides the workload's lockstep setting.
    pub fn setup(&self, lockstep: Option<bool>) -> (Instance, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut scenarios = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let t = Instant::now();
            let image = shard.guest.image().expect("workload image assembles");
            times.image_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let scenario = shard
                .builder(image, lockstep)
                .build()
                .expect("workload scenario is valid");
            times.runner_s += t.elapsed().as_secs_f64();
            scenarios.push(scenario);
        }
        let t = Instant::now();
        let mut instance = if self.kind == Kind::ClusterFailover {
            let mut cluster =
                FtCluster::new(LinkSpec::ethernet_10mbps(), scenarios[0].config().seed);
            for s in &scenarios {
                cluster.add_system(s.image(), *s.config());
            }
            Instance::Cluster { cluster, scenarios }
        } else {
            let scenario = scenarios.pop().expect("one shard");
            let runner = scenario.runner();
            Instance::Single { scenario, runner }
        };
        for (i, shard) in self.shards.iter().enumerate() {
            shard.schedule(instance.system_mut(i));
        }
        times.runner_s += t.elapsed().as_secs_f64();
        (instance, times)
    }

    /// The parallel mode of a cluster workload. Its timed runs are
    /// sequential: on a two-core host the threaded runs' host time
    /// swings by a third between processes. Threaded runs are checked
    /// bit-identical to sequential ones and measured per layer.
    pub fn threaded(&self) -> Option<Parallelism> {
        (self.kind == Kind::ClusterFailover).then_some(Parallelism::Threads(CLUSTER_THREADS))
    }

    /// Whether the workload checks lockstep state hashes.
    pub fn lockstep(&self) -> bool {
        self.kind == Kind::CpuLockstep
    }
}

/// The four `cluster-failover` shards. The kill and repair times are
/// fixed, so that the failover timeline (and with it `sim_np`) does not
/// swing with the seed; the seed draws the shards' data and scenario
/// seeds.
fn cluster_shards(rng: &mut SplitMix) -> Vec<Shard> {
    let functional = KernelConfig {
        tick_period_us: 2000,
        tick_work: 2,
        ..KernelConfig::default()
    };
    fn shard_cfg(b: ScenarioBuilder) -> ScenarioBuilder {
        b.backups(2)
            .exec_tier(ExecTier::Jit)
            .lockstep(false)
            .retransmit(SimDuration::from_millis(5))
            .detector_timeout(SimDuration::from_millis(300))
    }
    let ms = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    // Backup 2 dies early; the primary stalls on it until the 300 ms
    // detector fires, the repaired replica then takes the ~266 KB
    // state transfer, and the primary dies after reintegration.
    let (kill_backup, rejoin, kill_primary) = (ms(20), ms(400), ms(1000));
    vec![
        Shard {
            name: "matmul",
            guest: Box::new(MatMul {
                n: 40,
                seed: rng.next() as u32,
                kernel: functional,
            }),
            configure: shard_cfg,
            seed: rng.next(),
            faults: Vec::new(),
            expect: Expect::default(),
        },
        Shard {
            name: "sieve",
            guest: Box::new(Sieve {
                limit: 60_000,
                kernel: functional,
            }),
            configure: shard_cfg,
            seed: rng.next(),
            faults: Vec::new(),
            expect: Expect::default(),
        },
        Shard {
            name: "dhrystone-failover",
            guest: Box::new(Dhrystone {
                iters: 60_000,
                syscall_every: 9,
                kernel: functional,
            }),
            configure: shard_cfg,
            seed: rng.next(),
            faults: vec![
                Fault::Replica(kill_backup, 2),
                Fault::Rejoin(rejoin, 2),
                Fault::Primary(kill_primary),
            ],
            expect: Expect {
                failovers: 1,
                reintegrations: 1,
            },
        },
        Shard {
            name: "io-write",
            guest: Box::new(IoBench {
                ops: 12,
                mode: IoMode::Write,
                num_blocks: 64,
                seed: rng.next() as u32,
                kernel: functional,
            }),
            configure: shard_cfg,
            seed: rng.next(),
            faults: Vec::new(),
            expect: Expect::default(),
        },
    ]
}

/// The hvft-lang source of `io-lossy`: `IO_OPS` disk operations, exactly
/// half reads and half writes in seed-shuffled order, on seed-drawn
/// blocks, with a short seed-sized compute loop between operations.
/// Every write stores the running value through the DMA buffer and
/// every read folds the block's first word back in, so the exit code
/// and console depend on the disk returning what was written.
fn io_program(rng: &mut SplitMix) -> String {
    let mut ops: Vec<bool> = (0..IO_OPS).map(|i| i % 2 == 0).collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut src = String::from(
        "fn mix(x, n) {\n    let i = 0;\n    while i < n {\n        \
         x = x * 1664525 + 1013904223;\n        i = i + 1;\n    }\n    return x;\n}\n\n\
         fn main() {\n",
    );
    let _ = writeln!(src, "    let acc = {};", rng.next() as u32);
    for (i, &write) in ops.iter().enumerate() {
        let block = rng.below(IO_BLOCKS);
        if write {
            let _ = writeln!(src, "    poke({:#x}, acc);", layout::DMA_BUF);
            let _ = writeln!(src, "    write_block({block});");
        } else {
            let _ = writeln!(src, "    acc = acc ^ read_block({block});");
        }
        let _ = writeln!(src, "    acc = mix(acc, {});", 20 + rng.below(41));
        if i % 8 == 7 {
            src.push_str("    putc(0x41 + (acc & 15));\n");
        }
    }
    src.push_str("    putc('\\n');\n    exit(acc);\n}\n");
    src
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// do not change when the program's RNG does.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n` (`n` is tiny next to 2^64).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
