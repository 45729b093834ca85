//! What a run produced, in one shape for every driver, and the checks
//! made on it: agreement with the bare reference, and bit-identity
//! between runs.

use crate::workloads::Shard;
use hvft::core::scenario::{ExitStatus, RunReport};
use hvft::core::system::{FtRunResult, RunEnd};
use hvft::devices::disk::DiskLogEntry;
use hvft::hypervisor::HvStats;

/// Everything simulated about one system's run. Host timings are kept
/// out, so two runs of one seed must produce equal values.
#[derive(Clone, Debug, PartialEq)]
pub struct SysOut {
    /// Exit code, or how the run ended otherwise.
    pub exit: Result<u32, String>,
    /// Simulated completion time (`N′`, or `N` for a bare run), ns.
    pub completion_ns: u64,
    /// Console bytes.
    pub console: Vec<u8>,
    /// Environment-visible disk operations: command, block, status.
    pub disk: Vec<String>,
    /// Instructions retired by the acting primary.
    pub retired: u64,
    /// Epochs completed at the acting primary.
    pub epochs: u64,
    /// Failovers: simulated promotion time (ns) and epoch.
    pub failovers: Vec<(u64, u64)>,
    /// Medium-occupying frames per replica.
    pub frames: Vec<u64>,
    /// Data frames re-sent by the reliable layer.
    pub retransmitted: u64,
    /// Duplicate frames suppressed by receivers.
    pub suppressed: u64,
    /// Reintegrations: replica, epoch, bytes.
    pub reintegrations: Vec<(usize, u64, u64)>,
    /// Modelled state-transfer bytes.
    pub transfer_bytes: u64,
    /// Lockstep comparisons and whether all agreed.
    pub lockstep: (u64, bool),
    /// Acting primary's hypervisor counters.
    pub primary: HvStats,
    /// Every replica's hypervisor counters.
    pub replicas: Vec<HvStats>,
    /// Guest-visible disk-operation latencies, ns.
    pub op_latencies_ns: Vec<u64>,
    /// Guest driver retries (rule P7 re-issues).
    pub guest_retries: u32,
}

fn disk_ops(log: &[DiskLogEntry]) -> Vec<String> {
    log.iter()
        .map(|e| format!("{:?} {} {:?}", e.cmd, e.block, e.status))
        .collect()
}

impl SysOut {
    /// From the scenario front door's report.
    pub fn from_report(r: &RunReport) -> SysOut {
        SysOut {
            exit: match r.exit {
                ExitStatus::Exit(c) => Ok(c),
                other => Err(format!("{other:?}")),
            },
            completion_ns: r.completion_time.as_nanos(),
            console: r.console.clone(),
            disk: disk_ops(&r.disk_log),
            retired: r.retired,
            epochs: r.epochs,
            failovers: r
                .failovers
                .iter()
                .map(|f| (f.at.as_nanos(), f.epoch))
                .collect(),
            frames: r.messages_per_replica.clone(),
            retransmitted: r.frames_retransmitted,
            suppressed: r.frames_suppressed,
            reintegrations: r
                .reintegrations
                .iter()
                .map(|x| (x.replica, x.epoch, x.bytes))
                .collect(),
            transfer_bytes: r.state_transfer_bytes,
            lockstep: (r.lockstep_compared, r.lockstep_clean),
            primary: r.primary_stats,
            replicas: r.replica_stats.clone(),
            op_latencies_ns: r.op_latencies.iter().map(|d| d.as_nanos()).collect(),
            guest_retries: r.guest_retries,
        }
    }

    /// From a replicated system's own result (cluster shards and
    /// step-driven runs), with the acting primary's retired count.
    pub fn from_ft(r: &FtRunResult, retired: u64) -> SysOut {
        SysOut {
            exit: match r.outcome {
                RunEnd::Exit { code } => Ok(code),
                RunEnd::Fatal { code } => Err(format!("Fatal({code:?})")),
                RunEnd::InsnLimit => Err("InsnLimit".to_owned()),
            },
            completion_ns: r.completion_time.as_nanos(),
            console: r.console_output.clone(),
            disk: disk_ops(&r.disk_log),
            retired,
            epochs: r.primary_stats.epochs,
            failovers: r
                .failovers
                .iter()
                .map(|f| (f.at.as_nanos(), f.epoch))
                .collect(),
            frames: r.messages_per_replica.clone(),
            retransmitted: r.frames_retransmitted,
            suppressed: r.frames_suppressed,
            reintegrations: r
                .reintegrations
                .iter()
                .map(|x| (x.replica, x.epoch, x.bytes))
                .collect(),
            transfer_bytes: r.state_transfer_bytes,
            lockstep: (r.lockstep.compared(), r.lockstep.is_clean()),
            primary: r.primary_stats,
            replicas: r.replica_stats.clone(),
            op_latencies_ns: r.op_latencies.iter().map(|d| d.as_nanos()).collect(),
            guest_retries: r.guest_retries,
        }
    }

    /// Frames on the wire from every replica.
    pub fn frames_total(&self) -> u64 {
        self.frames.iter().sum()
    }
}

/// Checks one shard's replicated run against its bare reference:
/// same exit code, console bytes and disk operations, a clean lockstep
/// record when hashes were compared, and the failovers and
/// reintegrations the shard's schedule must cause. Returns the first
/// mismatch.
pub fn verify(shard: &Shard, run: &SysOut, bare: &SysOut, lockstep: bool) -> Result<(), String> {
    let name = shard.name;
    match (&run.exit, &bare.exit) {
        (Ok(a), Ok(b)) if a == b => {}
        (a, b) => return Err(format!("{name}: exit {a:?}, bare reference {b:?}")),
    }
    if run.console != bare.console {
        return Err(format!(
            "{name}: console {:?}, bare reference {:?}",
            String::from_utf8_lossy(&run.console),
            String::from_utf8_lossy(&bare.console)
        ));
    }
    if run.disk != bare.disk {
        return Err(format!(
            "{name}: {} disk operations differ from the bare reference's {}",
            run.disk.len(),
            bare.disk.len()
        ));
    }
    if lockstep && !(run.lockstep.1 && run.lockstep.0 > 0) {
        return Err(format!(
            "{name}: lockstep record {:?} is not clean",
            run.lockstep
        ));
    }
    let seen = (run.failovers.len(), run.reintegrations.len());
    let want = (shard.expect.failovers, shard.expect.reintegrations);
    if seen != want {
        return Err(format!(
            "{name}: (failovers, reintegrations) = {seen:?}, schedule needs {want:?}"
        ));
    }
    Ok(())
}
