//! Execution tiers and the dispatcher state behind [`Cpu::run`].
//!
//! The CPU offers two observably identical ways to execute a budget of
//! instructions:
//!
//! - [`ExecTier::Step`] — the reference interpreter: one fetch,
//!   translate and decode per instruction ([`Cpu::step`] in a loop);
//! - [`ExecTier::Jit`] (the default) — threaded-code superblocks
//!   ([`crate::jit`]): hot code is compiled into chains of
//!   pre-specialized handler functions with operands resolved at
//!   compile time, entered when a compiled superblock exists; cold code
//!   single-steps one straight-line run at a time, which is where the
//!   heat probe that drives promotion fires.
//!
//! "Observably identical" is load-bearing: the paper's protocols
//! (Bressoud & Schneider §2.1) require epoch boundaries and interrupt
//! delivery to land at *exact* retirement counts, so both tiers clamp
//! execution to `min(budget, rctr)` and report the same exits at the
//! same retirement counts with the same machine state. The
//! differential oracle in `tests/proptest_step_vs_jit.rs` enforces
//! this.
//!
//! [`Cpu::run`]: crate::cpu::Cpu::run
//! [`Cpu::step`]: crate::cpu::Cpu::step

use crate::jit::JitCache;
use core::fmt;
use std::str::FromStr;

/// Which engine [`Cpu::run`](crate::cpu::Cpu::run) uses to consume its
/// instruction budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExecTier {
    /// Single-step reference interpreter: the oracle every batching
    /// path is compared against.
    Step,
    /// Threaded-code superblock JIT over a single-stepped cold path
    /// (the default).
    #[default]
    Jit,
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecTier::Step => "step",
            ExecTier::Jit => "jit",
        })
    }
}

impl FromStr for ExecTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "step" => Ok(ExecTier::Step),
            "jit" => Ok(ExecTier::Jit),
            other => Err(format!(
                "unknown exec tier {other:?} (expected step or jit)"
            )),
        }
    }
}

/// Per-tier execution counters (for tests, benches and reports).
///
/// The retirement counters attribute instructions to the engine that
/// retired them *inside* [`Cpu::run`](crate::cpu::Cpu::run); the few
/// instructions completed by the embedder between runs (environment
/// reads, MMIO completions) are counted in
/// [`Cpu::retired`](crate::cpu::Cpu::retired) but not attributed to a
/// tier, so the tier counters sum to slightly less than the total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired by the single-step loop.
    pub step_retired: u64,
    /// Instructions the jit tier retired *outside* compiled
    /// superblocks, on its single-stepped cold path. (The name predates
    /// the removal of the predecoded-block tier and is kept for API
    /// compatibility.)
    pub block_retired: u64,
    /// Instructions retired inside compiled superblocks.
    pub jit_retired: u64,
    /// Superblocks compiled (promotions and stale recompiles).
    pub superblocks_compiled: u64,
    /// Compiled superblocks found stale because a compiled word
    /// changed (self-modifying code or DMA), and recompiled or
    /// discarded.
    pub jit_invalidations: u64,
    /// Compiled superblocks found stale whose compiled words all read
    /// back unchanged (a data write shared one of their pages), and
    /// kept.
    pub jit_revalidations: u64,
    /// Subset of `jit_invalidations` where the entry page was intact
    /// and only a *secondary* page of a cross-page trace had been
    /// written.
    pub jit_invalidations_secondary: u64,
    /// `jalr` executions inside superblocks whose inline return-cache
    /// prediction verified and chained in-frame.
    pub ret_cache_hits: u64,
    /// `jalr` executions inside superblocks whose prediction missed
    /// (cold slot, polymorphic target, or invalidated prediction) and
    /// took the full chain path.
    pub ret_cache_misses: u64,
    /// Compiled superblocks whose trace crossed at least one page
    /// boundary (subset of `superblocks_compiled`).
    pub cross_page_superblocks: u64,
}

/// Dispatcher state owned by the CPU: the selected tier plus the
/// superblock cache. Kept in one struct so
/// [`Cpu::run`](crate::cpu::Cpu::run) can move it out of the CPU
/// wholesale while executing (superblocks are borrowed from the cache
/// while they execute against the CPU).
#[derive(Debug, Default)]
pub struct ExecDispatcher {
    pub(crate) tier: ExecTier,
    pub(crate) jit: JitCache,
    pub(crate) stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip_and_default_is_jit() {
        assert_eq!(ExecTier::default(), ExecTier::Jit);
        for tier in [ExecTier::Step, ExecTier::Jit] {
            assert_eq!(tier.to_string().parse::<ExecTier>(), Ok(tier));
        }
    }

    #[test]
    fn unknown_tier_names_the_valid_ones() {
        let err = "block".parse::<ExecTier>().unwrap_err();
        assert!(err.contains("\"block\""), "{err}");
        assert!(err.contains("step") && err.contains("jit"), "{err}");
    }
}
