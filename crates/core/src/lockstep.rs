//! Lockstep divergence detection across `n` replicas.
//!
//! Rules P1–P6 guarantee that every backup virtual machine "executes the
//! same sequence of instructions (each having the same effect) as the
//! primary virtual machine". This checker verifies that guarantee
//! empirically, for one primary plus any number of ordered backups: each
//! replica reports a hash of its complete VM state at every epoch
//! boundary (taken *before* boundary processing, so all replicas hash at
//! the identical instruction-stream point), and the checker compares
//! every report for an epoch against the first one recorded.
//!
//! A t-fault chain needs exactly this generalization: with `t + 1`
//! replicas, an epoch may receive up to `t + 1` hashes, and a divergence
//! must say *which pair* disagreed so the failing replica can be
//! identified (the reference hash travels with the report that set it).
//!
//! Each report is a [`StateDigest`]: the hash plus its register and
//! per-page parts. So a divergence also says whether the registers
//! differ and, for recent epochs, which RAM pages differ.

use hvft_machine::statehash::StateDigest;

/// One recorded divergence: a pair of replicas whose state hashes
/// differed at the same epoch boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Epoch at whose boundary the states differed.
    pub epoch: u64,
    /// The replica whose hash set the epoch's reference (first report).
    pub replica_a: usize,
    /// Reference replica's state hash.
    pub hash_a: u64,
    /// The replica that disagreed with the reference.
    pub replica_b: usize,
    /// Disagreeing replica's state hash.
    pub hash_b: u64,
    /// Whether the register part (registers, PC, PSW, hashed control
    /// registers) differs.
    pub regs_differ: bool,
    /// Indices of the RAM pages whose digests differ, or `None` when the
    /// reference's page digests had already left the `PAGE_WINDOW`.
    pub pages: Option<Vec<usize>>,
}

/// Per-epoch record: the reference report plus how many reports arrived.
#[derive(Clone, Copy, Debug)]
struct EpochRecord {
    reference: (usize, u64),
    reference_regs: u64,
    reports: u32,
}

/// How far behind the most recent reported epoch records are retained.
/// Replicas lag each other by at most a couple of epochs (the backup
/// runs one epoch behind the primary, plus channel latency), so a
/// generous window keeps memory O(window) over billion-instruction
/// runs without ever dropping a comparison that could still happen.
const RETAIN_EPOCHS: u64 = 1024;

/// How many of the most recent epochs keep the reference's page
/// digests, to name the differing pages of a divergence. A backup lags
/// by at most a couple of epochs; older divergences report no pages.
const PAGE_WINDOW: u64 = 8;

/// Collects per-epoch state digests from any number of replicas and
/// reports mismatches.
#[derive(Clone, Debug, Default)]
pub struct LockstepChecker {
    epochs: std::collections::BTreeMap<u64, EpochRecord>,
    /// Reference page digests of the most recent `PAGE_WINDOW` epochs.
    reference_pages: std::collections::BTreeMap<u64, Vec<u64>>,
    compared: u64,
    divergences: Vec<Divergence>,
}

impl LockstepChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `replica` reaching the end of `epoch` with the given
    /// state digest. The first report for an epoch becomes its
    /// reference; every later report is compared against it. Records
    /// more than a fixed window (`RETAIN_EPOCHS`) behind the newest
    /// reported epoch are pruned, bounding memory for arbitrarily long
    /// runs.
    pub fn record(&mut self, replica: usize, epoch: u64, state: StateDigest) {
        if epoch > RETAIN_EPOCHS {
            let keep_from = epoch - RETAIN_EPOCHS;
            if self
                .epochs
                .first_key_value()
                .is_some_and(|(&e, _)| e < keep_from)
            {
                self.epochs = self.epochs.split_off(&keep_from);
            }
        }
        match self.epochs.get_mut(&epoch) {
            None => {
                self.epochs.insert(
                    epoch,
                    EpochRecord {
                        reference: (replica, state.hash),
                        reference_regs: state.regs,
                        reports: 1,
                    },
                );
                self.reference_pages.insert(epoch, state.pages);
                self.reference_pages.retain(|&e, _| e + PAGE_WINDOW > epoch);
            }
            Some(rec) => {
                rec.reports += 1;
                self.compared += 1;
                let (ref_replica, ref_hash) = rec.reference;
                if state.hash != ref_hash {
                    let pages = self.reference_pages.get(&epoch).map(|reference| {
                        (reference.iter().zip(&state.pages).enumerate())
                            .filter(|(_, (a, b))| a != b)
                            .map(|(page, _)| page)
                            .collect()
                    });
                    self.divergences.push(Divergence {
                        epoch,
                        replica_a: ref_replica,
                        hash_a: ref_hash,
                        replica_b: replica,
                        hash_b: state.hash,
                        regs_differ: state.regs != rec.reference_regs,
                        pages,
                    });
                }
            }
        }
    }

    /// Number of cross-replica comparisons performed (an epoch reported
    /// by `k` replicas contributes `k - 1`).
    pub fn compared(&self) -> u64 {
        self.compared
    }

    /// All recorded divergences, in the order they were detected.
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// Whether every comparison matched.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Number of replicas that reported `epoch` so far.
    pub fn reports_for(&self, epoch: u64) -> u32 {
        self.epochs.get(&epoch).map_or(0, |r| r.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest whose register part and four pages all equal `hash`.
    fn d(hash: u64) -> StateDigest {
        StateDigest {
            hash,
            regs: hash,
            pages: vec![hash; 4],
        }
    }

    #[test]
    fn matching_hashes_are_clean() {
        let mut c = LockstepChecker::new();
        for e in 0..10 {
            c.record(0, e, d(0xAB + e));
            c.record(1, e, d(0xAB + e));
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), 10);
    }

    #[test]
    fn mismatch_reports_the_pair() {
        let mut c = LockstepChecker::new();
        c.record(0, 3, d(1));
        c.record(1, 3, d(2));
        assert!(!c.is_clean());
        assert_eq!(
            c.divergences(),
            &[Divergence {
                epoch: 3,
                replica_a: 0,
                hash_a: 1,
                replica_b: 1,
                hash_b: 2,
                regs_differ: true,
                pages: Some(vec![0, 1, 2, 3]),
            }]
        );
    }

    #[test]
    fn a_one_page_mutation_names_exactly_that_page() {
        let mut c = LockstepChecker::new();
        let mut b = d(7);
        b.hash = 8;
        b.pages[2] = 99;
        c.record(0, 0, d(7));
        c.record(1, 0, b);
        let div = &c.divergences()[0];
        assert!(!div.regs_differ);
        assert_eq!(div.pages, Some(vec![2]));
    }

    #[test]
    fn pages_are_named_only_within_the_window() {
        let mut c = LockstepChecker::new();
        // The reference runs PAGE_WINDOW epochs ahead: the oldest
        // epoch's page digests are gone, the next one's are kept.
        for e in 0..=PAGE_WINDOW {
            c.record(0, e, d(1));
        }
        c.record(1, 0, d(2));
        c.record(1, 1, d(2));
        let divs = c.divergences();
        assert_eq!((divs[0].epoch, divs[0].pages.clone()), (0, None));
        assert_eq!(divs[1].pages, Some(vec![0, 1, 2, 3]));
        assert!(divs[0].regs_differ, "the register part outlives the window");
    }

    #[test]
    fn out_of_order_and_partial_epochs() {
        let mut c = LockstepChecker::new();
        // The backup lags; epochs arrive interleaved.
        c.record(0, 0, d(7));
        c.record(0, 1, d(8));
        c.record(1, 0, d(7));
        assert_eq!(c.compared(), 1);
        assert!(c.is_clean());
        // Epoch 1 never compared (backup died) — still clean.
        assert_eq!(c.reports_for(1), 1);
    }

    #[test]
    fn n_replicas_compare_against_the_first_report() {
        let mut c = LockstepChecker::new();
        for r in 0..4 {
            c.record(r, 0, d(0xFEED));
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), 3);
        // A fifth replica disagrees: exactly one divergence, naming the
        // reference replica and the deviant.
        c.record(4, 0, d(0xBAD));
        assert_eq!(c.divergences().len(), 1);
        let div = &c.divergences()[0];
        assert_eq!((div.replica_a, div.replica_b), (0, 4));
        assert_eq!((div.hash_a, div.hash_b), (0xFEED, 0xBAD));
    }

    #[test]
    fn old_records_are_pruned_to_a_window() {
        let mut c = LockstepChecker::new();
        for e in 0..(RETAIN_EPOCHS * 3) {
            c.record(0, e, d(e));
            c.record(1, e, d(e));
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), RETAIN_EPOCHS * 3);
        // Ancient epochs are gone; recent ones remain queryable.
        assert_eq!(c.reports_for(0), 0);
        assert_eq!(c.reports_for(RETAIN_EPOCHS * 3 - 1), 2);
        assert_eq!(c.reference_pages.len() as u64, PAGE_WINDOW);
    }

    #[test]
    fn divergence_between_two_backups_is_caught() {
        let mut c = LockstepChecker::new();
        c.record(0, 5, d(10));
        c.record(1, 5, d(10));
        c.record(2, 5, d(11));
        assert_eq!(c.compared(), 2);
        assert_eq!(c.divergences().len(), 1);
        assert_eq!(c.divergences()[0].replica_b, 2);
    }
}
