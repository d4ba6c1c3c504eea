//! Correctness checks and the ledger of attempted and failed operations.
//!
//! Every timed repetition and every standalone check is one *operation*.
//! A check that does not hold is recorded as a failed operation — it never
//! panics — so a run on broken code still ends with a result line that says
//! `"correct": false` and how many operations failed.

use pselinv_mpisim::RankVolume;
use pselinv_selinv::SelectedInverse;

/// The engines agree with the sequential oracle to this relative error.
pub const ORACLE_TOL: f64 = 1e-9;

/// Counts operations and keeps the reason of each failure.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation; returns whether it passed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
                self.failures.push(format!("{what}: {why}"));
                false
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Turns a condition into a check outcome.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Bitwise equality of two selected inverses over every stored panel entry.
pub fn same_bits(a: &SelectedInverse, b: &SelectedInverse) -> Result<(), String> {
    ensure(a.panels.len() == b.panels.len(), || "supernode counts differ".into())?;
    for (s, (pa, pb)) in a.panels.iter().zip(&b.panels).enumerate() {
        for (part, ma, mb) in [("diag", &pa.diag, &pb.diag), ("below", &pa.below, &pb.below)] {
            ensure(ma.nrows() == mb.nrows() && ma.ncols() == mb.ncols(), || {
                format!("supernode {s} {part}: shapes differ")
            })?;
            if let Some(at) =
                ma.data().iter().zip(mb.data()).position(|(x, y)| x.to_bits() != y.to_bits())
            {
                let (i, j) = (at % ma.nrows(), at / ma.nrows());
                return Err(format!(
                    "supernode {s} {part}[{i},{j}]: {:e} vs {:e} differ in their bits",
                    ma.data()[at],
                    mb.data()[at]
                ));
            }
        }
    }
    Ok(())
}

/// Largest panel-relative error of `got` against `oracle`: per panel,
/// `max |got − oracle| / max |oracle|`, maximised over all panels.
pub fn max_rel_err(got: &SelectedInverse, oracle: &SelectedInverse) -> f64 {
    let mut worst = 0.0f64;
    for (pg, po) in got.panels.iter().zip(&oracle.panels) {
        let scale = po.diag.norm_max().max(po.below.norm_max());
        let mut diff = 0.0f64;
        for (g, o) in [(&pg.diag, &po.diag), (&pg.below, &po.below)] {
            for (x, y) in g.data().iter().zip(o.data()) {
                let d = (x - y).abs();
                if d.is_nan() {
                    return f64::NAN;
                }
                diff = diff.max(d);
            }
        }
        if diff > 0.0 {
            worst = worst.max(diff / scale);
        }
    }
    worst
}

/// `got` within [`ORACLE_TOL`] of the sequential oracle.
pub fn near_oracle(got: &SelectedInverse, oracle: &SelectedInverse) -> Result<f64, String> {
    let err = max_rel_err(got, oracle);
    // `!(err <= tol)` also catches a NaN.
    if err <= ORACLE_TOL {
        Ok(err)
    } else {
        Err(format!("max relative error {err:e} exceeds {ORACLE_TOL:e}"))
    }
}

/// The logical counters of two per-rank volume vectors agree: bytes and
/// message counts, sent and received. (`copied` and `retransmitted` are
/// aggregate-only in a batched run and are not compared.)
pub fn same_logical_volumes(a: &[RankVolume], b: &[RankVolume]) -> Result<(), String> {
    ensure(a.len() == b.len(), || "rank counts differ".into())?;
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        let (lx, ly) = (
            (x.sent, x.received, x.msgs_sent, x.msgs_received),
            (y.sent, y.received, y.msgs_sent, y.msgs_received),
        );
        ensure(lx == ly, || {
            format!("rank {r}: (sent, received, msgs_sent, msgs_received) {lx:?} vs {ly:?}")
        })?;
    }
    Ok(())
}

/// No recovery traffic: the fault-free transports never retransmit.
pub fn no_retransmits(volumes: &[RankVolume]) -> Result<(), String> {
    let bytes: u64 = volumes.iter().map(|v| v.retransmitted).sum();
    ensure(bytes == 0, || format!("{bytes} retransmitted bytes on a loss-free run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use std::sync::Arc;

    fn small_inverse() -> SelectedInverse {
        let w = gen::grid_laplacian_2d(6, 6);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf).expect("SPD Laplacian factors");
        pselinv_selinv::selinv_ldlt(&f)
    }

    /// One ulp in one entry of a copy is a *failed operation* in the ledger,
    /// not a panic — and still far inside the oracle tolerance.
    #[test]
    fn a_one_ulp_perturbation_is_a_failed_operation_not_a_panic() {
        let reference = small_inverse();
        let mut copy = reference.clone();
        let mut ledger = Ledger::default();
        assert!(ledger.record("identical copy", same_bits(&copy, &reference)));

        let s = copy.panels.iter().position(|p| p.below.nrows() > 0).expect("a panel with rows");
        let entry = &mut copy.panels[s].below.data_mut()[0];
        *entry = f64::from_bits(entry.to_bits() + 1);

        assert!(!ledger.record("perturbed copy", same_bits(&copy, &reference)));
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(!ledger.correct());
        assert!(
            ledger.failures[0].contains(&format!("supernode {s} below[0,0]")),
            "{:?}",
            ledger.failures
        );

        let err = near_oracle(&copy, &reference).expect("one ulp is within tolerance");
        assert!(err > 0.0 && err < 1e-15);
    }

    #[test]
    fn oracle_check_rejects_a_wrong_entry_and_nan() {
        let reference = small_inverse();
        let mut wrong = reference.clone();
        wrong.panels[0].diag.data_mut()[0] *= 1.0 + 1e-6;
        assert!(near_oracle(&wrong, &reference).is_err());
        wrong.panels[0].diag.data_mut()[0] = f64::NAN;
        assert!(near_oracle(&wrong, &reference).is_err());
        assert_eq!(near_oracle(&reference, &reference), Ok(0.0));
    }

    #[test]
    fn volume_checks_compare_logical_counters_only() {
        let a = RankVolume {
            sent: 8,
            received: 16,
            msgs_sent: 1,
            msgs_received: 2,
            copied: 8,
            retransmitted: 0,
        };
        let b = RankVolume { copied: 0, ..a };
        assert!(same_logical_volumes(&[a], &[b]).is_ok());
        assert!(same_logical_volumes(&[a], &[RankVolume { msgs_sent: 2, ..a }]).is_err());
        assert!(same_logical_volumes(&[a], &[a, a]).is_err());
        assert!(no_retransmits(&[a]).is_ok());
        assert!(no_retransmits(&[RankVolume { retransmitted: 24, ..a }]).is_err());
    }
}
