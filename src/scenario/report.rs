//! Sweep reports. A single run reports in
//! [`RunReport`](specfaith_fpss::runner::RunReport), which the scenario
//! module re-exports.

use specfaith_core::equilibrium::{DeviationOutcome, EquilibriumReport, EquilibriumSuite};
use std::fmt;

/// The result of a [`Scenario::sweep`](super::Scenario::sweep): one
/// [`EquilibriumReport`] per seed, in the caller's seed order.
///
/// Equality is exact (delegating to [`EquilibriumReport`]'s field-wise
/// equality) — the determinism guarantee "parallel ≡ serial" is literally
/// `assert_eq!` on two of these.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// `(seed, report)` per swept seed.
    pub per_seed: Vec<(u64, EquilibriumReport)>,
}

impl SweepReport {
    /// The per-seed reports.
    pub fn reports(&self) -> impl Iterator<Item = &EquilibriumReport> {
        self.per_seed.iter().map(|(_, report)| report)
    }

    /// Ex post Nash across every swept seed.
    pub fn is_ex_post_nash(&self) -> bool {
        self.reports().all(EquilibriumReport::is_ex_post_nash)
    }

    /// Strong-CC across every swept seed.
    pub fn strong_cc_holds(&self) -> bool {
        self.reports().all(EquilibriumReport::strong_cc_holds)
    }

    /// Strong-AC across every swept seed.
    pub fn strong_ac_holds(&self) -> bool {
        self.reports().all(EquilibriumReport::strong_ac_holds)
    }

    /// IC across every swept seed.
    pub fn ic_holds(&self) -> bool {
        self.reports().all(EquilibriumReport::ic_holds)
    }

    /// Total `(node, deviation)` cells tested across all seeds (excluding
    /// the per-seed faithful baselines).
    pub fn total_deviations(&self) -> usize {
        self.reports().map(|r| r.outcomes.len()).sum()
    }

    /// Every strictly profitable deviation, with the seed it appeared
    /// under.
    pub fn violations(&self) -> impl Iterator<Item = (u64, &DeviationOutcome)> {
        self.per_seed
            .iter()
            .flat_map(|(seed, report)| report.violations().map(move |v| (*seed, v)))
    }

    /// Fraction of tested cells flagged by enforcement, `None` when the
    /// sweep was empty.
    pub fn detection_rate(&self) -> Option<f64> {
        let total = self.total_deviations();
        if total == 0 {
            return None;
        }
        let detected: usize = self
            .reports()
            .map(|r| r.outcomes.iter().filter(|o| o.detected).count())
            .sum();
        Some(detected as f64 / total as f64)
    }

    /// The canonical JSON rendering of this report: compact (no
    /// whitespace), fields in a fixed order, integer money values — the
    /// byte string [`SweepReport::fingerprint`] hashes. Two reports
    /// render identically iff they are `==`, so "merged fragments are
    /// byte-identical to the single-process sweep" is checkable either
    /// in-process (`assert_eq!`) or across machines (fingerprint
    /// comparison, as the CI `sweep-merge` job does).
    pub fn to_canonical_json(&self) -> String {
        use super::shard::spec_to_json;
        let mut out = String::from("{\"format\":\"specfaith-sweep-report-v1\",\"per_seed\":[");
        for (i, (seed, report)) in self.per_seed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seed\":{seed},\"faithful_utilities\":[{}],\"outcomes\":[",
                report
                    .faithful_utilities
                    .iter()
                    .map(|m| m.value().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            for (j, outcome) in report.outcomes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"agent\":{},\"deviation\":{},\"faithful_utility\":{},\
                     \"deviant_utility\":{},\"detected\":{}}}",
                    outcome.agent,
                    spec_to_json(&outcome.deviation),
                    outcome.faithful_utility.value(),
                    outcome.deviant_utility.value(),
                    outcome.detected
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// A deterministic content fingerprint (`fnv1a64:` + 16 hex digits)
    /// over [`SweepReport::to_canonical_json`]. Equal reports — e.g. a
    /// merged shard set and the single-process sweep — always share it;
    /// CI pins the sharded quick sweep's merged fingerprint against a
    /// committed baseline on every PR.
    pub fn fingerprint(&self) -> String {
        format!(
            "fnv1a64:{:016x}",
            super::shard::fnv1a64(self.to_canonical_json().as_bytes())
        )
    }

    /// Converts into the labeled [`EquilibriumSuite`] the certificate
    /// assembly expects, labeling each report `seed-<seed>`.
    pub fn to_suite(&self) -> EquilibriumSuite {
        let mut suite = EquilibriumSuite::new();
        for (seed, report) in &self.per_seed {
            suite.push(format!("seed-{seed}"), report.clone());
        }
        suite
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} seeds, {} deviation cells; ex post Nash: {}, strong-CC: {}, strong-AC: {}, IC: {}",
            self.per_seed.len(),
            self.total_deviations(),
            self.is_ex_post_nash(),
            self.strong_cc_holds(),
            self.strong_ac_holds(),
            self.ic_holds()
        )?;
        for (seed, violation) in self.violations() {
            writeln!(
                f,
                "  VIOLATION [seed {seed}]: agent {} gains {} via {}",
                violation.agent,
                violation.gain(),
                violation.deviation
            )?;
        }
        Ok(())
    }
}
