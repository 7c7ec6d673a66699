//! The sampler cost model.
//!
//! STORM's query optimizer "implements a set of basic query optimization
//! rules for deciding which method the sampler should use when generating
//! spatial online samples for a given query" (paper §3.2). The rules here
//! score each method in estimated simulated block I/Os — the same unit the
//! paper's §3.1 analysis uses — from three statistics that are cheap to
//! obtain before running the query: `N`, an estimate of `q = |P ∩ Q|`
//! (from aggregate counts), and a hint of how many samples `k` the caller
//! expects to need (from the accuracy target; unbounded if unknown).

use crate::{SampleMode, SamplerKind};

/// Inputs to the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostInputs {
    /// Data set size `N`.
    pub n: usize,
    /// Estimated result size `q` (exact when derived from counts).
    pub q_est: usize,
    /// Expected number of samples the consumer will pull.
    pub k_est: usize,
    /// Block size `B` (tree fanout).
    pub block: usize,
    /// Height of the base R-tree.
    pub height: u32,
}

impl CostInputs {
    fn b(&self) -> f64 {
        self.block.max(2) as f64
    }

    /// Estimated node visits of a full range report: root path + boundary
    /// perimeter + output, the standard 2-D R-tree bound
    /// `O(sqrt(N/B) + q/B)`.
    fn report_cost(&self, q: f64) -> f64 {
        self.height as f64 + (self.n as f64 / self.b()).sqrt() + q / self.b()
    }
}

/// Estimated simulated-I/O cost of serving `k_est` samples with `kind`.
///
/// Infinite for method/query combinations that diverge (SampleFirst with
/// `q = 0`).
pub fn io_cost(kind: SamplerKind, inp: &CostInputs) -> f64 {
    let n = inp.n as f64;
    let q = inp.q_est as f64;
    let k = inp.k_est as f64;
    let b = inp.b();
    let h = inp.height as f64;
    match kind {
        SamplerKind::QueryFirst => inp.report_cost(q),
        SamplerKind::SampleFirst => {
            if inp.q_est == 0 {
                f64::INFINITY
            } else {
                k * n / q
            }
        }
        SamplerKind::RandomPath => k * h.max(1.0),
        SamplerKind::LsTree => {
            // Levels touched: from the top (~log2(N/B) levels) down to the
            // level where the coin-flip sample exceeds k, i.e. 2^-j q ≈ k.
            let levels = (n / b).log2().max(1.0);
            let stop = (q / k.max(1.0)).log2().clamp(0.0, levels);
            let touched = (levels - stop).max(1.0);
            // Each touched level pays a (progressively smaller) report; the
            // geometric series is dominated by a couple of terms.
            // storm-lint: allow(R5): stop is clamped into [0, log2(n/b)] <= 63 above
            touched * (h + (n / b).sqrt() / (1u64 << stop as u32) as f64) + k / b
        }
        SamplerKind::RsTree => {
            // Canonical set + one buffer read per sample block + descent
            // refills amortised over the buffer size.
            let canonical = h + (n / b).sqrt();
            canonical + k / b + (k / b) * h
        }
    }
}

/// The methods [`recommend`] compares, with their scores, in tie-break
/// order (the first of equal scores wins).
///
/// The LS-tree is not a candidate of its own: the engine serves its picks
/// with the RS-tree's frozen kernel. It only produces without-replacement
/// streams, so in that mode the RS-tree scores the cheaper of the two
/// estimates, and the pick is the one a five-way comparison would make
/// with an LS-tree pick handed to the RS-tree.
pub fn scores(inp: &CostInputs, mode: SampleMode) -> [(SamplerKind, f64); 4] {
    let cost = |kind| io_cost(kind, inp);
    let rs = match mode {
        SampleMode::WithoutReplacement => cost(SamplerKind::RsTree).min(cost(SamplerKind::LsTree)),
        SampleMode::WithReplacement => cost(SamplerKind::RsTree),
    };
    [
        (SamplerKind::QueryFirst, cost(SamplerKind::QueryFirst)),
        (SamplerKind::SampleFirst, cost(SamplerKind::SampleFirst)),
        (SamplerKind::RandomPath, cost(SamplerKind::RandomPath)),
        (SamplerKind::RsTree, rs),
    ]
}

/// Picks the cheapest applicable method for the query.
///
/// Rules beyond raw cost, mirroring STORM's optimizer:
/// * the LS-tree is never picked (see [`scores`]);
/// * when the consumer will read (nearly) the whole result anyway
///   (`k_est >= q_est`), QueryFirst is never worse — the exact answer costs
///   the same as the samples;
/// * SampleFirst is excluded for empty-estimate queries (divergence).
pub fn recommend(inp: &CostInputs, mode: SampleMode) -> SamplerKind {
    if inp.k_est >= inp.q_est {
        return SamplerKind::QueryFirst;
    }
    scores(inp, mode)
        .into_iter()
        .filter(|(_, c)| c.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(SamplerKind::QueryFirst, |(kind, _)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, q: usize, k: usize) -> CostInputs {
        CostInputs {
            n,
            q_est: q,
            k_est: k,
            block: 64,
            height: (n as f64).log(64.0).ceil().max(1.0) as u32,
        }
    }

    #[test]
    fn selective_small_k_prefers_an_index_sampler() {
        // 10M points, q = 1M, k = 100: the RS-tree should win by a mile.
        let inp = inputs(10_000_000, 1_000_000, 100);
        let pick = recommend(&inp, SampleMode::WithoutReplacement);
        assert_eq!(pick, SamplerKind::RsTree);
        assert!(io_cost(pick, &inp) * 10.0 < io_cost(SamplerKind::QueryFirst, &inp));
    }

    #[test]
    fn reading_everything_prefers_query_first() {
        let inp = inputs(1_000_000, 5_000, 5_000);
        assert_eq!(
            recommend(&inp, SampleMode::WithoutReplacement),
            SamplerKind::QueryFirst
        );
        // k > q as well.
        let inp = inputs(1_000_000, 5_000, 50_000);
        assert_eq!(
            recommend(&inp, SampleMode::WithReplacement),
            SamplerKind::QueryFirst
        );
    }

    #[test]
    fn whole_space_queries_make_sample_first_viable() {
        // q ≈ N and few samples: N/q ≈ 1 probe per sample beats walking the
        // tree (h I/Os per sample).
        let inp = inputs(10_000_000, 9_900_000, 50);
        let cost_sf = io_cost(SamplerKind::SampleFirst, &inp);
        assert!(cost_sf < io_cost(SamplerKind::RandomPath, &inp));
        assert!(cost_sf < io_cost(SamplerKind::QueryFirst, &inp));
        let pick = recommend(&inp, SampleMode::WithReplacement);
        assert_eq!(pick, SamplerKind::SampleFirst);
    }

    #[test]
    fn empty_estimate_never_picks_sample_first() {
        let inp = inputs(1_000_000, 0, 100);
        let pick = recommend(&inp, SampleMode::WithReplacement);
        assert_ne!(pick, SamplerKind::SampleFirst);
    }

    #[test]
    fn ls_is_never_recommended_in_either_mode() {
        for mode in [SampleMode::WithReplacement, SampleMode::WithoutReplacement] {
            for (q, k) in [(1_000_000, 10), (100_000, 1000), (10_000, 10)] {
                let inp = inputs(10_000_000, q, k);
                assert_ne!(recommend(&inp, mode), SamplerKind::LsTree, "{mode:?}");
            }
        }
    }

    /// The five-way comparison `recommend` replaces: the cheapest finite
    /// method, the LS-tree only without replacement, first of equals wins.
    fn five_way_pick(inp: &CostInputs, mode: SampleMode) -> SamplerKind {
        use SamplerKind::{LsTree, QueryFirst, RandomPath, RsTree, SampleFirst};
        let ls_ok = mode == SampleMode::WithoutReplacement;
        [QueryFirst, SampleFirst, RandomPath, RsTree, LsTree]
            .into_iter()
            .filter(|&kind| inp.k_est < inp.q_est && (kind != LsTree || ls_ok))
            .map(|kind| (kind, io_cost(kind, inp)))
            .filter(|(_, c)| c.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(QueryFirst, |(kind, _)| kind)
    }

    #[test]
    fn picks_equal_the_five_way_rule_with_ls_served_by_rs() {
        let mut ls_picks = 0;
        for n in [1_000, 100_000, 10_000_000] {
            for (q, k) in [0, 1, 100, n / 100, n / 2, n]
                .into_iter()
                .flat_map(|q| [1, 10, 1_000, 100_000].map(|k| (q, k)))
            {
                for mode in [SampleMode::WithReplacement, SampleMode::WithoutReplacement] {
                    let inp = inputs(n, q, k);
                    let mut reference = five_way_pick(&inp, mode);
                    if reference == SamplerKind::LsTree {
                        ls_picks += 1;
                        reference = SamplerKind::RsTree;
                    }
                    assert_eq!(
                        recommend(&inp, mode),
                        reference,
                        "n={n} q={q} k={k} {mode:?}"
                    );
                }
            }
        }
        assert!(ls_picks > 0, "the grid never reaches an LS-tree pick");
    }

    #[test]
    fn costs_grow_with_k_for_per_sample_methods() {
        let a = inputs(1_000_000, 100_000, 10);
        let b = inputs(1_000_000, 100_000, 10_000);
        for kind in [
            SamplerKind::SampleFirst,
            SamplerKind::RandomPath,
            SamplerKind::RsTree,
        ] {
            assert!(io_cost(kind, &b) > io_cost(kind, &a), "{kind}");
        }
        // QueryFirst is flat in k.
        assert_eq!(
            io_cost(SamplerKind::QueryFirst, &a),
            io_cost(SamplerKind::QueryFirst, &b)
        );
    }
}
