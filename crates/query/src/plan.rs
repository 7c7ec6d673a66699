//! Query planning: resolving a parsed query against data-set statistics
//! and choosing the sampling method.

use storm_core::cost::{self, CostInputs};
use storm_core::SamplerKind;
use storm_geo::{Rect2, StQuery};

use crate::ast::{Query, Task};
use crate::QlError;

/// The statistics the optimizer consults (all maintained by the engine,
/// none require touching the data).
#[derive(Debug, Clone, Copy)]
pub struct DatasetStats {
    /// Data set size `N`.
    pub n: usize,
    /// Spatial extent of the data.
    pub bounds: Rect2,
    /// Height of the base R-tree.
    pub height: u32,
    /// Block size / fanout `B`.
    pub block: usize,
}

/// A planned query, ready for the executor.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The original query.
    pub query: Query,
    /// The resolved spatio-temporal range.
    pub st_query: StQuery,
    /// The sampling method the executor should use.
    pub sampler: SamplerKind,
    /// The estimated result size the plan was based on.
    pub q_est: usize,
    /// Expected samples the consumer will pull (from budgets, or a default
    /// working-set guess for quality-driven queries).
    pub k_est: usize,
}

/// Default `k` guess when the query gives no sample budget: enough for a
/// sub-percent standard error on typical attribute distributions.
pub const DEFAULT_K_GUESS: usize = 1024;

/// Plans a query.
///
/// `q_est` is the caller's estimate of `|P ∩ Q|` (the engine gets it
/// exactly from aggregate counts in `O(r(N))`).
pub fn plan(query: Query, stats: &DatasetStats, q_est: usize) -> Result<Plan, QlError> {
    let rect = query.range.unwrap_or(stats.bounds);
    let st_query = StQuery::new(rect, query.time_range());
    if st_query.to_rect3().is_none() {
        return Err(QlError::Plan {
            message: "the TIME range is empty".into(),
        });
    }
    let k_est = query
        .termination
        .sample_budget
        .unwrap_or(DEFAULT_K_GUESS)
        .min(q_est.max(1));
    // Tasks that must see every matching record (exact COUNT via index
    // counts is handled by the executor without sampling at all).
    let sampler = match query.method {
        Some(SamplerKind::LsTree) => {
            return Err(QlError::Plan {
                message: "the engine serves no LS-tree; use METHOD rstree".into(),
            });
        }
        Some(kind) => kind,
        None => cost::recommend(
            &CostInputs {
                n: stats.n,
                q_est,
                k_est,
                block: stats.block,
                height: stats.height,
            },
            query.mode,
        ),
    };
    if let Task::Density { grid } = &query.task {
        if grid.0 * grid.1 > 1_000_000 {
            return Err(QlError::Plan {
                message: "DENSITY grid too large (max 10^6 cells)".into(),
            });
        }
    }
    Ok(Plan {
        query,
        st_query,
        sampler,
        q_est,
        k_est,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use storm_geo::Point2;

    fn stats() -> DatasetStats {
        DatasetStats {
            n: 10_000_000,
            bounds: Rect2::from_corners(Point2::xy(-180.0, -90.0), Point2::xy(180.0, 90.0)),
            height: 4,
            block: 64,
        }
    }

    #[test]
    fn optimizer_chooses_an_index_method_for_selective_queries() {
        let q = parse("ESTIMATE AVG(alt) FROM osm RANGE 0 0 10 10 SAMPLES 100").unwrap();
        let p = plan(q, &stats(), 1_000_000).unwrap();
        assert_eq!(p.sampler, SamplerKind::RsTree);
        assert_eq!(p.k_est, 100);
    }

    #[test]
    fn forced_method_wins() {
        let q = parse("ESTIMATE AVG(alt) FROM osm METHOD randompath").unwrap();
        let p = plan(q, &stats(), 1_000_000).unwrap();
        assert_eq!(p.sampler, SamplerKind::RandomPath);
    }

    #[test]
    fn ls_is_rejected_in_either_mode() {
        for mode in ["wr", "wor"] {
            let q = parse(&format!(
                "ESTIMATE AVG(alt) FROM osm METHOD lstree MODE {mode}"
            ))
            .unwrap();
            assert!(plan(q, &stats(), 1000).is_err(), "MODE {mode}");
        }
    }

    #[test]
    fn missing_range_defaults_to_data_bounds() {
        let q = parse("ESTIMATE COUNT FROM osm").unwrap();
        let p = plan(q, &stats(), 10_000_000).unwrap();
        assert_eq!(p.st_query.rect, stats().bounds);
    }

    #[test]
    fn empty_time_range_fails_planning() {
        let q = parse("ESTIMATE COUNT FROM osm TIME 100 100").unwrap();
        assert!(plan(q, &stats(), 100).is_err());
    }

    #[test]
    fn tiny_results_force_query_first() {
        let q = parse("ESTIMATE AVG(alt) FROM osm RANGE 0 0 1 1").unwrap();
        let p = plan(q, &stats(), 50).unwrap(); // k_est >= q
        assert_eq!(p.sampler, SamplerKind::QueryFirst);
    }

    #[test]
    fn oversized_density_grid_is_rejected() {
        let q = parse("DENSITY FROM t GRID 2000 2000").unwrap();
        assert!(plan(q, &stats(), 1000).is_err());
    }
}
