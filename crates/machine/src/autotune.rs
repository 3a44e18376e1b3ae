//! Tile-size autotuning (§2.1: "like most tiling frameworks, we rely on
//! autotuning for selecting tile sizes", bounded by the L2 capacity rule).
//!
//! The tuner enumerates capacity-respecting, legality-respecting tile
//! candidates from `instencil_pattern::tiling` and scores each with the
//! cost estimator, reproducing the per-thread-count tile choices of the
//! paper's Tables 2 and 3.

use std::error::Error;
use std::fmt;

use instencil_obs::{AutotuneCandidate, AutotuneTrace, Obs};
use instencil_pattern::tiling::{candidate_tile_sizes, clamp_tile_sizes};
use instencil_pattern::{blockdeps, Scheduler, StencilPattern};

use crate::cost::{estimate_sweep, estimate_sweep_dataflow, RunConfig};
use crate::topology::Machine;

/// The autotuner found no legal candidate: every enumerated tile was
/// filtered out by the vector-chunk, legality, or sub-domain-grid
/// constraints. Happens on degenerate inputs — domains smaller than one
/// vector chunk, or thread counts exceeding any possible sub-domain
/// grid — where the search space is genuinely empty.
#[derive(Clone, Debug)]
pub struct AutotuneError {
    /// The problem domain that produced an empty search space.
    pub domain: Vec<usize>,
    /// The requested thread count.
    pub threads: usize,
    /// Candidates enumerated before filtering (0 = capacity rule
    /// admitted nothing).
    pub candidates: usize,
}

impl fmt::Display for AutotuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "autotune: no legal tile candidate for domain {:?} with {} threads \
             ({} candidates enumerated, all filtered)",
            self.domain, self.threads, self.candidates
        )
    }
}

impl Error for AutotuneError {}

/// Result of one autotuning search.
#[derive(Clone, Debug)]
pub struct TunedTiles {
    /// The winning cache-tile sizes.
    pub tile: Vec<usize>,
    /// The winning sub-domain sizes.
    pub subdomain: Vec<usize>,
    /// Estimated sweep time of the winner, seconds.
    pub time_s: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// The execution schedule the winning estimate assumed: each
    /// candidate is scored under both the level-barrier and the
    /// dataflow model (when more than one thread is available) and the
    /// cheaper one wins alongside the tile sizes.
    pub scheduler: Scheduler,
}

/// Scores one candidate configuration under every scheduler the thread
/// count admits and returns the cheaper estimate. Single-threaded runs
/// execute inline without a pool, so only the levels model applies.
fn score_candidate(m: &Machine, cfg: &RunConfig) -> (f64, Scheduler) {
    let levels = estimate_sweep(m, cfg).total_s;
    if cfg.threads <= 1 {
        return (levels, Scheduler::Levels);
    }
    let dataflow = estimate_sweep_dataflow(m, cfg).total_s;
    if dataflow < levels {
        (dataflow, Scheduler::Dataflow)
    } else {
        (levels, Scheduler::Levels)
    }
}

/// Searches tile and sub-domain sizes minimizing the estimated sweep
/// time for a given thread count. `proto` supplies the measured op mix
/// and workload geometry; its `tile`/`subdomain`/`deps` fields are
/// overwritten per candidate.
///
/// Sub-domain candidates are derived from each tile candidate by scaling
/// with small integer factors, mirroring the paper's two-level scheme
/// (sub-domains are unions of cache tiles).
///
/// # Errors
/// Returns [`AutotuneError`] when every candidate is filtered out (tiny
/// domains, excessive thread counts). Use [`autotune_or_fallback`] when a
/// usable-if-suboptimal answer is preferred over an error.
pub fn autotune(
    m: &Machine,
    pattern: &StencilPattern,
    proto: &RunConfig,
    threads: usize,
) -> Result<TunedTiles, AutotuneError> {
    autotune_traced(m, pattern, proto, threads, &Obs::off())
}

/// [`autotune`] recording the search into `obs` as an
/// [`AutotuneTrace`]: every enumerated candidate with its cost-model
/// score or rejection verdict, and the winner marked. At
/// `ObsLevel::Summary` only the winning candidate is kept in the table;
/// at `ObsLevel::Trace` the full table is recorded. The trace is
/// recorded even when the search fails (all candidates rejected).
///
/// # Errors
/// See [`autotune`].
pub fn autotune_traced(
    m: &Machine,
    pattern: &StencilPattern,
    proto: &RunConfig,
    threads: usize,
    obs: &Obs,
) -> Result<TunedTiles, AutotuneError> {
    let k = pattern.rank();
    let mut span = obs.span("autotune");
    let cands = candidate_tile_sizes(
        pattern,
        &proto.domain,
        proto.nb_var,
        proto.live_tensors,
        m.l2_bytes,
    );
    let recording = obs.enabled();
    let mut table: Vec<AutotuneCandidate> = Vec::new();
    let record = |table: &mut Vec<AutotuneCandidate>, c: AutotuneCandidate| {
        if recording {
            table.push(c);
        }
    };
    let mut best: Option<TunedTiles> = None;
    let mut best_record: Option<usize> = None;
    let mut evaluated = 0;
    for tile in &cands {
        // Skip degenerate candidates with tiny innermost extents (no
        // vector chunk would fit); keep 1-pinned dims.
        if tile[k - 1] < 8.min(proto.domain[k - 1]) {
            record(
                &mut table,
                AutotuneCandidate {
                    tile: tile.clone(),
                    subdomain: Vec::new(),
                    score_s: None,
                    verdict: "skip-small-inner".into(),
                    chosen: false,
                },
            );
            continue;
        }
        // The sub-domain factor set scales with the resolved thread
        // count: at 1-2 workers there is nothing to feed, so coarser
        // unions (×16, ×32) that amortize per-block scheduling
        // overhead become viable candidates too.
        let mut factors = vec![1usize, 2, 4, 8];
        if threads <= 2 {
            factors.extend([16, 32]);
        }
        for factor in factors {
            let subdomain: Vec<usize> = tile
                .iter()
                .zip(&proto.domain)
                .map(|(&t, &n)| (t * factor).min(n))
                .collect();
            let candidate = |score_s: Option<f64>, verdict: &str| AutotuneCandidate {
                tile: tile.clone(),
                subdomain: subdomain.clone(),
                score_s,
                verdict: verdict.into(),
                chosen: false,
            };
            let Ok(deps) = blockdeps::block_dependences(pattern, &subdomain) else {
                record(&mut table, candidate(None, "skip-illegal-deps"));
                continue;
            };
            // Enough sub-domains to feed the threads, but not so many
            // that scheduling overhead dominates (the paper notes the
            // number of sub-domains stays small, < 100^k).
            let grid: usize = proto
                .domain
                .iter()
                .zip(&subdomain)
                .map(|(&n, &s)| n.div_ceil(s))
                .product();
            // One block per worker is not enough: wavefronts over a
            // `grid == threads` partition are ragged, so most workers
            // idle at the start and end of every sweep. Demand 2x
            // slack when there is any parallelism to keep fed.
            let min_grid = if threads > 1 { threads * 2 } else { 1 };
            if grid < min_grid {
                record(&mut table, candidate(None, "skip-grid-threads"));
                continue;
            }
            if grid > 16_384 {
                record(&mut table, candidate(None, "skip-grid-large"));
                continue;
            }
            let mut cfg = proto.clone();
            cfg.threads = threads;
            cfg.tile = tile.clone();
            cfg.subdomain = subdomain.clone();
            cfg.deps = deps;
            let (t, scheduler) = score_candidate(m, &cfg);
            evaluated += 1;
            record(&mut table, candidate(Some(t), "evaluated"));
            if best.as_ref().is_none_or(|b| t < b.time_s) {
                best = Some(TunedTiles {
                    tile: tile.clone(),
                    subdomain,
                    time_s: t,
                    evaluated,
                    scheduler,
                });
                best_record = Some(table.len().saturating_sub(1));
            }
        }
    }
    span.note("candidates", cands.len() as i64);
    span.note("evaluated", evaluated as i64);
    drop(span);
    if recording {
        if let Some(i) = best_record {
            table[i].chosen = true;
        }
        if !obs.detail_enabled() {
            // Summary keeps only the winner's row.
            table.retain(|c| c.chosen);
        }
        obs.record_autotune(AutotuneTrace {
            domain: proto.domain.clone(),
            threads,
            evaluated,
            candidates: table,
        });
    }
    match best {
        Some(mut b) => {
            b.evaluated = evaluated;
            Ok(b)
        }
        None => Err(AutotuneError {
            domain: proto.domain.clone(),
            threads,
            candidates: cands.len(),
        }),
    }
}

/// [`autotune`], but degenerate search spaces degrade to a whole-domain
/// tiling (one tile = one sub-domain = the clamped domain) instead of
/// erroring. The fallback is always legal — [`clamp_tile_sizes`] pins the
/// restricted dimensions — and on domains big enough for a real search
/// this behaves exactly like [`autotune`].
pub fn autotune_or_fallback(
    m: &Machine,
    pattern: &StencilPattern,
    proto: &RunConfig,
    threads: usize,
) -> TunedTiles {
    autotune_or_fallback_traced(m, pattern, proto, threads, &Obs::off())
}

/// [`autotune_or_fallback`] recording the search into `obs`; a
/// degenerate search additionally records an `autotune-fallback` event
/// with the empty-search reason.
pub fn autotune_or_fallback_traced(
    m: &Machine,
    pattern: &StencilPattern,
    proto: &RunConfig,
    threads: usize,
    obs: &Obs,
) -> TunedTiles {
    match autotune_traced(m, pattern, proto, threads, obs) {
        Ok(t) => t,
        Err(e) => {
            obs.event("autotune-fallback", &e.to_string());
            let tile = clamp_tile_sizes(pattern, &proto.domain, &proto.domain);
            let subdomain = tile.clone();
            let mut cfg = proto.clone();
            cfg.threads = threads;
            cfg.tile = tile.clone();
            cfg.subdomain = subdomain.clone();
            if let Ok(deps) = blockdeps::block_dependences(pattern, &subdomain) {
                cfg.deps = deps;
            }
            // The whole-domain fallback has a single block; with no
            // parallelism to exploit there is nothing for the dataflow
            // scheduler to win, so score it under the levels model.
            TunedTiles {
                time_s: estimate_sweep(m, &cfg).total_s,
                evaluated: 0,
                scheduler: Scheduler::Levels,
                tile,
                subdomain,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PerPointCosts;
    use crate::topology::xeon_6152_dual;
    use instencil_pattern::presets;
    use instencil_pattern::tiling::is_legal_tiling;

    fn proto(domain: Vec<usize>) -> RunConfig {
        let k = domain.len();
        let mut cfg = RunConfig::new(domain, vec![1; k], vec![1; k]);
        cfg.costs = PerPointCosts {
            scalar_flops: 6.0,
            mem_ops: 7.0,
            ..Default::default()
        };
        cfg
    }

    #[test]
    fn gs5_tuning_yields_legal_capacity_tiles() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let tuned = autotune(&m, &p, &proto(vec![2000, 2000]), 10).unwrap();
        assert!(is_legal_tiling(&p, &tuned.tile));
        let fp: usize = tuned.tile.iter().product::<usize>() * 3 * 8;
        assert!(fp <= m.l2_bytes, "capacity rule violated: {fp}");
        assert!(tuned.evaluated > 4);
    }

    #[test]
    fn gs9_tuning_respects_pinned_dim() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_9pt();
        let tuned = autotune(&m, &p, &proto(vec![4000, 4000]), 44).unwrap();
        assert_eq!(tuned.tile[0], 1, "paper Table 2: 9-point tiles are 1×N");
    }

    #[test]
    fn more_threads_prefers_smaller_or_equal_subdomains() {
        // With 44 threads the tuner must produce at least 44 sub-domains.
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let tuned = autotune(&m, &p, &proto(vec![2000, 2000]), 44).unwrap();
        let grid: usize = [2000usize, 2000]
            .iter()
            .zip(&tuned.subdomain)
            .map(|(&n, &s)| n.div_ceil(s))
            .product();
        assert!(grid >= 44);
    }

    #[test]
    fn candidate_set_scales_with_thread_count() {
        use instencil_obs::ObsLevel;
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let trace_for = |threads: usize| {
            let obs = Obs::new(ObsLevel::Trace);
            let tuned = autotune_traced(&m, &p, &proto(vec![2000, 2000]), threads, &obs).unwrap();
            (tuned, obs.snapshot().autotune.remove(0))
        };
        // One worker enumerates the extra coarse factors (x16, x32).
        let (_, t1) = trace_for(1);
        let (tuned8, t8) = trace_for(8);
        assert!(
            t1.candidates.len() > t8.candidates.len(),
            "1 thread: {} candidates, 8 threads: {}",
            t1.candidates.len(),
            t8.candidates.len()
        );
        // Any multi-thread winner carries 2x sub-domain slack so ragged
        // wavefront edges cannot idle most of the pool.
        let grid: usize = [2000usize, 2000]
            .iter()
            .zip(&tuned8.subdomain)
            .map(|(&n, &s)| n.div_ceil(s))
            .product();
        assert!(grid >= 16, "winner grid {grid} must be >= 2x threads");
    }

    #[test]
    fn heat3d_tuning_runs() {
        let m = xeon_6152_dual();
        let p = presets::heat3d_gauss_seidel();
        let tuned = autotune(&m, &p, &proto(vec![256, 256, 256]), 10).unwrap();
        assert_eq!(tuned.tile.len(), 3);
        assert!(tuned.time_s > 0.0);
    }

    #[test]
    fn tiny_domains_never_panic() {
        // Domains smaller than one vector chunk used to hit the
        // `best.expect(...)` panic when the candidate filters emptied the
        // search; now every outcome is a clean Ok or Err.
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        for domain in [vec![2, 2], vec![4, 4], vec![7, 7]] {
            for threads in [1usize, 44] {
                match autotune(&m, &p, &proto(domain.clone()), threads) {
                    Ok(t) => assert!(is_legal_tiling(&p, &t.tile)),
                    Err(e) => {
                        assert_eq!(e.domain, domain);
                        assert_eq!(e.threads, threads);
                        assert!(e.to_string().contains("no legal tile candidate"));
                    }
                }
            }
        }
        // With 44 threads no sub-domain grid over a 2x2 domain can feed
        // the workers: the search is genuinely empty and must say so.
        let e = autotune(&m, &p, &proto(vec![2, 2]), 44);
        assert!(e.is_err(), "2x2 x 44 threads has no legal candidate");
    }

    #[test]
    fn excessive_threads_error_instead_of_panicking() {
        // A thread count no sub-domain grid can feed also empties the
        // search (the `grid < threads` filter rejects everything).
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let r = autotune(&m, &p, &proto(vec![16, 16]), 100_000);
        assert!(r.is_err());
    }

    #[test]
    fn fallback_tunes_tiny_domains_to_the_whole_domain() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        for domain in [vec![2, 2], vec![4, 4], vec![7, 7]] {
            let tuned = autotune_or_fallback(&m, &p, &proto(domain.clone()), 44);
            assert!(is_legal_tiling(&p, &tuned.tile), "fallback must be legal");
            assert_eq!(tuned.subdomain, tuned.tile);
            assert!(tuned
                .tile
                .iter()
                .zip(&domain)
                .all(|(&t, &n)| t >= 1 && t <= n));
            assert_eq!(tuned.evaluated, 0, "fallback evaluates no candidates");
            assert!(tuned.time_s > 0.0);
        }
    }

    #[test]
    fn trace_records_every_candidate_and_marks_one_winner() {
        use instencil_obs::ObsLevel;
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let obs = Obs::new(ObsLevel::Trace);
        let tuned = autotune_traced(&m, &p, &proto(vec![2000, 2000]), 10, &obs).unwrap();
        let rec = obs.snapshot();
        assert_eq!(rec.autotune.len(), 1);
        let t = &rec.autotune[0];
        assert_eq!(t.domain, vec![2000, 2000]);
        assert_eq!(t.threads, 10);
        assert_eq!(t.evaluated, tuned.evaluated);
        assert_eq!(
            t.candidates.iter().filter(|c| c.verdict == "evaluated").count(),
            t.evaluated,
            "every scored candidate appears in the table"
        );
        assert!(
            t.candidates.len() > t.evaluated,
            "rejected candidates appear with their verdicts"
        );
        let winners: Vec<_> = t.candidates.iter().filter(|c| c.chosen).collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].tile, tuned.tile);
        assert_eq!(winners[0].subdomain, tuned.subdomain);
        assert_eq!(winners[0].score_s, Some(tuned.time_s));
        assert!(rec.spans.iter().any(|s| s.name == "autotune"));
    }

    #[test]
    fn summary_trace_keeps_only_the_winner() {
        use instencil_obs::ObsLevel;
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let obs = Obs::new(ObsLevel::Summary);
        let tuned = autotune_traced(&m, &p, &proto(vec![2000, 2000]), 10, &obs).unwrap();
        let t = &obs.snapshot().autotune[0];
        assert_eq!(t.candidates.len(), 1, "summary keeps the winner's row only");
        assert!(t.candidates[0].chosen);
        assert_eq!(t.candidates[0].tile, tuned.tile);
        assert_eq!(t.evaluated, tuned.evaluated, "counts still cover the search");
    }

    #[test]
    fn failed_search_still_records_its_trace_and_fallback_event() {
        use instencil_obs::ObsLevel;
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let obs = Obs::new(ObsLevel::Trace);
        let tuned = autotune_or_fallback_traced(&m, &p, &proto(vec![2, 2]), 44, &obs);
        assert!(is_legal_tiling(&p, &tuned.tile));
        let rec = obs.snapshot();
        assert_eq!(rec.autotune.len(), 1);
        assert!(rec.autotune[0].candidates.iter().all(|c| !c.chosen));
        assert!(rec
            .events
            .iter()
            .any(|e| e.name == "autotune-fallback" && e.detail.contains("no legal tile")));
    }

    #[test]
    fn tracing_does_not_change_the_result() {
        use instencil_obs::ObsLevel;
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let cfg = proto(vec![2000, 2000]);
        let plain = autotune(&m, &p, &cfg, 10).unwrap();
        let traced = autotune_traced(&m, &p, &cfg, 10, &Obs::new(ObsLevel::Trace)).unwrap();
        assert_eq!(plain.tile, traced.tile);
        assert_eq!(plain.subdomain, traced.subdomain);
        assert_eq!(plain.time_s, traced.time_s);
        assert_eq!(plain.evaluated, traced.evaluated);
    }

    #[test]
    fn single_thread_tuning_always_picks_levels() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let tuned = autotune(&m, &p, &proto(vec![2000, 2000]), 1).unwrap();
        assert_eq!(tuned.scheduler, Scheduler::Levels);
    }

    #[test]
    fn winning_scheduler_is_the_argmin_of_both_models() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let tuned = autotune(&m, &p, &proto(vec![2000, 2000]), 10).unwrap();
        // Re-score the winning configuration under both models: the
        // recorded scheduler must be the cheaper one and its time the
        // reported time.
        let mut cfg = proto(vec![2000, 2000]);
        cfg.threads = 10;
        cfg.tile = tuned.tile.clone();
        cfg.subdomain = tuned.subdomain.clone();
        cfg.deps = blockdeps::block_dependences(&p, &tuned.subdomain).unwrap();
        let levels = estimate_sweep(&m, &cfg).total_s;
        let dataflow = estimate_sweep_dataflow(&m, &cfg).total_s;
        let (want_t, want_s) = if dataflow < levels {
            (dataflow, Scheduler::Dataflow)
        } else {
            (levels, Scheduler::Levels)
        };
        assert_eq!(tuned.scheduler, want_s);
        assert_eq!(tuned.time_s, want_t);
    }

    #[test]
    fn fallback_matches_autotune_on_real_domains() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let cfg = proto(vec![2000, 2000]);
        let direct = autotune(&m, &p, &cfg, 10).unwrap();
        let fallback = autotune_or_fallback(&m, &p, &cfg, 10);
        assert_eq!(direct.tile, fallback.tile);
        assert_eq!(direct.subdomain, fallback.subdomain);
    }
}
