//! The pole-batch engine: concurrent selected inversions of many shifted
//! matrices `H − σ_k I` over one runtime.
//!
//! The driving application for PSelInv is the PEXSI pole expansion, which
//! needs `A⁻¹` at ~40–100 shifts `σ_k` that all share one sparsity pattern
//! — and therefore one symbolic analysis, one 2-D layout and one set of
//! precomputed collective trees. This module exploits that: the
//! [`crate::plan::CommPlan`] is computed once and shared (`Arc`d symbolic,
//! one plan vector) across every query, and all queries are driven
//! concurrently through the engine (`crate::engine::phase2_multi`) on one
//! rank thread each, with one shared work-stealing pool per rank. The
//! communication of pole `k` overlaps the local GEMMs of pole `k+1`; the
//! [`BatchOptions::max_inflight`] knob bounds how many poles race at once.
//!
//! Isolation comes from the tag/trace namespacing of
//! `crate::numeric::tag_q`: every message tag and every trace-scope key
//! carries the query id, so interleaved collectives of different poles can
//! never cross-match, and a batched trace still attributes every span and
//! byte to its pole. Per-pole *logical* volumes are measured by the
//! runtime's channel accounting
//! ([`pselinv_mpisim::RankCtx::enable_channel_accounting`]) keyed on that
//! same query lane — acceptance tests pin them exactly equal to each
//! pole's standalone run.
//!
//! Determinism is inherited unchanged: the multi-query engine reorders
//! communication, never arithmetic, so every pole's panels are bit-identical
//! to its standalone [`crate::numeric::distributed_selinv`] run.

use crate::ainv::AinvPanels;
use crate::layout::Layout;
use crate::numeric::{phase1, untag_q, DistOptions, RankState};
use crate::plan::{CommPlan, SupernodePlan};
use pselinv_factor::{FactorError, LdlFactor};
use pselinv_mpisim::{Grid2D, RankCtx, RankVolume};
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::SparseMatrix;
use pselinv_trace::{CollKind, Trace};
use pselinv_trees::TreeBuilder;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Options for a batched multi-pole run.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// The per-query distributed options (scheme, seed, threads, window).
    /// Each pole gets a window of [`DistOptions::window`] supernodes, the
    /// same as its standalone run; poles overlap each other at any window.
    pub dist: DistOptions,
    /// Admission control: at most this many *unfinished* poles race at
    /// once on each rank (admitted in ascending pole order). `1` degrades
    /// to poles back-to-back through the engine; values above the
    /// pole count admit everything immediately. Normalized to at least 1.
    pub max_inflight: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self { dist: DistOptions { lookahead: 4, ..Default::default() }, max_inflight: 4 }
    }
}

impl BatchOptions {
    /// The effective admission bound: [`BatchOptions::max_inflight`] with
    /// `0` normalized to `1`, as [`DistOptions::window`] normalizes the
    /// window. The rank entry and the trace meta read the knob through here.
    pub fn inflight(&self) -> usize {
        self.max_inflight.max(1)
    }
}

/// Everything a batched run produces.
#[derive(Clone, Debug)]
pub struct BatchRun {
    /// One selected inverse per shift, in input order.
    pub inverses: Vec<SelectedInverse>,
    /// Aggregate per-rank communication volumes of the whole batch.
    pub volumes: Vec<RankVolume>,
    /// Per-pole logical volumes, `query_volumes[q][rank]`: the traffic of
    /// pole `q`'s collectives alone, measured by tag-lane channel
    /// accounting. `sent`/`received` and the message counts are exact;
    /// `copied`/`retransmitted` stay in the aggregate counters only.
    pub query_volumes: Vec<Vec<RankVolume>>,
}

/// Factorizes `H − σ_k I` for every shift against one shared symbolic
/// analysis: the numeric factorizations differ per pole, the structure is
/// computed once, and one pool ([`pselinv_factor::default_pool`]) runs
/// them all. Shifts may make the matrix indefinite — the LDLᵀ
/// factorization handles negative pivots; only an exactly singular shift
/// errors.
pub fn factor_poles(
    h: &SparseMatrix,
    shifts: &[f64],
    symbolic: Arc<SymbolicFactor>,
) -> Result<Vec<LdlFactor>, FactorError> {
    let eye = SparseMatrix::identity(h.nrows());
    let pool = pselinv_factor::default_pool();
    shifts
        .iter()
        .map(|&sigma| {
            let shifted = h.add_scaled(&eye, 1.0, -sigma);
            pselinv_factor::factorize_on(&shifted, symbolic.clone(), &pool)
        })
        .collect()
}

/// Runs the batched selected inversion of all `factors` (which must share
/// one symbolic analysis) on `grid.size()` rank threads. Panics propagate
/// from rank threads.
pub fn batched_selinv(factors: &[LdlFactor], grid: Grid2D, opts: &BatchOptions) -> BatchRun {
    try_batched_selinv(factors, grid, opts, &pselinv_mpisim::RunOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`batched_selinv`] under explicit [`RunOptions`], surfacing runtime
/// failures instead of panicking.
///
/// [`RunOptions`]: pselinv_mpisim::RunOptions
pub fn try_batched_selinv(
    factors: &[LdlFactor],
    grid: Grid2D,
    opts: &BatchOptions,
    run_opts: &pselinv_mpisim::RunOptions,
) -> Result<BatchRun, pselinv_mpisim::RunError> {
    let (panels, volumes, query_volumes) =
        try_batched_selinv_panels(factors, grid, opts, run_opts)?;
    Ok(finish(panels, volumes, query_volumes))
}

/// Each query's filled [`AinvPanels`], then the aggregate and per-query
/// volumes of a [`BatchRun`].
pub type PanelsRun = (Vec<AinvPanels>, Vec<RankVolume>, Vec<Vec<RankVolume>>);

/// [`try_batched_selinv`] before its panels become inverses: each query's
/// [`AinvPanels`] as the ranks left them — every region landed, with the
/// rank that wrote it ([`AinvPanels::lower_writer`],
/// [`AinvPanels::diag_writer`]).
pub fn try_batched_selinv_panels(
    factors: &[LdlFactor],
    grid: Grid2D,
    opts: &BatchOptions,
    run_opts: &pselinv_mpisim::RunOptions,
) -> Result<PanelsRun, pselinv_mpisim::RunError> {
    let (layout, plans, panels) = shared_plan(factors, grid, opts);
    let (channels, volumes) = pselinv_mpisim::try_run(grid.size(), run_opts, |ctx| {
        batch_rank_entry(ctx, factors, &layout, &plans, &panels, opts)
    })?;
    Ok((panels, volumes, by_query(channels, factors.len())))
}

/// [`batched_selinv`] with tracing enabled: spans and counters carry each
/// pole's query id (`crate::numeric::span_key`), and the trace meta
/// records the batch shape.
pub fn batched_selinv_traced(
    factors: &[LdlFactor],
    grid: Grid2D,
    opts: &BatchOptions,
    label: &str,
) -> (BatchRun, Trace) {
    try_batched_selinv_traced(factors, grid, opts, &pselinv_mpisim::RunOptions::default(), label)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`batched_selinv_traced`] under explicit [`RunOptions`].
///
/// [`RunOptions`]: pselinv_mpisim::RunOptions
pub fn try_batched_selinv_traced(
    factors: &[LdlFactor],
    grid: Grid2D,
    opts: &BatchOptions,
    run_opts: &pselinv_mpisim::RunOptions,
    label: &str,
) -> Result<(BatchRun, Trace), pselinv_mpisim::RunError> {
    let (layout, plans, panels) = shared_plan(factors, grid, opts);
    let (channels, volumes, mut trace) =
        pselinv_mpisim::try_run_traced(grid.size(), label, run_opts, |ctx| {
            batch_rank_entry(ctx, factors, &layout, &plans, &panels, opts)
        })?;
    trace.set_meta("backend", "mpisim");
    trace.set_meta("grid", format!("{}x{}", grid.pr, grid.pc));
    trace.set_meta("scheme", opts.dist.scheme.to_string());
    trace.set_meta("seed", opts.dist.seed.to_string());
    trace.set_meta("lookahead", opts.dist.window().to_string());
    trace.set_meta("queries", factors.len().to_string());
    trace.set_meta("max_inflight", opts.inflight().to_string());
    Ok((finish(panels, volumes, by_query(channels, factors.len())), trace))
}

/// The once-per-batch preprocessing: validates the shared pattern, builds
/// the layout from the `Arc`d symbolic, precomputes every collective tree
/// one time for all queries, and allocates each query's output panels,
/// which the ranks fill in place.
fn shared_plan(
    factors: &[LdlFactor],
    grid: Grid2D,
    opts: &BatchOptions,
) -> (Layout, Arc<Vec<SupernodePlan>>, Vec<AinvPanels>) {
    assert!(!factors.is_empty(), "a batch needs at least one factor");
    assert!(
        factors.len() <= 256,
        "{} poles overflow the 8-bit query tag lane (split the batch)",
        factors.len()
    );
    let sf = &factors[0].symbolic;
    for (q, f) in factors.iter().enumerate() {
        assert!(
            Arc::ptr_eq(&f.symbolic, sf),
            "factor {q} does not share the batch's symbolic analysis"
        );
    }
    let layout = Layout::new(sf.clone(), grid);
    let builder = TreeBuilder::new(opts.dist.scheme, opts.dist.seed);
    let plans = CommPlan::new(layout.clone(), builder).precompute_all();
    let panels = factors.iter().map(|_| AinvPanels::new(&layout)).collect();
    (layout, plans, panels)
}

/// Maps a message tag to its pole channel: the query id of a numeric phase
/// tag (`untag_q`); everything else (the runtime's control lanes) belongs
/// to no pole.
fn classify_pole_tag(tag: u64) -> Option<usize> {
    untag_q(tag).map(|f| f.qid as usize)
}

/// One rank's batched execution: phase 1 for every pole up front (blocking,
/// ascending pole order — a restriction of one global order, so
/// deadlock-free), then all phase-2 windows concurrently through
/// [`crate::engine::phase2_multi`] on one shared pool, each pole writing
/// the `A⁻¹` blocks this rank owns into its `panels`. Returns this rank's
/// per-query channel volumes.
fn batch_rank_entry(
    ctx: &mut RankCtx,
    factors: &[LdlFactor],
    layout: &Layout,
    plans: &[SupernodePlan],
    panels: &[AinvPanels],
    opts: &BatchOptions,
) -> Vec<RankVolume> {
    ctx.enable_channel_accounting(factors.len(), classify_pole_tag);
    let me = ctx.rank();
    let mut states: Vec<RankState<'_>> = factors
        .iter()
        .zip(panels)
        .enumerate()
        .map(|(q, (f, ainv))| RankState {
            sf: &f.symbolic,
            factor: f,
            layout,
            me,
            qid: q as u64,
            lhat: HashMap::new(),
            ainv,
            ainv_upper: HashMap::new(),
        })
        .collect();
    let pool = Pool::new(opts.dist.worker_threads());
    pool.set_busy_gauge(ctx.pool_busy_gauge());
    let pool_epoch_us = ctx.tracer().now_us();
    for st in &mut states {
        phase1(ctx, st, plans, &pool);
    }
    crate::engine::phase2_multi(
        ctx,
        &mut states,
        plans,
        &pool,
        opts.dist.window(),
        opts.inflight(),
    );
    // On one thread `map` runs inline and records nothing: such a trace
    // gets no pool lines.
    if pool.threads() > 1 {
        let stats = pool.stats();
        ctx.tracer().pool_stats(stats.executed(), stats.stolen(), stats.busy_us(), pool.threads());
        for (worker, start_us, end_us) in pool.take_spans() {
            ctx.tracer().span_at(
                CollKind::Compute,
                worker as u64,
                pool_epoch_us + start_us,
                pool_epoch_us + end_us,
            );
        }
    }
    ctx.channel_volumes()
}

/// Transposes the ranks' per-query channel volumes into `[query][rank]`
/// shape.
fn by_query(channels: Vec<Vec<RankVolume>>, nq: usize) -> Vec<Vec<RankVolume>> {
    let mut query_volumes: Vec<Vec<RankVolume>> =
        (0..nq).map(|_| Vec::with_capacity(channels.len())).collect();
    for rank in channels {
        assert_eq!(rank.len(), nq);
        for (q, v) in rank.into_iter().enumerate() {
            query_volumes[q].push(v);
        }
    }
    query_volumes
}

/// Hands each query's filled panels back as its inverse: no copy, the
/// panels are the result.
fn finish(
    panels: Vec<AinvPanels>,
    volumes: Vec<RankVolume>,
    query_volumes: Vec<Vec<RankVolume>>,
) -> BatchRun {
    let inverses = panels.into_iter().map(AinvPanels::into_inverse).collect();
    BatchRun { inverses, volumes, query_volumes }
}

/// Renders the per-pole summary rows of a batched run: one line per query
/// with its total logical traffic, for the run log next to the trace's
/// per-rank summary table.
pub fn pole_summary_table(query_volumes: &[Vec<RankVolume>]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>6} {:>14} {:>10} {:>14} {:>10}",
        "pole", "sent B", "msgs", "recv B", "msgs"
    );
    for (q, ranks) in query_volumes.iter().enumerate() {
        let sent: u64 = ranks.iter().map(|v| v.sent).sum();
        let ms: u64 = ranks.iter().map(|v| v.msgs_sent).sum();
        let recv: u64 = ranks.iter().map(|v| v.received).sum();
        let mr: u64 = ranks.iter().map(|v| v.msgs_received).sum();
        let _ = writeln!(s, "{q:>6} {sent:>14} {ms:>10} {recv:>14} {mr:>10}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_routes_phase_lanes_only() {
        use crate::numeric::tag_q;
        assert_eq!(classify_pole_tag(tag_q(0, CollKind::DiagBcast, 3, 0)), Some(0));
        assert_eq!(classify_pole_tag(tag_q(7, CollKind::AinvTranspose, 3, 2)), Some(7));
        assert_eq!(classify_pole_tag(tag_q(255, CollKind::DiagBcast, 0, 0)), Some(255));
        // Control lanes are nobody's pole.
        assert_eq!(classify_pole_tag(pselinv_mpisim::ACK_LANE), None);
        assert_eq!(classify_pole_tag(pselinv_mpisim::JOIN_LANE | 17), None);
        assert_eq!(classify_pole_tag(0), None);
    }

    #[test]
    fn pole_table_has_one_row_per_query() {
        let v = RankVolume {
            sent: 100,
            msgs_sent: 2,
            received: 100,
            msgs_received: 2,
            ..Default::default()
        };
        let table = pole_summary_table(&[vec![v, v], vec![v]]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 poles");
        assert!(lines[1].contains("200"), "pole 0 sums its ranks");
        assert!(lines[2].contains("100"));
    }
}
