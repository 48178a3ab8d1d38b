//! mpGEMM driver (`N > 1`, e.g. prefill with a 256-token sequence).
//!
//! The lookup table is the reusable operand (§3.2: "the weight `W[M, K]` can
//! share the same pre-computed lookup table"), so the driver blocks the
//! sequence dimension twice:
//!
//! * **`n_block`** — rows whose tables are built (and cached) together;
//! * **`row_block`** — rows per *register block*: each `n_block` chunk is
//!   swept in `row_block`-row groups whose quantized tables are interleaved
//!   per k-group ([`BatchTables`]) and fed to the multi-row kernel, which
//!   loads each weight index step once for the whole group.
//!
//! On top of that, the kg range of each sweep is split into **K-panels**
//! sized so the group's active table slice stays L1-resident while every
//! m-tile streams over it (`kg_panel`, auto-sized from
//! [`crate::opts::L1_TABLE_BUDGET`] by default); per-row `f32` partials
//! accumulate across panels in the exact scale-block order of the GEMV
//! path, so the split never changes a bit of the result.

use crate::exec::ExecCtx;
use crate::gemv::build_tables;
use crate::kernel;
use crate::opts::{LUT_GROUP, TILE_M};
use crate::plan::WeightPlan;
use crate::table::{ActTables, BatchTables};
use crate::TmacError;
use std::ops::Range;

/// Partitions `n` activation rows into the register blocks the sweep
/// consumes: chunks of `row_block` rows, restarting at every `n_block`
/// boundary (table builds are grouped by `n_block`, so register blocks
/// never straddle one).
pub fn row_partition(n: usize, n_block: usize, row_block: usize) -> Vec<Range<usize>> {
    let nb = n_block.max(1);
    let rb = row_block.max(1);
    let mut out = Vec::new();
    let mut n0 = 0;
    while n0 < n {
        let chunk_end = (n0 + nb).min(n);
        let mut r0 = n0;
        while r0 < chunk_end {
            let r1 = (r0 + rb).min(chunk_end);
            out.push(r0..r1);
            r0 = r1;
        }
        n0 = chunk_end;
    }
    out
}

/// K-panel length in *scale blocks*: the resolved `kg_panel` (explicit, or
/// auto-sized so the register block's interleaved table slice fits the L1
/// budget — see [`crate::cost::effective_kg_panel`], the analytical twin)
/// rounded down to whole scale blocks, at least one.
fn panel_blocks(plan: &WeightPlan) -> usize {
    let kg_per_block = plan.group_size / LUT_GROUP;
    let kg_target = crate::cost::effective_kg_panel(plan.k, &plan.opts);
    (kg_target / kg_per_block).max(1)
}

/// Whether a register block of `rows` rows runs the plan's multi-row
/// kernel. One-row blocks (`n = 1`, or a one-row remainder), `row_block`
/// 1, and plans whose family has no multi-row kernel run the single-row
/// GEMV m-tile kernel instead — bit-identical by the family invariant (see
/// [`kernel::KernelFamily`]), and without the interleave and K-panel
/// overhead that buys nothing for one row.
fn multi_row(plan: &WeightPlan, rows: usize) -> bool {
    rows > 1 && plan.opts.effective_row_block() > 1 && plan.family().gemm.is_some()
}

/// Shared-output wrapper: threads write disjoint `(n, m-tile)` blocks.
struct OutPtr(*mut f32);
// SAFETY: tiles are partitioned disjointly per dispatch and each write
// targets `row n, columns [m0, m0+take)` for a tile this thread owns; the
// dispatcher keeps the buffer alive until completion.
unsafe impl Sync for OutPtr {}

/// Validates the `n × K` / `n × M` shapes shared by every mpGEMM entry.
fn check_shapes(
    plan: &WeightPlan,
    act_len: usize,
    n: usize,
    out_len: usize,
) -> Result<(), TmacError> {
    if n == 0 {
        return Err(TmacError::Shape("mpgemm needs n >= 1".into()));
    }
    if act_len != n * plan.k {
        return Err(TmacError::Shape(format!(
            "activation length {act_len} != n*K = {}",
            n * plan.k
        )));
    }
    if out_len != n * plan.m {
        return Err(TmacError::Shape(format!(
            "output length {out_len} != n*M = {}",
            n * plan.m
        )));
    }
    Ok(())
}

/// Sweeps all m-tiles for one `n_block` chunk of rows. `tables[i]` belongs
/// to output row `n0 + i` of `out`.
///
/// With a multi-row kernel the chunk is split into `row_block`-row register
/// blocks, each interleaved into a [`BatchTables`] and swept with K-panel
/// blocking; otherwise (and for a one-row remainder) the GEMV kernel runs
/// with the rows innermost over the tile loop.
fn sweep_block(plan: &WeightPlan, tables: &[ActTables], n0: usize, out: &mut [f32], ctx: &ExecCtx) {
    if !multi_row(plan, tables.len()) {
        sweep_block_per_row(plan, tables, n0, out, ctx);
        return;
    }
    let rb = plan.opts.effective_row_block();
    let mut r0 = 0;
    while r0 < tables.len() {
        let take = rb.min(tables.len() - r0);
        let rows = &tables[r0..r0 + take];
        if multi_row(plan, take) {
            let batch = BatchTables::interleave(rows)
                .expect("multi-row path requires compatible quantized tables");
            sweep_register_block(plan, &batch, n0 + r0, out, ctx);
        } else {
            sweep_block_per_row(plan, rows, n0 + r0, out, ctx);
        }
        r0 += take;
    }
}

/// The per-row sweep: each weight tile is read once per chunk and applied
/// to every row's tables in turn (cache-level reuse only).
fn sweep_block_per_row(
    plan: &WeightPlan,
    tables: &[ActTables],
    n0: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) {
    let m = plan.m;
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        let mut buf = [0f32; TILE_M];
        for mt in tiles {
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            for (ni, t) in tables.iter().enumerate() {
                kernel::gemv_mtile(plan, t, mt, &mut buf);
                // SAFETY: this thread owns tile `mt`; the destination
                // range lies in row `n0 + ni` of `out`, within bounds;
                // the buffer outlives the dispatch.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        buf.as_ptr(),
                        out_ref.0.add((n0 + ni) * m + m0),
                        take,
                    );
                }
            }
        }
    });
}

/// Sweeps one interleaved register block over all m-tiles with K-panel
/// blocking: panels run outermost (per thread) so the block's active table
/// slice stays L1-resident while the thread's tiles stream over it, and
/// per-tile `f32` partials persist across panels in a scratch buffer.
fn sweep_register_block(
    plan: &WeightPlan,
    batch: &BatchTables,
    n0: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) {
    let m = plan.m;
    let rows = batch.rows;
    let gpr = plan.groups_per_row();
    let panel = panel_blocks(plan);
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        let span = rows * TILE_M;
        // Zeroed partial outputs for every tile this thread owns, reused
        // from the context's scratch arena.
        let mut partials = ctx.take_buf(tiles.len() * span);
        let mut sb0 = 0;
        while sb0 < gpr {
            let sb1 = (sb0 + panel).min(gpr);
            // One K-panel sweep over this thread's tiles (`id` = the
            // panel's first scale block, `arg` = register-block rows).
            let _panel = tmac_trace::span("gemm", "panel", sb0 as u64, rows as u64);
            for (ti, mt) in tiles.clone().enumerate() {
                let bufs = &mut partials[ti * span..(ti + 1) * span];
                kernel::gemm_mtile(plan, batch, mt, sb0..sb1, bufs);
            }
            sb0 = sb1;
        }
        for (ti, mt) in tiles.clone().enumerate() {
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            for r in 0..rows {
                // SAFETY: this thread owns tile `mt`; the destination range
                // lies in row `n0 + r` of `out`, within bounds; the buffer
                // outlives the dispatch.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        partials[ti * span + r * TILE_M..].as_ptr(),
                        out_ref.0.add((n0 + r) * m + m0),
                        take,
                    );
                }
            }
        }
        ctx.put_buf(partials);
    });
}

/// Computes `out[n][m] = Σ_k act[n][k] · W[m][k]`.
///
/// `act` is row-major `n × K`; `out` is row-major `n × M`. Tables are built
/// fresh per call; use [`mpgemm_cached`] when several weight matrices
/// consume the same activation batch (batched QKV projections).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] on dimension mismatches or `n == 0`.
pub fn mpgemm(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    check_shapes(plan, act.len(), n, out.len())?;
    let nb = plan.opts.n_block.max(1);
    let k = plan.k;
    let mut n0 = 0;
    while n0 < n {
        let nblk = nb.min(n - n0);
        // Online stage: tables for this block of activation rows. The cost
        // is O(nblk · K), negligible against the O(nblk · M · K / g) lookup
        // sweep, so it is built serially.
        let mut tables: Vec<ActTables> = Vec::with_capacity(nblk);
        for ni in 0..nblk {
            tables.push(build_tables(plan, &act[(n0 + ni) * k..(n0 + ni + 1) * k])?);
        }
        sweep_block(plan, &tables, n0, out, ctx);
        n0 += nblk;
    }
    Ok(())
}

/// [`mpgemm`] through the context's batched activation-table cache.
///
/// Within one [`ExecCtx::next_activation`] scope, every plan with the same
/// table profile consuming the same `n × K` activation batch shares one set
/// of per-row table builds — the QKV / gate-up amortization of the decode
/// path, extended to batched serving (see [`ExecCtx::batch_tables_for`]).
///
/// # Errors
///
/// Same contract as [`mpgemm`].
pub fn mpgemm_cached(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    check_shapes(plan, act.len(), n, out.len())?;
    if !multi_row(plan, n) {
        let tables = ctx.batch_tables_for(plan, act, n)?;
        return mpgemm_with_tables(plan, &tables, out, ctx);
    }
    // Multi-row path: pull the pre-interleaved register blocks from the
    // context cache (QKV-style projection groups share both the per-row
    // builds *and* the interleave work).
    let (rows, blocks) = ctx.interleaved_tables_for(plan, act, n)?;
    let mut n0 = 0;
    for batch in blocks.iter() {
        if multi_row(plan, batch.rows) {
            sweep_register_block(plan, batch, n0, out, ctx);
        } else {
            sweep_block_per_row(plan, &rows[n0..n0 + batch.rows], n0, out, ctx);
        }
        n0 += batch.rows;
    }
    debug_assert_eq!(n0, n, "interleaved blocks must partition the batch");
    Ok(())
}

/// [`mpgemm`] with caller-provided per-row tables (`tables.len()` rows).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] if `out.len() != tables.len() · M` or any
/// table was built for a different `K` / group size / options.
pub fn mpgemm_with_tables(
    plan: &WeightPlan,
    tables: &[ActTables],
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let n = tables.len();
    if n == 0 {
        return Err(TmacError::Shape("mpgemm needs n >= 1".into()));
    }
    if out.len() != n * plan.m {
        return Err(TmacError::Shape(format!(
            "output length {} != n*M = {}",
            out.len(),
            n * plan.m
        )));
    }
    for t in tables {
        crate::gemv::check_tables_compatible(plan, t)?;
    }
    let nb = plan.opts.n_block.max(1);
    let mut n0 = 0;
    while n0 < n {
        let nblk = nb.min(n - n0);
        sweep_block(plan, &tables[n0..n0 + nblk], n0, out, ctx);
        n0 += nblk;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::scalar::gemv_reference;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, n: usize, bits: u8) -> (tmac_quant::QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32) * 0.31).sin() * 0.6)
            .collect();
        let act: Vec<f32> = (0..n * k)
            .map(|i| ((i as f32) * 0.17).cos() * 0.8)
            .collect();
        (rtn::quantize(&w, m, k, bits, 32).unwrap(), act)
    }

    #[test]
    fn gemm_rows_match_gemv_rows() {
        let (m, k, n) = (64, 128, 5);
        let (qm, act) = setup(m, k, n, 4);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut out = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
        for ni in 0..n {
            let mut row = vec![0f32; m];
            crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
            assert_eq!(&out[ni * m..(ni + 1) * m], &row[..], "row {ni}");
        }
    }

    #[test]
    fn gemm_matches_reference() {
        let (m, k, n) = (48, 96, 7);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut out = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
        for ni in 0..n {
            let reference = gemv_reference(&qm, &act[ni * k..(ni + 1) * k]);
            let nmse = tmac_simd::f32ops::nmse(&out[ni * m..(ni + 1) * m], &reference);
            assert!(nmse < 2e-3, "row {ni} nmse={nmse}");
        }
    }

    #[test]
    fn cached_and_with_tables_match_fresh() {
        let (m, k, n) = (64, 128, 11); // crosses an n_block boundary
        let (qm, act) = setup(m, k, n, 3);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut fresh = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();

        ctx.next_activation();
        let mut cached = vec![0f32; n * m];
        mpgemm_cached(&plan, &act, n, &mut cached, &ctx).unwrap();
        assert_eq!(fresh, cached);

        let tables: Vec<ActTables> = (0..n)
            .map(|ni| build_tables(&plan, &act[ni * k..(ni + 1) * k]).unwrap())
            .collect();
        let mut with = vec![0f32; n * m];
        mpgemm_with_tables(&plan, &tables, &mut with, &ctx).unwrap();
        assert_eq!(fresh, with);
    }

    #[test]
    fn cached_shares_builds_across_plans() {
        // Batched QKV: two plans, one activation batch, one batched build.
        let (m, k, n) = (32, 64, 4);
        let (qm, act) = setup(m, k, n, 2);
        let (qm2, _) = setup(m, k, n, 4);
        let plan2 = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let plan4 = WeightPlan::new(&qm2, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        ctx.next_activation();
        let mut out = vec![0f32; n * m];
        mpgemm_cached(&plan2, &act, n, &mut out, &ctx).unwrap();
        mpgemm_cached(&plan4, &act, n, &mut out, &ctx).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 1), "second plan must reuse");
    }

    #[test]
    fn with_tables_rejects_incompatible() {
        let (m, k, n) = (32, 64, 2);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm_with_tables(&plan, &[], &mut out, &ctx).is_err());
        let t = build_tables(&plan, &act[..k]).unwrap();
        let mut short = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &[t.clone(), t], &mut short, &ctx).is_err());
        // Tables built without quantization don't match a TQ plan.
        let wrong = ActTables::build(&act[..k], 32, &crate::opts::KernelOpts::tm_base()).unwrap();
        let mut one = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &[wrong], &mut one, &ctx).is_err());
        // Mirror-consolidated tables have half the layout of full tables.
        let mirrored =
            ActTables::build(&act[..k], 32, &crate::opts::KernelOpts::tmac_mirror()).unwrap();
        assert!(mpgemm_with_tables(&plan, &[mirrored], &mut one, &ctx).is_err());
        // A fast-aggregation plan needs the offset u8 tables materialized.
        let fa_plan = WeightPlan::new(&qm, KernelOpts::tmac_fast_aggregation()).unwrap();
        let no_fa = build_tables(&plan, &act[..k]).unwrap();
        assert!(mpgemm_with_tables(&fa_plan, &[no_fa], &mut one, &ctx).is_err());
    }

    /// The multi-row sweep must be bit-identical to per-row GEMV for every
    /// option combination (exact, mirror, FA, flat-quantized, f32-table
    /// fallback), every bit-width, and shapes that straddle the
    /// `row_block`/`n_block` boundaries.
    #[test]
    fn mpgemm_bit_identical_to_mpgemv_across_opts_and_shapes() {
        let combos = [
            KernelOpts::tm_base(),
            KernelOpts::plus_table_quant(),
            KernelOpts::plus_tiling(),
            KernelOpts::plus_permute(),
            KernelOpts::tmac(),
            KernelOpts::tmac_mirror(),
            KernelOpts::tmac_fast_aggregation(),
        ];
        let ctx = ExecCtx::new(2);
        for opts in combos {
            for bits in [1u8, 2, 4] {
                // n = 11 straddles row_block (4) and n_block (8); m = 72
                // leaves a ragged final tile.
                let (m, k, n) = (72, 128, 11);
                let (qm, act) = setup(m, k, n, bits);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let mut out = vec![0f32; n * m];
                mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
                for ni in 0..n {
                    let mut row = vec![0f32; m];
                    crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
                    assert_eq!(
                        &out[ni * m..(ni + 1) * m],
                        &row[..],
                        "opts={opts:?} bits={bits} row {ni}"
                    );
                }
            }
        }
    }

    /// Forcing tiny K-panels (multiple panels per sweep) and odd row blocks
    /// must not change a bit.
    #[test]
    fn kg_panel_and_row_block_boundaries_bit_exact() {
        let (m, k, n) = (64, 256, 13);
        for (rb, kp) in [(1, 0), (2, 32), (3, 8), (5, 16), (8, 64), (16, 0)] {
            let mut opts = KernelOpts::tmac();
            opts.row_block = rb;
            opts.kg_panel = kp;
            let (qm, act) = setup(m, k, n, 3);
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let ctx = ExecCtx::new(2);
            let mut out = vec![0f32; n * m];
            mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
            for ni in 0..n {
                let mut row = vec![0f32; m];
                crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
                assert_eq!(
                    &out[ni * m..(ni + 1) * m],
                    &row[..],
                    "rb={rb} kp={kp} row {ni}"
                );
            }
        }
    }

    #[test]
    fn row_partition_aligns_to_both_blockings() {
        assert_eq!(row_partition(11, 8, 4), vec![0..4, 4..8, 8..11]);
        assert_eq!(row_partition(6, 8, 4), vec![0..4, 4..6]);
        assert_eq!(row_partition(3, 1, 4), vec![0..1, 1..2, 2..3]);
        // Register blocks never straddle an n_block boundary.
        assert_eq!(row_partition(10, 4, 8), vec![0..4, 4..8, 8..10]);
        assert!(row_partition(0, 8, 4).is_empty());
        let total: usize = row_partition(57, 8, 4).iter().map(|r| r.len()).sum();
        assert_eq!(total, 57);
    }

    #[test]
    fn cached_interleaved_path_matches_fresh_and_reuses() {
        let (m, k, n) = (64, 128, 9);
        let (qm, act) = setup(m, k, n, 2);
        let (qm4, _) = setup(m, k, n, 4);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let plan4 = WeightPlan::new(&qm4, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut fresh = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();
        ctx.next_activation();
        let mut cached = vec![0f32; n * m];
        mpgemm_cached(&plan, &act, n, &mut cached, &ctx).unwrap();
        assert_eq!(fresh, cached);
        // A second plan with the same blocking reuses the interleave work.
        let mut out4 = vec![0f32; n * m];
        mpgemm_cached(&plan4, &act, n, &mut out4, &ctx).unwrap();
        assert_eq!(ctx.interleave_stats(), (1, 1), "interleave must be shared");
    }

    /// `n = 1` and one-row remainder blocks run the GEMV kernel: no
    /// interleave work, and the same bits as `mpgemv`.
    #[test]
    fn one_row_blocks_take_the_gemv_kernel() {
        let (m, k) = (64, 128);
        let (qm, act) = setup(m, k, 9, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut gemv = vec![0f32; 9 * m];
        for (row, a) in gemv.chunks_mut(m).zip(act.chunks(k)) {
            crate::gemv::mpgemv(&plan, a, row, &ctx).unwrap();
        }
        ctx.next_activation();
        let mut one = vec![0f32; m];
        mpgemm_cached(&plan, &act[..k], 1, &mut one, &ctx).unwrap();
        assert_eq!(one, gemv[..m]);
        assert_eq!(ctx.interleave_stats(), (0, 0), "n = 1 must not interleave");
        // 9 rows at row_block 8: an 8-row block plus a one-row remainder.
        for cached in [false, true] {
            ctx.next_activation();
            let mut out = vec![0f32; 9 * m];
            if cached {
                mpgemm_cached(&plan, &act, 9, &mut out, &ctx).unwrap();
            } else {
                mpgemm(&plan, &act, 9, &mut out, &ctx).unwrap();
            }
            assert_eq!(out, gemv, "cached={cached}");
        }
    }

    #[test]
    fn n_not_multiple_of_block() {
        let (m, k, n) = (32, 64, 3); // n_block = 8 > n
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm(&plan, &act, n, &mut out, &ctx).is_ok());
    }

    #[test]
    fn rejects_bad_shapes() {
        let (m, k, n) = (32, 64, 2);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm(&plan, &act, 0, &mut out, &ctx).is_err());
        assert!(mpgemm(&plan, &act[..k], n, &mut out, &ctx).is_err());
        let mut short = vec![0f32; n * m - 1];
        assert!(mpgemm(&plan, &act, n, &mut short, &ctx).is_err());
    }
}
