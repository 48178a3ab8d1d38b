//! mpGEMV driver: table precompute + parallel m-tile execution.
//!
//! Axis order follows the paper's §3.2: the temporal axis `K` is innermost
//! (one small table set, fully reused), the spatial axis `M` is split into
//! tiles and distributed over threads as static thread blocks.

use crate::exec::ExecCtx;
use crate::kernel;
use crate::opts::{LUT_GROUP, TILE_M};
use crate::plan::WeightPlan;
use crate::table::ActTables;
use crate::TmacError;

/// Shared-output wrapper: threads write disjoint m-ranges.
struct OutPtr(*mut f32);
// SAFETY: every dispatch partitions tiles disjointly (`ThreadPool::chunks`),
// each tile writes only its own `TILE_M` output rows, and the dispatching
// call frame keeps the buffer alive until the pool job completes.
unsafe impl Sync for OutPtr {}

/// Computes `out[m] = Σ_k act[k] · W[m][k]` for an offline-planned `W`.
///
/// Builds the activation tables (online stage) and runs the kernel. Reuse
/// [`mpgemv_with_tables`] when the same activation row multiplies several
/// weight matrices (as QKV projections do).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] on length mismatches or when fast
/// aggregation is requested with a non-power-of-two `group_size / 4`.
pub fn mpgemv(
    plan: &WeightPlan,
    act: &[f32],
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let tables = build_tables(plan, act)?;
    mpgemv_with_tables(plan, &tables, out, ctx)
}

/// [`mpgemv`] through the context's activation-table cache.
///
/// Within one [`ExecCtx::next_activation`] scope, every plan with the same
/// table profile (`K`, group size, table options) consuming the same
/// activation shares a single [`ActTables`] build — the QKV / gate-up reuse
/// of the paper's §3.2 made automatic.
///
/// # Errors
///
/// Same contract as [`mpgemv`].
pub fn mpgemv_cached(
    plan: &WeightPlan,
    act: &[f32],
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let tables = ctx.tables_for(plan, act)?;
    mpgemv_with_tables(plan, &tables, out, ctx)
}

/// Builds activation tables compatible with `plan`.
///
/// # Errors
///
/// Propagates table-construction failures (shape, non-finite activations).
pub fn build_tables(plan: &WeightPlan, act: &[f32]) -> Result<ActTables, TmacError> {
    if act.len() != plan.k {
        return Err(TmacError::Shape(format!(
            "activation length {} != K {}",
            act.len(),
            plan.k
        )));
    }
    if plan.opts.fast_aggregation && !(plan.group_size / LUT_GROUP).is_power_of_two() {
        return Err(TmacError::Shape(format!(
            "fast aggregation needs group_size/4 to be a power of two, got {}",
            plan.group_size / LUT_GROUP
        )));
    }
    ActTables::build(act, plan.group_size, &plan.opts)
}

/// [`mpgemv`] with caller-provided precomputed tables.
///
/// # Errors
///
/// Returns [`TmacError::Shape`] if `out.len() != M` or the tables were built
/// for a different `K`/options.
pub fn mpgemv_with_tables(
    plan: &WeightPlan,
    tables: &ActTables,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    if out.len() != plan.m {
        return Err(TmacError::Shape(format!(
            "output length {} != M {}",
            out.len(),
            plan.m
        )));
    }
    check_tables_compatible(plan, tables)?;

    let m = plan.m;
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        let mut buf = [0f32; TILE_M];
        for mt in tiles {
            kernel::gemv_mtile(plan, tables, mt, &mut buf);
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            // SAFETY: tiles are disjoint across threads; `out` outlives the
            // dispatch (`chunks` blocks until all threads finish); the range
            // `[m0, m0 + take)` lies within `out` by construction.
            unsafe {
                std::ptr::copy_nonoverlapping(buf.as_ptr(), out_ref.0.add(m0), take);
            }
        }
    });
    Ok(())
}

/// Validates that caller-provided tables match `plan`'s full table profile
/// (shape *and* options): every mismatch the kernels cannot tolerate —
/// `K`, group size, quantization, mirror consolidation, and missing offset
/// tables under fast aggregation — is rejected before dispatch.
pub(crate) fn check_tables_compatible(plan: &WeightPlan, t: &ActTables) -> Result<(), TmacError> {
    if t.k != plan.k || t.group_size != plan.group_size {
        return Err(TmacError::Shape(
            "tables incompatible with plan (K or group size)".into(),
        ));
    }
    if t.quantized != plan.opts.table_quant {
        return Err(TmacError::Shape(
            "tables quantization does not match plan options".into(),
        ));
    }
    if t.mirror != plan.opts.mirror {
        return Err(TmacError::Shape(
            "tables mirror consolidation does not match plan options".into(),
        ));
    }
    if plan.opts.fast_aggregation && t.u_tables.is_empty() {
        return Err(TmacError::Shape(
            "fast-aggregation plan needs tables built with offset u8 tables".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::scalar::gemv_reference;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, bits: u8) -> (tmac_quant::QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32) * 0.123).sin() * 0.5)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.7).cos()).collect();
        (rtn::quantize(&w, m, k, bits, 32).unwrap(), act)
    }

    #[test]
    fn driver_matches_reference_all_bits() {
        let ctx = ExecCtx::new(2);
        for bits in 1..=4u8 {
            let (qm, act) = setup(100, 128, bits);
            let reference = gemv_reference(&qm, &act);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let mut out = vec![0f32; 100];
            mpgemv(&plan, &act, &mut out, &ctx).unwrap();
            let nmse = tmac_simd::f32ops::nmse(&out, &reference);
            assert!(nmse < 2e-3, "bits={bits} nmse={nmse}");
        }
    }

    #[test]
    fn single_and_multi_thread_agree_exactly() {
        let (qm, act) = setup(96, 256, 4);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let c1 = ExecCtx::new(1);
        let c4 = ExecCtx::new(4);
        let mut a = vec![0f32; 96];
        let mut b = vec![0f32; 96];
        mpgemv(&plan, &act, &mut a, &c1).unwrap();
        mpgemv(&plan, &act, &mut b, &c4).unwrap();
        assert_eq!(a, b, "threading must not change results");
    }

    #[test]
    fn table_reuse_matches_fresh_build() {
        let (qm, act) = setup(64, 128, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let tables = build_tables(&plan, &act).unwrap();
        let mut a = vec![0f32; 64];
        let mut b = vec![0f32; 64];
        let mut c = vec![0f32; 64];
        mpgemv(&plan, &act, &mut a, &ctx).unwrap();
        mpgemv_with_tables(&plan, &tables, &mut b, &ctx).unwrap();
        ctx.next_activation();
        mpgemv_cached(&plan, &act, &mut c, &ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn rejects_shape_errors() {
        let (qm, act) = setup(64, 128, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; 64];
        assert!(mpgemv(&plan, &act[..64], &mut out, &ctx).is_err());
        let mut short = vec![0f32; 63];
        assert!(mpgemv(&plan, &act, &mut short, &ctx).is_err());
    }

    #[test]
    fn rejects_incompatible_tables() {
        let (qm, act) = setup(64, 128, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        // Tables built without quantization don't match a TQ plan.
        let wrong = ActTables::build(&act, 32, &KernelOpts::tm_base()).unwrap();
        let mut out = vec![0f32; 64];
        assert!(mpgemv_with_tables(&plan, &wrong, &mut out, &ctx).is_err());
    }

    #[test]
    fn nan_activations_rejected() {
        let (qm, mut act) = setup(32, 64, 2);
        act[5] = f32::INFINITY;
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; 32];
        assert!(matches!(
            mpgemv(&plan, &act, &mut out, &ctx),
            Err(TmacError::Numeric(_))
        ));
    }
}
