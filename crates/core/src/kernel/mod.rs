//! mpGEMV/mpGEMM kernels.
//!
//! | family | single-row (GEMV) | multi-row (mpGEMM) |
//! |---|---|---|
//! | [`scalar`] | every option combination | every quantized combination |
//! | `avx2` | permuted quantized (exact, mirror, FA), flat quantized, flat `f32` | permuted quantized, exact aggregation |
//! | `avx512` | — (the AVX2 kernel serves rows one at a time) | permuted, interleaved, quantized, exact, no mirror, `i16`-safe bits × group size |
//!
//! * [`scalar`] — portable implementations of every option combination,
//!   bit-compatible with the SIMD kernels (same integer accumulation, same
//!   fast-aggregation tree shape, same per-block f32 application order).
//!   They are the correctness oracle and the fallback backend.
//! * `avx2` — the production kernels (x86-64). One `PSHUFB` per 32 lookups,
//!   `i16` widening accumulation, per-scale-block f32 application.
//! * `avx512` — the Vec-LUT multi-row lane: four activation rows' tables
//!   share one `zmm`, so one `PSHUFB` performs 64 lookups. Bit-identical to
//!   the AVX2 multi-row kernel.
//!
//! Which kernels serve a plan is decided once, when the plan is built or
//! loaded ([`KernelFamily`]), from the host ISA and the plan's
//! layout, bit-width and group size; the drivers only read
//! [`crate::WeightPlan::family`].
//!
//! # Kernel math
//!
//! With codes `q = Σ_i 2^i b_i`, signs `w'_i = 2 b_i - 1 ∈ {-1, +1}`
//! (paper §4's bit-serial linear transform), weight scales `s`, zero point
//! `z`, and per-block activation sums `asum`:
//!
//! ```text
//! out[m] = Σ_blocks s[m][sb] · ( 0.5 · Σ_i 2^i · L_i[m][sb] + cz · asum[sb] )
//! L_i[m][sb] = Σ_{kg ∈ sb} table_kg[ idx_i(m, kg) ]      (the LUT lookups)
//! cz = (2^bits - 1)/2 − z
//! ```
//!
//! With table quantization `table_kg ≈ q_scale[sb] · q_table_kg`, so `L_i`
//! is accumulated in integers and `0.5 · q_scale[sb]` folds into the final
//! multiply.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

use crate::opts::{KernelOpts, LUT_GROUP, TILE_M};
use crate::plan::WeightPlan;
use crate::table::{ActTables, BatchTables};
use std::ops::Range;
use tmac_simd::Isa;

/// Whether the bit-serial combine `Σ_i 2^i · L_i` of one scale block
/// provably fits `i16`: worst case `kgb · 127 · (2^bits − 1)` for
/// `kgb = group_size / 4` k-groups per block. When it does, the SIMD
/// kernels combine bit planes in integers and convert to `f32` once.
pub(crate) fn i16_combine_safe(bits: usize, group_size: usize) -> bool {
    let kgb = (group_size / LUT_GROUP) as u32;
    kgb * 127 * ((1u32 << bits) - 1) <= i16::MAX as u32
}

/// The kernels that serve one [`WeightPlan`].
///
/// The invariant that keeps batched forwards bit-identical to independent
/// single-row forwards: the multi-row kernel must replicate the single-row
/// kernel's arithmetic exactly. The AVX-512 and AVX2 multi-row kernels
/// replicate the AVX2 GEMV kernel; the scalar multi-row kernel replicates
/// the scalar GEMV kernel (AVX2 and scalar differ in `f32` fold rounding),
/// so `gemm` never mixes with a `gemv` of the other side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFamily {
    /// Single-row m-tile kernel: [`Isa::Avx2`] or [`Isa::Scalar`].
    pub gemv: Isa,
    /// Multi-row register-block kernel ([`Isa::Avx512`], [`Isa::Avx2`] or
    /// [`Isa::Scalar`]); `None` when multi-row sweeps run the single-row
    /// kernel once per row.
    pub gemm: Option<Isa>,
}

impl KernelFamily {
    /// Resolves the family for a plan on this host (one cached CPUID
    /// check; no tuning).
    pub(crate) fn resolve(opts: &KernelOpts, bits: usize, group_size: usize) -> Self {
        Self::resolve_for(Isa::detect(), opts, bits, group_size)
    }

    /// Resolves the family a host with ISA `host` would use. Pure, so the
    /// coverage rules can be checked for every ISA on any host.
    pub(crate) fn resolve_for(
        host: Isa,
        opts: &KernelOpts,
        bits: usize,
        group_size: usize,
    ) -> Self {
        let simd = matches!(host, Isa::Avx2 | Isa::Avx512);
        let avx2_gemv = if opts.table_quant {
            // Flat layouts support only the plain quantized kernel.
            opts.permute || (!opts.mirror && !opts.fast_aggregation)
        } else {
            // f32 tables: gather kernel on flat layouts only.
            !opts.permute
        };
        if !(simd && avx2_gemv) {
            return KernelFamily {
                gemv: Isa::Scalar,
                // The scalar multi-row kernel covers every quantized layout
                // (including fast aggregation and flat planes).
                gemm: opts.table_quant.then_some(Isa::Scalar),
            };
        }
        let multi_row = opts.table_quant && opts.permute && !opts.fast_aggregation;
        let vec_lut = host == Isa::Avx512
            && multi_row
            && opts.interleave
            && !opts.mirror
            && i16_combine_safe(bits, group_size);
        KernelFamily {
            gemv: Isa::Avx2,
            gemm: if vec_lut {
                Some(Isa::Avx512)
            } else {
                multi_row.then_some(Isa::Avx2)
            },
        }
    }
}

/// Runs one m-tile of the plan's single-row kernel.
pub(crate) fn gemv_mtile(
    plan: &WeightPlan,
    tables: &ActTables,
    mt: usize,
    out: &mut [f32; TILE_M],
) {
    match plan.family().gemv {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelFamily::resolve` picks `Avx2` only when
        // `Isa::detect` found AVX2+FMA on this host.
        Isa::Avx2 => unsafe { avx2::gemv_mtile(plan, tables, mt, out) },
        _ => scalar::gemv_plan_mtile(plan, tables, mt, out),
    }
}

/// Runs scale blocks `sbs` of one m-tile for a register block with the
/// plan's multi-row kernel, accumulating into `outs` (`rows × TILE_M`).
///
/// # Panics
///
/// Panics if the plan has no multi-row kernel (`family().gemm == None`).
pub(crate) fn gemm_mtile(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    match plan.family().gemm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelFamily::resolve` picks `Avx512` only when
        // `Isa::detect` found AVX-512 F/BW/VL plus AVX2+FMA on this host.
        Some(Isa::Avx512) => unsafe { avx512::gemm_mtile(plan, batch, mt, sbs, outs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelFamily::resolve` picks `Avx2` only when
        // `Isa::detect` found AVX2+FMA on this host.
        Some(Isa::Avx2) => unsafe { avx2::gemm_mtile(plan, batch, mt, sbs, outs) },
        Some(_) => scalar::gemm_plan_mtile(plan, batch, mt, sbs, outs),
        None => panic!("plan has no multi-row kernel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(host: Isa, opts: KernelOpts, bits: usize, gs: usize) -> KernelFamily {
        KernelFamily::resolve_for(host, &opts, bits, gs)
    }

    /// The AVX-512 lane covers exactly the permuted, interleaved,
    /// exact-aggregation, non-mirror layouts whose bit-serial combine fits
    /// `i16`; everything else on an AVX-512 host keeps the AVX2 family.
    #[test]
    fn avx512_coverage_and_avx2_fallbacks() {
        let host = Isa::Avx512;
        for bits in 1..=4 {
            for gs in [32, 64] {
                let f = resolve(host, KernelOpts::tmac(), bits, gs);
                assert_eq!(f.gemv, Isa::Avx2, "GEMV stays on AVX2");
                assert_eq!(f.gemm, Some(Isa::Avx512), "bits={bits} gs={gs}");
            }
        }
        let avx2_gemm = KernelFamily {
            gemv: Isa::Avx2,
            gemm: Some(Isa::Avx2),
        };
        // Mirror consolidation and the sequential nibble order.
        assert_eq!(resolve(host, KernelOpts::tmac_mirror(), 2, 32), avx2_gemm);
        assert_eq!(resolve(host, KernelOpts::plus_permute(), 2, 32), avx2_gemm);
        // i16-unsafe bits × group size: 4-bit at group 128, 3-bit at 256.
        assert_eq!(resolve(host, KernelOpts::tmac(), 4, 128), avx2_gemm);
        assert_eq!(resolve(host, KernelOpts::tmac(), 3, 256), avx2_gemm);
        assert_eq!(
            resolve(host, KernelOpts::tmac(), 3, 128).gemm,
            Some(Isa::Avx512)
        );
        // Fast aggregation and flat layouts: AVX2 GEMV, per-row sweeps.
        let per_row = KernelFamily {
            gemv: Isa::Avx2,
            gemm: None,
        };
        assert_eq!(
            resolve(host, KernelOpts::tmac_fast_aggregation(), 2, 32),
            per_row
        );
        assert_eq!(
            resolve(host, KernelOpts::plus_table_quant(), 2, 32),
            per_row
        );
        assert_eq!(resolve(host, KernelOpts::plus_tiling(), 2, 32), per_row);
        assert_eq!(resolve(host, KernelOpts::tm_base(), 2, 32), per_row);
    }

    #[test]
    fn avx2_and_scalar_hosts_never_pick_avx512() {
        for opts in KernelOpts::breakdown_ladder().into_iter().map(|(_, o)| o) {
            for bits in 1..=4 {
                let avx2 = resolve(Isa::Avx2, opts, bits, 32);
                let wide = resolve(Isa::Avx512, opts, bits, 32);
                assert_ne!(avx2.gemm, Some(Isa::Avx512));
                assert_eq!(avx2.gemv, wide.gemv, "{opts:?}");
                let scalar = resolve(Isa::Scalar, opts, bits, 32);
                assert_eq!(scalar.gemv, Isa::Scalar);
                assert_eq!(
                    scalar.gemm,
                    opts.table_quant.then_some(Isa::Scalar),
                    "{opts:?}"
                );
            }
        }
    }

    #[test]
    fn i16_bound_matches_worst_case() {
        assert!(i16_combine_safe(4, 64)); // 16 · 127 · 15 = 30480
        assert!(!i16_combine_safe(4, 128)); // 60960
        assert!(i16_combine_safe(3, 128)); // 32 · 127 · 7 = 28448
        assert!(i16_combine_safe(2, 256)); // 64 · 127 · 3 = 24384
        assert!(!i16_combine_safe(2, 512));
    }

    #[test]
    fn plans_carry_the_resolved_family() {
        let w: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.3).sin()).collect();
        for (bits, gs) in [(2u8, 32usize), (4, 128)] {
            let qm = tmac_quant::rtn::quantize(&w, 64, 128, bits, gs).unwrap();
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let want = KernelFamily::resolve(&KernelOpts::tmac(), bits as usize, gs);
            assert_eq!(plan.family(), want);
            // Re-deriving under other options re-resolves.
            let fa = plan.with_opts(KernelOpts::tmac_fast_aggregation()).unwrap();
            assert_eq!(
                fa.family(),
                KernelFamily::resolve(&KernelOpts::tmac_fast_aggregation(), bits as usize, gs)
            );
        }
    }
}
