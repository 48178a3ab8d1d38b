//! AVX2 production kernels.
//!
//! The materialization of the paper's Figure 3 tile on x86: for each
//! 16-byte weight step, one `PSHUFB` performs 32 table lookups (table
//! duplicated across both 128-bit lanes), results widen into `i16`
//! accumulators, and each scale block folds into `f32` output accumulators
//! with two FMAs. Layout/option combinations map to monomorphized kernels:
//!
//! | options | kernel |
//! |---|---|
//! | permuted, quantized, exact | `mtile_permuted<IL, MIRROR>` |
//! | permuted, quantized, exact, multi-row | `gemm_mtile_rows<IL, MIRROR, R>` |
//! | permuted, interleaved, quantized, exact, multi-row, AVX-512 host | `super::avx512::gemm_mtile` instead |
//! | permuted, quantized, fast aggregation | `mtile_permuted_fa<IL, MIRROR>` |
//! | flat, quantized (TM-base `+TQ`, `+Tiling`) | `mtile_flat_quant` |
//! | flat, `f32` tables (TM-base) | `mtile_flat_gather` |
//!
//! On an AVX-512 host the multi-row kernel here still serves the plans the
//! Vec-LUT lane does not cover (mirror, sequential nibbles, bits × group
//! sizes whose `i16` combine is unsafe); see [`super::KernelFamily`].
//!
//! Everything here is `#[target_feature(enable = "avx2,fma")]`; callers
//! dispatch through the plan's [`super::KernelFamily`], resolved once per
//! plan.

#![allow(clippy::needless_range_loop)] // Index loops mirror the kernel structure.

use crate::opts::{LUT_GROUP, TILE_M};
use crate::plan::{Layout, WeightPlan};
use crate::table::{ActTables, BatchTables};
use std::arch::x86_64::*;
use std::ops::Range;
use tmac_simd::avx2 as simd;

/// Maximum supported k-groups per scale block (`group_size / 4`).
pub const MAX_KG_PER_BLOCK: usize = 64;

/// Maximum rows per register block of the multi-row kernel ([`gemm_mtile`])
/// — the shared [`crate::opts::MAX_ROW_BLOCK`] limit (the dispatch in
/// [`gemm_mtile`] is monomorphized for exactly these row counts).
pub const MAX_ROW_BLOCK: usize = crate::opts::MAX_ROW_BLOCK;

/// Executes one m-tile, dispatching to the right monomorphized kernel.
///
/// # Safety
///
/// The caller must have verified that the host CPU supports AVX2 and FMA
/// (the plan's [`super::KernelFamily`] records that check).
///
/// # Panics
///
/// Panics if the plan/tables combination has no AVX2 kernel (the family
/// resolution routes those to the scalar kernel) or if
/// `group_size / 4 > MAX_KG_PER_BLOCK`.
#[target_feature(enable = "avx2,fma")]
pub fn gemv_mtile(plan: &WeightPlan, tables: &ActTables, mt: usize, out: &mut [f32; TILE_M]) {
    let o = &plan.opts;
    match plan.layout() {
        Layout::Permuted { interleaved } => {
            debug_assert!(tables.quantized);
            match (interleaved, o.mirror, o.fast_aggregation) {
                (false, false, false) => mtile_permuted::<false, false>(plan, tables, mt, out),
                (false, true, false) => mtile_permuted::<false, true>(plan, tables, mt, out),
                (true, false, false) => mtile_permuted::<true, false>(plan, tables, mt, out),
                (true, true, false) => mtile_permuted::<true, true>(plan, tables, mt, out),
                (false, false, true) => mtile_permuted_fa::<false, false>(plan, tables, mt, out),
                (false, true, true) => mtile_permuted_fa::<false, true>(plan, tables, mt, out),
                (true, false, true) => mtile_permuted_fa::<true, false>(plan, tables, mt, out),
                (true, true, true) => mtile_permuted_fa::<true, true>(plan, tables, mt, out),
            }
        }
        Layout::Flat => {
            if tables.quantized {
                mtile_flat_quant(plan, tables, mt, out);
            } else {
                mtile_flat_gather(plan, tables, mt, out);
            }
        }
    }
}

/// Loads the duplicated 16-entry table for k-group `kg`.
#[inline]
#[target_feature(enable = "avx2")]
fn load_table(q_tables: &[i8], base: usize) -> __m256i {
    let slice: &[i8; 16] = q_tables[base..base + 16]
        .try_into()
        .expect("table slice is 16 bytes");
    simd::dup_table16(slice)
}

/// Four f32 output accumulators covering the 32 tile rows.
#[derive(Clone, Copy)]
struct OutAcc(__m256, __m256, __m256, __m256);

impl OutAcc {
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn zero() -> Self {
        OutAcc(
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        )
    }

    /// `out += scales * (block * sc + bias)` — the per-scale-block fold.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn fold(&mut self, blk: &OutAcc, sc: __m256, bias: __m256, scales: &[f32]) {
        let t0 = _mm256_fmadd_ps(blk.0, sc, bias);
        let t1 = _mm256_fmadd_ps(blk.1, sc, bias);
        let t2 = _mm256_fmadd_ps(blk.2, sc, bias);
        let t3 = _mm256_fmadd_ps(blk.3, sc, bias);
        self.0 = _mm256_fmadd_ps(t0, simd::loadu_ps(&scales[0..]), self.0);
        self.1 = _mm256_fmadd_ps(t1, simd::loadu_ps(&scales[8..]), self.1);
        self.2 = _mm256_fmadd_ps(t2, simd::loadu_ps(&scales[16..]), self.2);
        self.3 = _mm256_fmadd_ps(t3, simd::loadu_ps(&scales[24..]), self.3);
    }

    /// Accumulates `weight * f32(acc_i16_pair)` into the block
    /// (row-linear accumulator layout: `.0` = rows 0..16, `.1` = 16..32).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn add_weighted_i16(&mut self, acc: (__m256i, __m256i), weight: __m256) {
        let (f0, f1) = simd::i16_to_f32x2(acc.0);
        let (f2, f3) = simd::i16_to_f32x2(acc.1);
        self.0 = _mm256_fmadd_ps(weight, f0, self.0);
        self.1 = _mm256_fmadd_ps(weight, f1, self.1);
        self.2 = _mm256_fmadd_ps(weight, f2, self.2);
        self.3 = _mm256_fmadd_ps(weight, f3, self.3);
    }

    /// Accumulates `weight * f32(acc_i16_pair)` for the *paired* layout the
    /// `maddubs` accumulation produces: `.0` = rows [0..8 | 16..24], `.1` =
    /// rows [8..16 | 24..32].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn add_weighted_i16_paired(&mut self, acc: (__m256i, __m256i), weight: __m256) {
        let (f0, f1) = simd::i16_to_f32x2(acc.0);
        let (f2, f3) = simd::i16_to_f32x2(acc.1);
        self.0 = _mm256_fmadd_ps(weight, f0, self.0);
        self.2 = _mm256_fmadd_ps(weight, f1, self.2);
        self.1 = _mm256_fmadd_ps(weight, f2, self.1);
        self.3 = _mm256_fmadd_ps(weight, f3, self.3);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(&self, out: &mut [f32; TILE_M]) {
        simd::storeu_ps(&mut out[0..], self.0);
        simd::storeu_ps(&mut out[8..], self.1);
        simd::storeu_ps(&mut out[16..], self.2);
        simd::storeu_ps(&mut out[24..], self.3);
    }

    /// Resumes the accumulator from a partial-output row (K-panel restart).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_from(&mut self, src: &[f32]) {
        self.0 = simd::loadu_ps(&src[0..]);
        self.1 = simd::loadu_ps(&src[8..]);
        self.2 = simd::loadu_ps(&src[16..]);
        self.3 = simd::loadu_ps(&src[24..]);
    }

    /// Stores into a `TILE_M`-float slice prefix.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_to(&self, out: &mut [f32]) {
        simd::storeu_ps(&mut out[0..], self.0);
        simd::storeu_ps(&mut out[8..], self.1);
        simd::storeu_ps(&mut out[16..], self.2);
        simd::storeu_ps(&mut out[24..], self.3);
    }
}

/// Prefetches the weight stream `ahead` bytes past `off` into L1 (no-op
/// past the end; prefetch has no architectural memory effects).
#[inline]
#[target_feature(enable = "avx2")]
fn prefetch_stream(stream: &[u8], off: usize, ahead: usize) {
    let target = off + ahead;
    if target < stream.len() {
        // SAFETY: the pointer is in bounds; prefetch never faults and does
        // not access memory architecturally.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(stream.as_ptr().add(target) as *const i8) };
    }
}

/// Looks up one 16-byte step's 32 indices (mirror-aware).
#[inline]
#[target_feature(enable = "avx2")]
fn lookup_step<const MIRROR: bool>(tbl: __m256i, idx: __m256i, kg_odd: bool) -> __m256i {
    if MIRROR {
        let (mut folded, ctrl) = simd::mirror_fold(idx);
        if kg_odd {
            folded = _mm256_or_si256(folded, _mm256_set1_epi8(8));
        }
        simd::apply_sign(simd::tbl32(tbl, folded), ctrl)
    } else {
        simd::tbl32(tbl, idx)
    }
}

/// Streaming kernel over the permuted layout (exact aggregation).
///
/// Two throughput refinements over the naive loop, both value-preserving:
///
/// * **bit-pair loads** — two consecutive bit planes of a k-group are 32
///   adjacent stream bytes, so one 256-bit load feeds two `PSHUFB`s (the
///   low/high nibbles of each 128-bit lane belong to one bit plane each);
/// * **integer bit-serial combine** — when `Σ_i 2^i · |acc_i|` provably
///   fits `i16` (group sizes ≤ 64), the per-bit accumulators are combined
///   with shifts/adds in `i16` and converted to `f32` once, instead of four
///   widening conversions per scale block. Integer sums are exact, so the
///   result is bit-identical to the scalar reference either way.
#[target_feature(enable = "avx2,fma")]
fn mtile_permuted<const IL: bool, const MIRROR: bool>(
    plan: &WeightPlan,
    tables: &ActTables,
    mt: usize,
    out: &mut [f32; TILE_M],
) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let stream = plan.mtile_stream(mt);
    let mut off = 0usize;
    let mut outacc = OutAcc::zero();
    let i16_combine_safe = super::i16_combine_safe(bits, plan.group_size);

    // One "step" is 16 stream bytes: one (k-group, bit plane). The layout
    // is bit-major within a scale block, so consecutive steps of one bit
    // cover adjacent k-groups: one 256-bit load feeds both, and the two
    // lookup results interleave byte-wise so `maddubs(1, ·)` sums each
    // row's pair into an `i16` lane — half the widening work of scalar
    // `cvtepi8_epi16` accumulation. The paired accumulator rows are
    // [0..8 | 16..24] in `.0` and [8..16 | 24..32] in `.1`; the fold stage
    // un-permutes when converting to `f32`.
    let table_for = |kg: usize| -> __m256i {
        if MIRROR {
            load_table(&tables.q_tables, (kg / 2) * 16)
        } else {
            load_table(&tables.q_tables, kg * 16)
        }
    };
    let ones = _mm256_set1_epi8(1);
    for sb in 0..gpr {
        let kg0 = sb * kgb;
        let mut acc = [(_mm256_setzero_si256(), _mm256_setzero_si256()); 4];
        for acc_bit in acc.iter_mut().take(bits) {
            let mut kgi = 0;
            while kgi < kgb {
                let pair = kgi + 1 < kgb;
                let kg_a = kg0 + kgi;
                let (vals_a, vals_b);
                if pair {
                    // One 32-byte load covers k-groups `kg_a` and `kg_a+1`.
                    let raw2 = simd::loadu_256(&stream[off..]);
                    off += TILE_M;
                    let mask = _mm256_set1_epi8(0x0F);
                    let lo_nib = _mm256_and_si256(raw2, mask);
                    let hi_nib = _mm256_and_si256(_mm256_srli_epi16::<4>(raw2), mask);
                    // Lane 0 of lo/hi belongs to kg_a, lane 1 to kg_a+1.
                    let (idx_a, idx_b) = if IL {
                        (
                            _mm256_permute2x128_si256::<0x20>(lo_nib, hi_nib),
                            _mm256_permute2x128_si256::<0x31>(lo_nib, hi_nib),
                        )
                    } else {
                        let even_odd_lo = _mm256_unpacklo_epi8(lo_nib, hi_nib);
                        let even_odd_hi = _mm256_unpackhi_epi8(lo_nib, hi_nib);
                        (
                            _mm256_permute2x128_si256::<0x20>(even_odd_lo, even_odd_hi),
                            _mm256_permute2x128_si256::<0x31>(even_odd_lo, even_odd_hi),
                        )
                    };
                    let tbl_a = table_for(kg_a);
                    // Mirror packs the even/odd k-group pair in one table.
                    let tbl_b = if MIRROR && kg_a.is_multiple_of(2) {
                        tbl_a
                    } else {
                        table_for(kg_a + 1)
                    };
                    vals_a = lookup_step::<MIRROR>(tbl_a, idx_a, kg_a % 2 == 1);
                    vals_b = lookup_step::<MIRROR>(tbl_b, idx_b, kg_a.is_multiple_of(2));
                    kgi += 2;
                } else {
                    let raw = simd::loadu_128(&stream[off..]);
                    off += TILE_M / 2;
                    let idx = if IL {
                        simd::unpack_nibbles_interleaved(raw)
                    } else {
                        simd::unpack_nibbles_sequential(raw)
                    };
                    vals_a = lookup_step::<MIRROR>(table_for(kg_a), idx, kg_a % 2 == 1);
                    vals_b = _mm256_setzero_si256();
                    kgi += 1;
                }
                // Byte-interleave the two lookups so each i16 lane holds one
                // row's pair sum.
                let inter_lo = _mm256_unpacklo_epi8(vals_a, vals_b);
                let inter_hi = _mm256_unpackhi_epi8(vals_a, vals_b);
                acc_bit.0 = _mm256_add_epi16(acc_bit.0, _mm256_maddubs_epi16(ones, inter_lo));
                acc_bit.1 = _mm256_add_epi16(acc_bit.1, _mm256_maddubs_epi16(ones, inter_hi));
            }
        }
        let mut blk = OutAcc::zero();
        if i16_combine_safe {
            let mut lo = acc[0].0;
            let mut hi = acc[0].1;
            for (bit, a) in acc.iter().enumerate().take(bits).skip(1) {
                let sh = bit as i32;
                lo = _mm256_add_epi16(lo, _mm256_sll_epi16(a.0, _mm_cvtsi32_si128(sh)));
                hi = _mm256_add_epi16(hi, _mm256_sll_epi16(a.1, _mm_cvtsi32_si128(sh)));
            }
            blk.add_weighted_i16_paired((lo, hi), _mm256_set1_ps(1.0));
        } else {
            for (bit, a) in acc.iter().enumerate().take(bits) {
                blk.add_weighted_i16_paired(*a, _mm256_set1_ps((1u32 << bit) as f32));
            }
        }
        let sc = _mm256_set1_ps(0.5 * tables.q_scales[sb]);
        let bias = _mm256_set1_ps(plan.cz * tables.asums[sb]);
        outacc.fold(&blk, sc, bias, plan.tile_scales(mt, sb));
    }
    outacc.store(out);
}

/// Executes the scale blocks `sbs` of one m-tile for a whole *row block*,
/// accumulating into `outs` (row-major `rows × TILE_M` partial outputs the
/// caller zeroes before the first K-panel).
///
/// This is the register-blocked mpGEMM kernel: each 16-byte weight step is
/// loaded and nibble-unpacked **once** and its indices are looked up against
/// every row's table with one `PSHUFB` per row — the weight-stream traffic
/// and index decode of a sweep are amortized over `rows` activation rows
/// (Figure 7's mpGEMM claim made real at the register level). The rows'
/// tables for one k-group are adjacent in the interleaved [`BatchTables`]
/// layout, so the per-step table loads are one forward cache-line stream,
/// and the next weight step is software-prefetched while the current one is
/// consumed.
///
/// Per row, the integer accumulation and the `f32` fold replicate
/// [`gemv_mtile`]'s permuted kernel operation-for-operation, so running the
/// scale blocks in increasing order (in one call or split across K-panels)
/// is bit-identical to `rows` independent GEMV calls.
///
/// # Safety
///
/// The caller must have verified AVX2+FMA support (the plan's
/// [`super::KernelFamily`] records that check).
///
/// # Panics
///
/// Panics if the plan is not a permuted exact-aggregation quantized config
/// (the family resolution routes those elsewhere),
/// `batch.rows > MAX_ROW_BLOCK`, or `outs` is shorter than `rows × TILE_M`.
#[target_feature(enable = "avx2,fma")]
pub fn gemm_mtile(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    assert!(
        batch.rows >= 1 && batch.rows <= MAX_ROW_BLOCK,
        "row block must be 1..={MAX_ROW_BLOCK}"
    );
    assert!(outs.len() >= batch.rows * TILE_M, "outs too short");
    assert!(
        !plan.opts.fast_aggregation,
        "multi-row kernel is exact-aggregation only"
    );
    match plan.layout() {
        Layout::Permuted { interleaved } => {
            debug_assert_eq!(batch.mirror, plan.opts.mirror);
            match (interleaved, plan.opts.mirror) {
                (false, false) => gemm_mtile_permuted::<false, false>(plan, batch, mt, sbs, outs),
                (false, true) => gemm_mtile_permuted::<false, true>(plan, batch, mt, sbs, outs),
                (true, false) => gemm_mtile_permuted::<true, false>(plan, batch, mt, sbs, outs),
                (true, true) => gemm_mtile_permuted::<true, true>(plan, batch, mt, sbs, outs),
            }
        }
        Layout::Flat => panic!("multi-row kernel requires the permuted layout"),
    }
}

/// Dispatches [`gemm_mtile_rows`] on the runtime row count: the body is
/// monomorphized per `R` so the accumulator array and row loops fully
/// unroll and register-allocate (a runtime-`rows` loop spills every
/// accumulator to the stack on each step, which costs more than the
/// amortized weight decode saves).
#[target_feature(enable = "avx2,fma")]
fn gemm_mtile_permuted<const IL: bool, const MIRROR: bool>(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    match batch.rows {
        1 => gemm_mtile_rows::<IL, MIRROR, 1>(plan, batch, mt, sbs, outs),
        2 => gemm_mtile_rows::<IL, MIRROR, 2>(plan, batch, mt, sbs, outs),
        3 => gemm_mtile_rows::<IL, MIRROR, 3>(plan, batch, mt, sbs, outs),
        4 => gemm_mtile_rows::<IL, MIRROR, 4>(plan, batch, mt, sbs, outs),
        5 => gemm_mtile_rows::<IL, MIRROR, 5>(plan, batch, mt, sbs, outs),
        6 => gemm_mtile_rows::<IL, MIRROR, 6>(plan, batch, mt, sbs, outs),
        7 => gemm_mtile_rows::<IL, MIRROR, 7>(plan, batch, mt, sbs, outs),
        8 => gemm_mtile_rows::<IL, MIRROR, 8>(plan, batch, mt, sbs, outs),
        r => unreachable!("row block {r} exceeds MAX_ROW_BLOCK"),
    }
}

/// Multi-row streaming kernel body (see [`gemm_mtile`]).
#[target_feature(enable = "avx2,fma")]
fn gemm_mtile_rows<const IL: bool, const MIRROR: bool, const R: usize>(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    debug_assert_eq!(batch.rows, R);
    let rows = R;
    let bits = plan.bits;
    let kgb = plan.group_size / LUT_GROUP;
    let half = TILE_M / 2;
    let stream = plan.mtile_stream(mt);
    let mut off = sbs.start * bits * kgb * half;
    // Same exactness bound as the single-row kernel.
    let i16_combine_safe = super::i16_combine_safe(bits, plan.group_size);
    // Prefetch distance: two 32-byte pair steps ahead of the cursor.
    const PREFETCH_AHEAD: usize = 64;

    // Resume the per-row f32 accumulators from the partial outputs.
    let mut outacc = [OutAcc::zero(); R];
    for (r, acc) in outacc.iter_mut().enumerate() {
        acc.load_from(&outs[r * TILE_M..]);
    }

    let ones = _mm256_set1_epi8(1);
    for sb in sbs {
        // acc[bit][row]: the row loop is innermost at the lookup, so index
        // row-contiguously per bit. `R` is a const, so these loops unroll.
        let mut acc = [[(_mm256_setzero_si256(), _mm256_setzero_si256()); R]; 4];
        for acc_bit in acc.iter_mut().take(bits) {
            let mut kgi = 0;
            while kgi < kgb {
                let pair = kgi + 1 < kgb;
                let kg_a = sb * kgb + kgi;
                if pair {
                    // One 32-byte load covers k-groups `kg_a` and `kg_a+1`
                    // for *all* rows of the block.
                    let raw2 = simd::loadu_256(&stream[off..]);
                    off += TILE_M;
                    prefetch_stream(stream, off, PREFETCH_AHEAD);
                    let mask = _mm256_set1_epi8(0x0F);
                    let lo_nib = _mm256_and_si256(raw2, mask);
                    let hi_nib = _mm256_and_si256(_mm256_srli_epi16::<4>(raw2), mask);
                    let (idx_a, idx_b) = if IL {
                        (
                            _mm256_permute2x128_si256::<0x20>(lo_nib, hi_nib),
                            _mm256_permute2x128_si256::<0x31>(lo_nib, hi_nib),
                        )
                    } else {
                        let even_odd_lo = _mm256_unpacklo_epi8(lo_nib, hi_nib);
                        let even_odd_hi = _mm256_unpackhi_epi8(lo_nib, hi_nib);
                        (
                            _mm256_permute2x128_si256::<0x20>(even_odd_lo, even_odd_hi),
                            _mm256_permute2x128_si256::<0x31>(even_odd_lo, even_odd_hi),
                        )
                    };
                    // In mirror mode `kg_a` is always even here (the pair
                    // loop advances by 2 from an even base), so the pair
                    // shares one stored table.
                    let sg_a = if MIRROR { kg_a / 2 } else { kg_a };
                    let sg_b = if MIRROR { kg_a / 2 } else { kg_a + 1 };
                    for (r, a) in acc_bit.iter_mut().enumerate().take(rows) {
                        let tbl_a = load_table(&batch.q_tables, batch.table_base(sg_a, r));
                        let tbl_b = if MIRROR {
                            tbl_a
                        } else {
                            load_table(&batch.q_tables, batch.table_base(sg_b, r))
                        };
                        let vals_a = lookup_step::<MIRROR>(tbl_a, idx_a, kg_a % 2 == 1);
                        let vals_b = lookup_step::<MIRROR>(tbl_b, idx_b, kg_a.is_multiple_of(2));
                        let inter_lo = _mm256_unpacklo_epi8(vals_a, vals_b);
                        let inter_hi = _mm256_unpackhi_epi8(vals_a, vals_b);
                        a.0 = _mm256_add_epi16(a.0, _mm256_maddubs_epi16(ones, inter_lo));
                        a.1 = _mm256_add_epi16(a.1, _mm256_maddubs_epi16(ones, inter_hi));
                    }
                    kgi += 2;
                } else {
                    let raw = simd::loadu_128(&stream[off..]);
                    off += half;
                    prefetch_stream(stream, off, PREFETCH_AHEAD);
                    let idx = if IL {
                        simd::unpack_nibbles_interleaved(raw)
                    } else {
                        simd::unpack_nibbles_sequential(raw)
                    };
                    let sg_a = if MIRROR { kg_a / 2 } else { kg_a };
                    for (r, a) in acc_bit.iter_mut().enumerate().take(rows) {
                        let tbl = load_table(&batch.q_tables, batch.table_base(sg_a, r));
                        let vals_a = lookup_step::<MIRROR>(tbl, idx, kg_a % 2 == 1);
                        let vals_b = _mm256_setzero_si256();
                        let inter_lo = _mm256_unpacklo_epi8(vals_a, vals_b);
                        let inter_hi = _mm256_unpackhi_epi8(vals_a, vals_b);
                        a.0 = _mm256_add_epi16(a.0, _mm256_maddubs_epi16(ones, inter_lo));
                        a.1 = _mm256_add_epi16(a.1, _mm256_maddubs_epi16(ones, inter_hi));
                    }
                    kgi += 1;
                }
            }
        }
        for (r, out_r) in outacc.iter_mut().enumerate().take(rows) {
            let mut blk = OutAcc::zero();
            if i16_combine_safe {
                let mut lo = acc[0][r].0;
                let mut hi = acc[0][r].1;
                for (bit, a) in acc.iter().enumerate().take(bits).skip(1) {
                    let sh = bit as i32;
                    lo = _mm256_add_epi16(lo, _mm256_sll_epi16(a[r].0, _mm_cvtsi32_si128(sh)));
                    hi = _mm256_add_epi16(hi, _mm256_sll_epi16(a[r].1, _mm_cvtsi32_si128(sh)));
                }
                blk.add_weighted_i16_paired((lo, hi), _mm256_set1_ps(1.0));
            } else {
                for (bit, a) in acc.iter().enumerate().take(bits) {
                    blk.add_weighted_i16_paired(a[r], _mm256_set1_ps((1u32 << bit) as f32));
                }
            }
            let sc = _mm256_set1_ps(0.5 * batch.q_scale(r, sb));
            let bias = _mm256_set1_ps(plan.cz * batch.asum(r, sb));
            out_r.fold(&blk, sc, bias, plan.tile_scales(mt, sb));
        }
    }
    for (r, acc) in outacc.iter().enumerate().take(rows) {
        acc.store_to(&mut outs[r * TILE_M..(r + 1) * TILE_M]);
    }
}

/// Streaming kernel with fast 8-bit aggregation (lossy, paper §4).
#[target_feature(enable = "avx2,fma")]
fn mtile_permuted_fa<const IL: bool, const MIRROR: bool>(
    plan: &WeightPlan,
    tables: &ActTables,
    mt: usize,
    out: &mut [f32; TILE_M],
) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    assert!(
        kgb.is_power_of_two() && kgb <= MAX_KG_PER_BLOCK,
        "fast aggregation needs a power-of-two group_size/4 <= {MAX_KG_PER_BLOCK}"
    );
    let stream = plan.mtile_stream(mt);
    let step = TILE_M / 2;
    let mut base = 0usize;
    let mut outacc = OutAcc::zero();

    for sb in 0..gpr {
        let mut blk = OutAcc::zero();
        for bit in 0..bits {
            let mut bufs = [_mm256_setzero_si256(); MAX_KG_PER_BLOCK];
            for kgi in 0..kgb {
                let kg = sb * kgb + kgi;
                let tbl = if MIRROR {
                    load_table_u8(&tables.u_tables, (kg / 2) * 16)
                } else {
                    load_table_u8(&tables.u_tables, kg * 16)
                };
                let raw = simd::loadu_128(&stream[base + (bit * kgb + kgi) * step..]);
                let idx = if IL {
                    simd::unpack_nibbles_interleaved(raw)
                } else {
                    simd::unpack_nibbles_sequential(raw)
                };
                bufs[kgi] = if MIRROR {
                    let (mut folded, _) = simd::mirror_fold(idx);
                    if kg % 2 == 1 {
                        folded = _mm256_or_si256(folded, _mm256_set1_epi8(8));
                    }
                    let looked = simd::tbl32(tbl, folded);
                    // Negation in the +128 offset domain is wrapping 0 - v
                    // (entries are clamped to [1, 255], so 0 never occurs).
                    let negmask = _mm256_cmpgt_epi8(idx, _mm256_set1_epi8(7));
                    let negated = _mm256_sub_epi8(_mm256_setzero_si256(), looked);
                    _mm256_blendv_epi8(looked, negated, negmask)
                } else {
                    simd::tbl32(tbl, idx)
                };
            }
            // Balanced rounding-average tree: level by level, adjacent pairs
            // (identical shape to the scalar reference).
            let mut n = kgb;
            while n > 1 {
                for j in 0..n / 2 {
                    bufs[j] = simd::avg_u8(bufs[2 * j], bufs[2 * j + 1]);
                }
                n /= 2;
            }
            let tree = bufs[0];
            let off128 = _mm256_set1_epi16(128);
            let lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm256_castsi256_si128(tree)), off128);
            let hi = _mm256_sub_epi16(
                _mm256_cvtepu8_epi16(_mm256_extracti128_si256(tree, 1)),
                off128,
            );
            // L ≈ (tree - 128) * kgb; bit weight folds in here.
            let w = _mm256_set1_ps(((kgb as u32) << bit) as f32);
            blk.add_weighted_i16((lo, hi), w);
        }
        // Probabilistic rounding-bias correction of the averaging tree
        // (matches the scalar reference exactly; see its comment).
        let depth = kgb.trailing_zeros() as f32;
        let fa_delta = -0.25 * depth * kgb as f32 * (((1u32 << bits) - 1) as f32);
        let lut_scale = tables.q_scales[sb];
        let sc = _mm256_set1_ps(0.5 * lut_scale);
        let bias = _mm256_set1_ps(plan.cz * tables.asums[sb] + 0.5 * lut_scale * fa_delta);
        outacc.fold(&blk, sc, bias, plan.tile_scales(mt, sb));
        base += kgb * bits * step;
    }
    outacc.store(out);
}

/// Loads a duplicated 16-entry unsigned table.
#[inline]
#[target_feature(enable = "avx2")]
fn load_table_u8(u_tables: &[u8], base: usize) -> __m256i {
    let v = simd::loadu_128(&u_tables[base..]);
    _mm256_broadcastsi128_si256(v)
}

/// Assembles the interleaved 16-byte index step for `(kg, bit)` from the
/// flat nibble planes — the per-step gather cost that the offline
/// permutation removes (paper §3.2).
#[inline]
fn assemble_flat_step(plan: &WeightPlan, bit: usize, m0: usize, kg: usize, buf: &mut [u8; 16]) {
    let plane = plan.flat_plane(bit);
    let rb = plan.flat_row_bytes();
    let byte_off = kg / 2;
    let shift = 4 * (kg & 1);
    for j in 0..TILE_M / 2 {
        let lo = (plane[(m0 + j) * rb + byte_off] >> shift) & 0x0F;
        let hi = (plane[(m0 + j + TILE_M / 2) * rb + byte_off] >> shift) & 0x0F;
        buf[j] = lo | (hi << 4);
    }
}

/// Gathers the 32 per-row weight scales of a scale block on the flat layout.
#[inline]
fn assemble_flat_scales(plan: &WeightPlan, m0: usize, sb: usize, buf: &mut [f32; TILE_M]) {
    for (r, b) in buf.iter_mut().enumerate() {
        *b = plan.scale(m0 + r, sb);
    }
}

/// Quantized-table kernel over the flat layout (`+TQ`, `+Tiling` ladder
/// stages): `PSHUFB` lookups but strided index assembly every step.
#[target_feature(enable = "avx2,fma")]
fn mtile_flat_quant(plan: &WeightPlan, tables: &ActTables, mt: usize, out: &mut [f32; TILE_M]) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let m0 = mt * TILE_M;
    let mut outacc = OutAcc::zero();
    let mut buf = [0u8; 16];
    let mut sbuf = [0f32; TILE_M];

    for sb in 0..gpr {
        let mut acc = [(_mm256_setzero_si256(), _mm256_setzero_si256()); 4];
        for kgi in 0..kgb {
            let kg = sb * kgb + kgi;
            let tbl = load_table(&tables.q_tables, kg * 16);
            for bit in 0..bits {
                assemble_flat_step(plan, bit, m0, kg, &mut buf);
                let raw = simd::loadu_128(&buf);
                let idx = simd::unpack_nibbles_interleaved(raw);
                let vals = simd::tbl32(tbl, idx);
                acc[bit] = simd::accumulate_i8_into_i16(acc[bit], vals);
            }
        }
        let mut blk = OutAcc::zero();
        for bit in 0..bits {
            blk.add_weighted_i16(acc[bit], _mm256_set1_ps((1u32 << bit) as f32));
        }
        let sc = _mm256_set1_ps(0.5 * tables.q_scales[sb]);
        let bias = _mm256_set1_ps(plan.cz * tables.asums[sb]);
        assemble_flat_scales(plan, m0, sb, &mut sbuf);
        outacc.fold(&blk, sc, bias, &sbuf);
    }
    outacc.store(out);
}

/// TM-base kernel: `f32` tables accessed with hardware gathers
/// (`vgatherdps`) — a real lookup intrinsic, but neither in-register tables
/// nor optimized memory access.
#[target_feature(enable = "avx2,fma")]
fn mtile_flat_gather(plan: &WeightPlan, tables: &ActTables, mt: usize, out: &mut [f32; TILE_M]) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let m0 = mt * TILE_M;
    let mut outacc = OutAcc::zero();
    let mut buf = [0u8; 16];
    let mut sbuf = [0f32; TILE_M];

    for sb in 0..gpr {
        let mut blk = OutAcc::zero();
        for kgi in 0..kgb {
            let kg = sb * kgb + kgi;
            let table = &tables.f32_tables[kg * 16..kg * 16 + 16];
            for bit in 0..bits {
                assemble_flat_step(plan, bit, m0, kg, &mut buf);
                let raw = simd::loadu_128(&buf);
                let idx = simd::unpack_nibbles_interleaved(raw);
                let lanes_lo = _mm256_castsi256_si128(idx); // rows 0..16
                let lanes_hi = _mm256_extracti128_si256(idx, 1); // rows 16..32
                let (i0, i1) = simd::widen_u8_to_i32(lanes_lo);
                let (i2, i3) = simd::widen_u8_to_i32(lanes_hi);
                let w = _mm256_set1_ps((1u32 << bit) as f32);
                blk.0 = _mm256_fmadd_ps(w, simd::gather_f32(table, i0), blk.0);
                blk.1 = _mm256_fmadd_ps(w, simd::gather_f32(table, i1), blk.1);
                blk.2 = _mm256_fmadd_ps(w, simd::gather_f32(table, i2), blk.2);
                blk.3 = _mm256_fmadd_ps(w, simd::gather_f32(table, i3), blk.3);
            }
        }
        let sc = _mm256_set1_ps(0.5);
        let bias = _mm256_set1_ps(plan.cz * tables.asums[sb]);
        assemble_flat_scales(plan, m0, sb, &mut sbuf);
        outacc.fold(&blk, sc, bias, &sbuf);
    }
    outacc.store(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{scalar, KernelFamily};
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;
    use tmac_simd::Isa;

    /// The family an AVX2 host resolves for `opts` (at 2 bits, group 32).
    fn family(opts: &KernelOpts) -> KernelFamily {
        KernelFamily::resolve_for(Isa::Avx2, opts, 2, 32)
    }

    fn setup(m: usize, k: usize, bits: u8, gs: usize) -> (tmac_quant::QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.17).sin()) * 0.7 + ((i % 13) as f32 - 6.0) * 0.03)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32 * 0.41).cos()) * 0.9).collect();
        (rtn::quantize(&w, m, k, bits, gs).unwrap(), act)
    }

    fn compare_opts(opts: KernelOpts, bits: u8, tol: f32) {
        if !simd::available() {
            return;
        }
        let (qm, act) = setup(96, 256, bits, 32);
        let plan = WeightPlan::new(&qm, opts).unwrap();
        let tables = ActTables::build(&act, 32, &opts).unwrap();
        assert_eq!(
            family(&opts).gemv,
            Isa::Avx2,
            "opts {opts:?} should have an AVX2 kernel"
        );
        for mt in 0..plan.m_tiles() {
            let mut want = [0f32; TILE_M];
            scalar::gemv_plan_mtile(&plan, &tables, mt, &mut want);
            let mut got = [0f32; TILE_M];
            // SAFETY: AVX2+FMA verified by `simd::available()` above.
            unsafe { gemv_mtile(&plan, &tables, mt, &mut got) };
            for r in 0..TILE_M {
                assert!(
                    (want[r] - got[r]).abs() <= tol * (1.0 + want[r].abs()),
                    "opts={opts:?} bits={bits} mt={mt} r={r}: {} vs {}",
                    want[r],
                    got[r]
                );
            }
        }
    }

    #[test]
    fn permuted_matches_scalar_all_bits() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::plus_permute(), bits, 1e-5);
        }
    }

    #[test]
    fn interleaved_matches_scalar() {
        for bits in [2u8, 4] {
            let mut o = KernelOpts::plus_permute();
            o.interleave = true;
            compare_opts(o, bits, 1e-5);
        }
    }

    #[test]
    fn mirror_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::tmac(), bits, 1e-5);
        }
    }

    #[test]
    fn fast_aggregation_matches_scalar_emulation() {
        // The scalar kernel emulates the same avg tree, so even the lossy
        // path must agree to f32 round-off.
        for bits in [1u8, 2, 4] {
            compare_opts(KernelOpts::tmac_fast_aggregation(), bits, 1e-5);
            let mut no_mirror = KernelOpts::tmac_fast_aggregation();
            no_mirror.mirror = false;
            compare_opts(no_mirror, bits, 1e-5);
        }
    }

    #[test]
    fn flat_quant_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::plus_table_quant(), bits, 1e-5);
            compare_opts(KernelOpts::plus_tiling(), bits, 1e-5);
        }
    }

    #[test]
    fn tm_base_gather_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::tm_base(), bits, 1e-4);
        }
    }

    fn block_tables(rows: usize, k: usize, opts: &KernelOpts) -> (Vec<ActTables>, BatchTables) {
        let per_row: Vec<ActTables> = (0..rows)
            .map(|r| {
                let act: Vec<f32> = (0..k)
                    .map(|i| ((i as f32 * 0.41 + r as f32 * 2.3).cos()) * 0.9)
                    .collect();
                ActTables::build(&act, 32, opts).unwrap()
            })
            .collect();
        let batch = BatchTables::interleave(&per_row).unwrap();
        (per_row, batch)
    }

    /// The multi-row kernel must be *bit-identical* to per-row `gemv_mtile`
    /// calls — the property that keeps batched forwards equal to independent
    /// single-token forwards — for every supported option combination, every
    /// row-block size, and any K-panel split.
    #[test]
    fn gemm_mtile_bit_identical_to_gemv_mtile() {
        if !simd::available() {
            return;
        }
        let il = {
            let mut o = KernelOpts::plus_permute();
            o.interleave = true;
            o
        };
        for opts in [
            KernelOpts::plus_permute(),
            il,
            KernelOpts::tmac(),
            KernelOpts::tmac_mirror(),
        ] {
            for bits in 1..=4u8 {
                let (qm, _) = setup(96, 256, bits, 32);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                assert!(family(&opts).gemm.is_some(), "{opts:?}");
                for rows in [1usize, 3, 4, 8] {
                    let (per_row, batch) = block_tables(rows, 256, &opts);
                    let gpr = plan.groups_per_row();
                    for mt in 0..plan.m_tiles() {
                        let mut want = vec![0f32; rows * TILE_M];
                        for (r, t) in per_row.iter().enumerate() {
                            let mut buf = [0f32; TILE_M];
                            // SAFETY: AVX2+FMA verified above.
                            unsafe { gemv_mtile(&plan, t, mt, &mut buf) };
                            want[r * TILE_M..(r + 1) * TILE_M].copy_from_slice(&buf);
                        }
                        let mut got = vec![0f32; rows * TILE_M];
                        // SAFETY: AVX2+FMA verified above.
                        unsafe { gemm_mtile(&plan, &batch, mt, 0..gpr, &mut got) };
                        assert_eq!(got, want, "opts={opts:?} bits={bits} rows={rows} mt={mt}");
                        // Split into two uneven K-panels (scale-block units).
                        if gpr >= 2 {
                            let mid = gpr / 2 + gpr % 2;
                            let mut panelled = vec![0f32; rows * TILE_M];
                            // SAFETY: AVX2+FMA verified above.
                            unsafe {
                                gemm_mtile(&plan, &batch, mt, 0..mid, &mut panelled);
                                gemm_mtile(&plan, &batch, mt, mid..gpr, &mut panelled);
                            }
                            assert_eq!(panelled, want, "panel split opts={opts:?} bits={bits}");
                        }
                    }
                }
            }
        }
    }

    /// And against the portable oracle (tolerance: the scalar fold is not
    /// FMA-fused, so f32 rounding may differ in the last ulp).
    #[test]
    fn gemm_mtile_matches_scalar_oracle() {
        if !simd::available() {
            return;
        }
        for opts in [KernelOpts::tmac(), KernelOpts::tmac_mirror()] {
            for bits in [2u8, 3] {
                let (qm, _) = setup(64, 128, bits, 32);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let (_, batch) = block_tables(5, 128, &opts);
                let gpr = plan.groups_per_row();
                for mt in 0..plan.m_tiles() {
                    let mut want = vec![0f32; 5 * TILE_M];
                    scalar::gemm_plan_mtile(&plan, &batch, mt, 0..gpr, &mut want);
                    let mut got = vec![0f32; 5 * TILE_M];
                    // SAFETY: AVX2+FMA verified above.
                    unsafe { gemm_mtile(&plan, &batch, mt, 0..gpr, &mut got) };
                    for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            (w - g).abs() <= 1e-5 * (1.0 + w.abs()),
                            "opts={opts:?} bits={bits} mt={mt} i={i}: {w} vs {g}"
                        );
                    }
                }
            }
        }
    }

    /// The AVX2 family's multi-row coverage (as resolved on an AVX2 host).
    #[test]
    fn gemm_supported_gates_correctly() {
        let multi = |o: KernelOpts| family(&o).gemm == Some(Isa::Avx2);
        assert!(multi(KernelOpts::tmac()));
        assert!(multi(KernelOpts::tmac_mirror()));
        assert!(multi(KernelOpts::plus_permute()));
        // FA, flat layouts and f32 tables stay per-row.
        assert!(!multi(KernelOpts::tmac_fast_aggregation()));
        assert!(!multi(KernelOpts::plus_table_quant()));
        assert!(!multi(KernelOpts::tm_base()));
    }

    #[test]
    fn unsupported_combos_reported() {
        // Mirror without permutation has no AVX2 kernel.
        let mut o = KernelOpts::plus_table_quant();
        o.mirror = true;
        assert_eq!(family(&o).gemv, Isa::Scalar);
        // f32 tables with permutation: scalar fallback.
        let mut o = KernelOpts::plus_permute();
        o.table_quant = false;
        o.mirror = false;
        assert_eq!(family(&o).gemv, Isa::Scalar);
    }
}
