//! AVX-512 Vec-LUT multi-row mpGEMM kernel.
//!
//! The AVX2 multi-row kernel looks each weight index step up against one
//! activation row's table per `PSHUFB` (32 lookups, the table duplicated
//! across both 128-bit lanes). Here one `zmm` holds **four** rows' 16-byte
//! tables for a k-group — adjacent in the interleaved [`BatchTables`]
//! layout, so that is one (masked) 64-byte load — and the 16-byte weight
//! step is broadcast to all four lanes, so each `PSHUFB` performs 64
//! lookups for four rows (the Vec-LUT arrangement, arXiv 2512.06443).
//!
//! | step | per k-group pair, bit plane and 4-row group |
//! |---|---|
//! | weights | two `vbroadcasti32x4` loads + nibble split (shared by every group) |
//! | lookups | 4 × `vpshufb zmm` (k-groups `a`/`b` × rows `0..16`/`16..32`) |
//! | pair sums | 4 × `vpunpck{l,h}bw` + `vpmaddubsw` with `2^bit` as the `u8` operand |
//!
//! `vpmaddubsw` multiplies by the bit weight while it sums the two k-groups'
//! lookups of one output row, so every bit plane lands in the same `i16`
//! accumulators: four `zmm` per 4-row group, eight for an 8-row block. The
//! sums are exact integers (wrapping `i16` adds whose final value provably
//! fits: the lane covers only bit-widths and group sizes where it does),
//! converted to `f32` once per scale block and folded with the same two
//! FMAs per element as the AVX2 kernels — so the output is bit-identical to
//! [`super::avx2::gemm_mtile`] and to per-row [`super::avx2::gemv_mtile`].
//!
//! Coverage (resolved once per plan by [`super::KernelFamily`]): permuted,
//! interleaved, quantized, exact-aggregation, non-mirror plans whose
//! bits × group size keep the `i16` combine safe; row blocks of 1..=8 rows
//! (the last 4-row group masked).

use crate::opts::{LUT_GROUP, MAX_ROW_BLOCK, TILE_M};
use crate::plan::{Layout, WeightPlan};
use crate::table::{BatchTables, TABLE_LEN};
use std::arch::x86_64::*;
use std::ops::Range;

/// Activation rows per `zmm` of tables (one per 128-bit lane).
const LANES: usize = 4;

/// Bytes of one weight index step (one k-group, one bit plane, 32 rows).
const STEP: usize = TILE_M / 2;

/// Executes scale blocks `sbs` of m-tile `mt` for a whole register block,
/// accumulating into `outs` (row-major `rows × TILE_M` partial outputs the
/// caller zeroes before the first K-panel). Same contract as
/// [`super::avx2::gemm_mtile`], and bit-identical to it.
///
/// # Safety
///
/// The caller must have verified AVX-512 F/BW/VL and AVX2+FMA support (the
/// plan's [`super::KernelFamily`] records that check).
///
/// # Panics
///
/// Panics if the plan is outside the lane's coverage (see the module docs),
/// `batch` does not match the plan, `batch.rows > MAX_ROW_BLOCK`, `sbs`
/// runs past the last scale block, or `outs` is shorter than
/// `rows × TILE_M`.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,fma")]
pub fn gemm_mtile(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    let o = &plan.opts;
    assert!(
        plan.layout() == Layout::Permuted { interleaved: true }
            && o.table_quant
            && !o.mirror
            && !o.fast_aggregation
            && super::i16_combine_safe(plan.bits, plan.group_size),
        "plan outside the AVX-512 lane's coverage"
    );
    assert!(
        batch.rows >= 1 && batch.rows <= MAX_ROW_BLOCK,
        "row block must be 1..={MAX_ROW_BLOCK}"
    );
    assert!(
        !batch.mirror && batch.k == plan.k && batch.group_size == plan.group_size,
        "tables do not match the plan"
    );
    // Every table load below stays inside `q_tables`, every stream load
    // inside the m-tile stream, every partial inside `outs`.
    assert_eq!(
        batch.q_tables.len(),
        plan.kg_total() * batch.rows * TABLE_LEN
    );
    assert!(
        sbs.end <= plan.groups_per_row(),
        "scale blocks out of range"
    );
    assert!(outs.len() >= batch.rows * TILE_M, "outs too short");
    match batch.rows {
        1 => gemm_rows::<1, 1>(plan, batch, mt, sbs, outs),
        2 => gemm_rows::<2, 1>(plan, batch, mt, sbs, outs),
        3 => gemm_rows::<3, 1>(plan, batch, mt, sbs, outs),
        4 => gemm_rows::<4, 1>(plan, batch, mt, sbs, outs),
        5 => gemm_rows::<5, 2>(plan, batch, mt, sbs, outs),
        6 => gemm_rows::<6, 2>(plan, batch, mt, sbs, outs),
        7 => gemm_rows::<7, 2>(plan, batch, mt, sbs, outs),
        8 => gemm_rows::<8, 2>(plan, batch, mt, sbs, outs),
        r => unreachable!("row block {r} exceeds MAX_ROW_BLOCK"),
    }
}

/// Rows in 4-row group `g` of an `R`-row block.
const fn group_rows(r: usize, g: usize) -> usize {
    let left = r - g * LANES;
    if left < LANES {
        left
    } else {
        LANES
    }
}

/// Loads the tables of k-group `kg` for 4-row group `g` (one lane per row;
/// lanes past the block's last row are zeroed, so they look up zeros).
///
/// # Safety
///
/// `q` must hold `kg_total × R × 16` bytes and `kg < kg_total`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,fma")]
unsafe fn load_tables<const R: usize>(q: *const i8, kg: usize, g: usize) -> __m512i {
    let rows = group_rows(R, g);
    let mask: __mmask64 = if rows == LANES {
        !0
    } else {
        (1u64 << (rows * TABLE_LEN)) - 1
    };
    // SAFETY: rows `4g..4g + rows` of k-group `kg` occupy bytes
    // `(kg·R + 4g)·16 .. +rows·16` of `q` (in bounds by the caller's
    // contract); the masked load touches no byte past them.
    unsafe { _mm512_maskz_loadu_epi8(mask, q.add((kg * R + g * LANES) * TABLE_LEN)) }
}

/// Broadcasts the 16-byte weight step at `p` to all four lanes and splits
/// it into its low nibbles (output rows `0..16`) and high nibbles (rows
/// `16..32`) — the interleaved layout of Figure 4.
///
/// # Safety
///
/// `p` must point at 16 readable bytes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,fma")]
unsafe fn load_step(p: *const u8) -> (__m512i, __m512i) {
    // SAFETY: 16 readable bytes at `p` (caller's contract); unaligned load.
    let w = _mm512_broadcast_i32x4(unsafe { _mm_loadu_si128(p as *const __m128i) });
    let nib = _mm512_set1_epi8(0x0F);
    (
        _mm512_and_si512(w, nib),
        _mm512_and_si512(_mm512_srli_epi16::<4>(w), nib),
    )
}

/// Adds `2^bit · (a + b)` per output row to the four accumulators of a
/// 4-row group: `la`/`lb` are the k-group pair's lookups for output rows
/// `0..16`, `ha`/`hb` for rows `16..32`. Byte-interleaving `a` with `b`
/// makes `vpmaddubsw` sum each row's pair; `mul` (`2^bit` in every `u8`)
/// applies the bit weight in the same instruction. `|2^3 · (±128 ± 128)|`
/// never saturates.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,fma")]
fn accumulate(
    acc: &mut [__m512i; 4],
    mul: __m512i,
    (la, lb): (__m512i, __m512i),
    (ha, hb): (__m512i, __m512i),
) {
    let pairs = [
        _mm512_unpacklo_epi8(la, lb),
        _mm512_unpackhi_epi8(la, lb),
        _mm512_unpacklo_epi8(ha, hb),
        _mm512_unpackhi_epi8(ha, hb),
    ];
    for (a, p) in acc.iter_mut().zip(pairs) {
        *a = _mm512_add_epi16(*a, _mm512_maddubs_epi16(mul, p));
    }
}

/// The kernel body for `R` rows in `G = ⌈R/4⌉` groups (monomorphized so
/// the accumulator arrays fully register-allocate).
///
/// Accumulator `acc[g][q]`, lane `l` holds the `i16` sums of row `4g + l`
/// for output rows `8q..8q + 8` (the `vpunpck` order).
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,fma")]
fn gemm_rows<const R: usize, const G: usize>(
    plan: &WeightPlan,
    batch: &BatchTables,
    mt: usize,
    sbs: Range<usize>,
    outs: &mut [f32],
) {
    let bits = plan.bits;
    let kgb = plan.group_size / LUT_GROUP;
    let sb_bytes = bits * kgb * STEP;
    let stream = plan.mtile_stream(mt);
    let q = batch.q_tables.as_ptr();
    let zero = _mm512_setzero_si512();
    // Pick row `l`'s 16 `i16` sums (output rows 0..16 from `acc[0..2]`, or
    // 16..32 from `acc[2..4]`): qwords of lane `l` of both sources, so one
    // permute yields rows `l` (low half) and `l + 1` (high half).
    let pick01 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    let pick23 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);

    for sb in sbs {
        // The scale block's `bits × kgb` steps, bit-major.
        let blk = &stream[sb * sb_bytes..(sb + 1) * sb_bytes];
        let kg0 = sb * kgb;
        let mut acc = [[zero; 4]; G];
        let mut kgi = 0;
        while kgi + 1 < kgb {
            // SAFETY: `kg0 + kgi + 1 < kg_total` (`sbs` is in range) and
            // `q` holds `kg_total × R × 16` bytes (asserted by the caller).
            let ta: [__m512i; G] =
                std::array::from_fn(|g| unsafe { load_tables::<R>(q, kg0 + kgi, g) });
            // SAFETY: as above.
            let tb: [__m512i; G] =
                std::array::from_fn(|g| unsafe { load_tables::<R>(q, kg0 + kgi + 1, g) });
            let mut mul = _mm512_set1_epi8(1);
            for bit in 0..bits {
                let at = (bit * kgb + kgi) * STEP;
                let w = &blk[at..at + 2 * STEP];
                // SAFETY: `w` holds the two adjacent 16-byte steps.
                let ((a_lo, a_hi), (b_lo, b_hi)) =
                    unsafe { (load_step(w.as_ptr()), load_step(w.as_ptr().add(STEP))) };
                for g in 0..G {
                    accumulate(
                        &mut acc[g],
                        mul,
                        (
                            _mm512_shuffle_epi8(ta[g], a_lo),
                            _mm512_shuffle_epi8(tb[g], b_lo),
                        ),
                        (
                            _mm512_shuffle_epi8(ta[g], a_hi),
                            _mm512_shuffle_epi8(tb[g], b_hi),
                        ),
                    );
                }
                mul = _mm512_add_epi8(mul, mul);
            }
            kgi += 2;
        }
        if kgi < kgb {
            // Odd k-group count: the last k-group pairs with zeros.
            // SAFETY: as for the pairs above.
            let ta: [__m512i; G] =
                std::array::from_fn(|g| unsafe { load_tables::<R>(q, kg0 + kgi, g) });
            let mut mul = _mm512_set1_epi8(1);
            for bit in 0..bits {
                let at = (bit * kgb + kgi) * STEP;
                let w = &blk[at..at + STEP];
                // SAFETY: `w` holds one 16-byte step.
                let (a_lo, a_hi) = unsafe { load_step(w.as_ptr()) };
                for g in 0..G {
                    accumulate(
                        &mut acc[g],
                        mul,
                        (_mm512_shuffle_epi8(ta[g], a_lo), zero),
                        (_mm512_shuffle_epi8(ta[g], a_hi), zero),
                    );
                }
                mul = _mm512_add_epi8(mul, mul);
            }
        }

        // Fold: per row, `out += scales · (f32(sum) · sc + bias)` — the
        // AVX2 kernels' two FMAs per element, in the same order.
        let scales = plan.tile_scales(mt, sb);
        // SAFETY: `scales` is `TILE_M` = 32 floats; unaligned loads.
        let weight_scales = unsafe {
            [
                _mm512_loadu_ps(scales.as_ptr()),
                _mm512_loadu_ps(scales[16..].as_ptr()),
            ]
        };
        for (g, a) in acc.iter().enumerate() {
            let halves = [
                [
                    _mm512_permutex2var_epi64(a[0], pick01, a[1]),
                    _mm512_permutex2var_epi64(a[0], pick23, a[1]),
                ],
                [
                    _mm512_permutex2var_epi64(a[2], pick01, a[3]),
                    _mm512_permutex2var_epi64(a[2], pick23, a[3]),
                ],
            ];
            for l in 0..group_rows(R, g) {
                let r = g * LANES + l;
                let sc = _mm512_set1_ps(0.5 * batch.q_scale(r, sb));
                let bias = _mm512_set1_ps(plan.cz * batch.asum(r, sb));
                let row = &mut outs[r * TILE_M..(r + 1) * TILE_M];
                for (h, (pair, ws)) in halves.iter().zip(weight_scales).enumerate() {
                    let v = pair[l / 2];
                    let sums = if l % 2 == 0 {
                        _mm512_castsi512_si256(v)
                    } else {
                        _mm512_extracti64x4_epi64::<1>(v)
                    };
                    let f = _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(sums));
                    let t = _mm512_fmadd_ps(f, sc, bias);
                    let dst = &mut row[h * 16..(h + 1) * 16];
                    // SAFETY: `dst` is 16 floats of `outs`; unaligned access.
                    unsafe {
                        let acc_out = _mm512_loadu_ps(dst.as_ptr());
                        _mm512_storeu_ps(dst.as_mut_ptr(), _mm512_fmadd_ps(t, ws, acc_out));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::avx2;
    use crate::opts::KernelOpts;
    use crate::table::ActTables;
    use tmac_quant::rtn;
    use tmac_simd::Isa;

    /// Whether this host can run the lane; prints why a test skips.
    fn host_has_avx512(test: &str) -> bool {
        let ok = Isa::detect() == Isa::Avx512;
        if !ok {
            eprintln!(
                "{test}: skipped, host lacks AVX-512 F/BW/VL (detected {})",
                Isa::detect()
            );
        }
        ok
    }

    fn plan(m: usize, k: usize, bits: u8, gs: usize) -> WeightPlan {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.17).sin()) * 0.7 + ((i % 13) as f32 - 6.0) * 0.03)
            .collect();
        let qm = rtn::quantize(&w, m, k, bits, gs).unwrap();
        // One K-tile: `tile_k` must be a multiple of odd group sizes too.
        let opts = KernelOpts {
            tile_k: k,
            ..KernelOpts::tmac()
        };
        WeightPlan::new(&qm, opts).unwrap()
    }

    fn tables(rows: usize, k: usize, gs: usize) -> (Vec<ActTables>, BatchTables) {
        let per_row: Vec<ActTables> = (0..rows)
            .map(|r| {
                let act: Vec<f32> = (0..k)
                    .map(|i| ((i as f32 * 0.41 + r as f32 * 2.3).cos()) * 0.9)
                    .collect();
                ActTables::build(&act, gs, &KernelOpts::tmac()).unwrap()
            })
            .collect();
        let batch = BatchTables::interleave(&per_row).unwrap();
        (per_row, batch)
    }

    /// Checks the lane against the AVX2 multi-row kernel and per-row AVX2
    /// GEMV for every row count, on the whole K range and on a two-panel
    /// split.
    fn check(m: usize, k: usize, gs: usize) {
        for bits in 1..=4u8 {
            let plan = plan(m, k, bits, gs);
            assert_eq!(plan.family().gemm, Some(Isa::Avx512), "bits={bits} gs={gs}");
            let gpr = plan.groups_per_row();
            for rows in 1..=MAX_ROW_BLOCK {
                let (per_row, batch) = tables(rows, k, gs);
                for mt in 0..plan.m_tiles() {
                    let ctx = format!("bits={bits} gs={gs} k={k} rows={rows} mt={mt}");
                    let mut gemv = vec![0f32; rows * TILE_M];
                    for (r, t) in per_row.iter().enumerate() {
                        let mut buf = [0f32; TILE_M];
                        // SAFETY: AVX-512 implies AVX2+FMA (checked by caller).
                        unsafe { avx2::gemv_mtile(&plan, t, mt, &mut buf) };
                        gemv[r * TILE_M..(r + 1) * TILE_M].copy_from_slice(&buf);
                    }
                    let mut narrow = vec![0f32; rows * TILE_M];
                    // SAFETY: as above.
                    unsafe { avx2::gemm_mtile(&plan, &batch, mt, 0..gpr, &mut narrow) };
                    let mut wide = vec![0f32; rows * TILE_M];
                    // SAFETY: AVX-512 F/BW/VL checked by the caller.
                    unsafe { gemm_mtile(&plan, &batch, mt, 0..gpr, &mut wide) };
                    assert_eq!(wide, narrow, "vs AVX2 gemm {ctx}");
                    assert_eq!(wide, gemv, "vs AVX2 gemv {ctx}");
                    if gpr >= 2 {
                        let mid = gpr / 2 + gpr % 2;
                        let mut panelled = vec![0f32; rows * TILE_M];
                        // SAFETY: as above.
                        unsafe {
                            gemm_mtile(&plan, &batch, mt, 0..mid, &mut panelled);
                            gemm_mtile(&plan, &batch, mt, mid..gpr, &mut panelled);
                        }
                        assert_eq!(panelled, gemv, "two-panel split {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn bit_identical_group_32() {
        if host_has_avx512("bit_identical_group_32") {
            // M = 72: a ragged last m-tile.
            check(72, 256, 32);
        }
    }

    #[test]
    fn bit_identical_group_64() {
        if host_has_avx512("bit_identical_group_64") {
            check(40, 256, 64);
        }
    }

    #[test]
    fn bit_identical_odd_kgroups_per_block() {
        if host_has_avx512("bit_identical_odd_kgroups_per_block") {
            // group 20 → 5 k-groups per block: every block ends unpaired.
            check(50, 200, 20);
        }
    }

    #[test]
    fn rejects_uncovered_plans() {
        if !host_has_avx512("rejects_uncovered_plans") {
            return;
        }
        let p = plan(32, 256, 4, 128); // i16-unsafe combine
        let (_, batch) = tables(2, 256, 128);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut outs = vec![0f32; 2 * TILE_M];
            // SAFETY: AVX-512 F/BW/VL checked above.
            unsafe { gemm_mtile(&p, &batch, 0, 0..2, &mut outs) };
        }));
        assert!(refused.is_err(), "an i16-unsafe plan must be refused");
    }
}
