//! Kernel option set — the ablation switchboard of the paper's Figure 10.
//!
//! The breakdown experiment applies optimizations cumulatively:
//! `TM-base → +TQ → +Tiling → +Perm. → +Tuning → T-MAC (+IL) → TM+FA`.
//! [`KernelOpts`] encodes each stage as an explicit flag so every stage is a
//! real, runnable kernel configuration rather than a chart label.

/// LUT group size `g`: one table covers `2^g` activation sign patterns.
///
/// `g = 4` makes a 16-entry `i8` table that exactly fills a 128-bit
/// `TBL`/`PSHUFB` lane (paper §4: a larger `g` would need two registers and
/// the slower `TBL2`/AVX-512 shuffles).
pub const LUT_GROUP: usize = 4;

/// Rows processed per kernel micro-tile (`M_tm`).
///
/// 32 matches one AVX2 lookup (32 indices per `PSHUFB` with a duplicated
/// table) and is the tile the paper's Figure 3 uses.
pub const TILE_M: usize = 32;

/// Configuration of the T-MAC mpGEMM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpts {
    /// Table quantization (§3.3): store LUT entries as `i8` with a dynamic
    /// per-activation-block scale instead of `f32`. Enables in-register
    /// `PSHUFB`/`TBL` lookups; without it the kernel falls back to `f32`
    /// table gathers.
    pub table_quant: bool,
    /// Mirror consolidation (§3.3): store only the 8 non-negated table
    /// entries; reconstruct the other half by sign-flipping at lookup time.
    pub mirror: bool,
    /// Tile the `M`/`K` loops so the LUT block and partial sums stay
    /// cache-resident (§3.2, "Tiling" + "Axis reordering").
    pub tiling: bool,
    /// Offline weight permutation (§3.2): store each tile's indices
    /// contiguously in the exact order the kernel reads them.
    pub permute: bool,
    /// Offline weight interleaving (§3.2, Figure 4): pack row `r` and row
    /// `r + 16` in one byte so unpacking is a plain `AND`/`SHR`.
    pub interleave: bool,
    /// Fast 8-bit aggregation (§4): aggregate lookups with rounding-average
    /// instructions instead of widening adds. Faster, lossy.
    pub fast_aggregation: bool,
    /// `K`-tile length in elements (`K_tk`); must be a positive multiple of
    /// the weight quantization group size. Only meaningful with `tiling`.
    pub tile_k: usize,
    /// Activation rows per batch block in mpGEMM (table reuse across the
    /// sequence dimension): tables for `n_block` rows are built/cached
    /// together and swept over the weights as one block.
    pub n_block: usize,
    /// Activation rows per *register block* inside an mpGEMM sweep: the
    /// multi-row kernel loads each weight index step once and looks it up
    /// against `row_block` rows' interleaved tables. The driver clamps to
    /// `1..=`[`MAX_ROW_BLOCK`] (see [`KernelOpts::effective_row_block`]),
    /// and a register block additionally never straddles an `n_block`
    /// boundary. `1` disables the multi-row kernel (per-row sweep, the
    /// pre-register-blocking behaviour).
    pub row_block: usize,
    /// K-panel length for mpGEMM cache blocking, in k-groups (4 activations
    /// each): the kg range is split into panels so the row block's active
    /// table slice (`row_block · kg_panel · 16` bytes when quantized) stays
    /// L1-resident while all m-tiles stream over it. Rounded to whole scale
    /// blocks at execution time. `0` = auto-size from [`L1_TABLE_BUDGET`].
    pub kg_panel: usize,
}

/// Bytes of L1 data cache budgeted for the mpGEMM table working set when
/// `kg_panel == 0` (auto). Half of a conservative 32 KB L1d: the other half
/// is left to the streamed weight indices, partial outputs, and scales.
pub const L1_TABLE_BUDGET: usize = 16 * 1024;

/// Hard cap on `row_block` — the multi-row kernels' register-block limit.
/// On AVX2, eight rows × 4 bit planes × 2 `i16` accumulators already
/// exceed the 16 architectural `ymm` registers, so larger blocks would only
/// add spill traffic. The AVX-512 lane folds the bit planes into one
/// accumulator set per 4-row group (8 of the 32 `zmm` at eight rows), and
/// its kernels are monomorphized for exactly `1..=8` rows. The driver, the
/// cost model, and the interleave cache all clamp through
/// [`KernelOpts::effective_row_block`] so they cannot disagree.
pub const MAX_ROW_BLOCK: usize = 8;

impl KernelOpts {
    /// `TM-base`: hardware-intrinsic lookups (gathers from `f32` tables) but
    /// no memory-access optimization at all.
    pub fn tm_base() -> Self {
        KernelOpts {
            table_quant: false,
            mirror: false,
            tiling: false,
            permute: false,
            interleave: false,
            fast_aggregation: false,
            tile_k: 0,
            n_block: 1,
            row_block: 1,
            kg_panel: 0,
        }
    }

    /// `+TQ`: adds table quantization (in-register `i8` lookups).
    pub fn plus_table_quant() -> Self {
        KernelOpts {
            table_quant: true,
            ..Self::tm_base()
        }
    }

    /// `+Tiling`: adds `M`/`K` tiling on top of table quantization.
    pub fn plus_tiling() -> Self {
        KernelOpts {
            tiling: true,
            tile_k: 256,
            ..Self::plus_table_quant()
        }
    }

    /// `+Perm.`: adds the offline contiguous-tile weight permutation.
    pub fn plus_permute() -> Self {
        KernelOpts {
            permute: true,
            ..Self::plus_tiling()
        }
    }

    /// `+Tuning` is represented by replacing `tile_k`/`n_block` with tuned
    /// values; see `tmac_core::tune`. The flag set is `plus_permute`.
    pub fn plus_tuning(tile_k: usize, n_block: usize) -> Self {
        KernelOpts {
            tile_k,
            n_block,
            ..Self::plus_permute()
        }
    }

    /// Full T-MAC: everything except fast aggregation (the paper's default;
    /// FA is offered as an opt-in because it costs accuracy).
    ///
    /// Mirror consolidation is *off* in this preset: on AVX2 the per-lookup
    /// sign reconstruction costs more than the halved table loads save
    /// (mirror pays off on 128-bit NEON, where table registers are the
    /// scarce resource — see the `ablations` bench). Use [`Self::tmac_mirror`]
    /// for the fully-consolidated variant.
    pub fn tmac() -> Self {
        KernelOpts {
            interleave: true,
            mirror: false,
            n_block: 8,
            row_block: 8,
            ..Self::plus_permute()
        }
    }

    /// Full T-MAC with mirror consolidation (halved table storage and
    /// precompute; the right default for NEON-class targets).
    pub fn tmac_mirror() -> Self {
        KernelOpts {
            mirror: true,
            ..Self::tmac()
        }
    }

    /// `TM+FA`: full T-MAC plus fast 8-bit aggregation.
    pub fn tmac_fast_aggregation() -> Self {
        KernelOpts {
            fast_aggregation: true,
            ..Self::tmac()
        }
    }

    /// The cumulative Figure 10 ladder, in paper order, with display names.
    pub fn breakdown_ladder() -> Vec<(&'static str, KernelOpts)> {
        vec![
            ("TM-base", Self::tm_base()),
            ("+TQ", Self::plus_table_quant()),
            ("+Tiling", Self::plus_tiling()),
            ("+Perm.", Self::plus_permute()),
            ("+Tuning", Self::plus_tuning(512, 8)),
            ("T-MAC", Self::tmac()),
            ("TM+FA", Self::tmac_fast_aggregation()),
        ]
    }

    /// The register-block size the mpGEMM driver actually uses:
    /// `row_block` clamped to `1..=`[`MAX_ROW_BLOCK`].
    pub fn effective_row_block(&self) -> usize {
        self.row_block.clamp(1, MAX_ROW_BLOCK)
    }

    /// Checks internal consistency of the flag combination.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated dependency:
    /// permutation requires tiling; interleaving requires permutation;
    /// mirror consolidation and fast aggregation require quantized tables
    /// (they are `i8`-table transforms); tiled configs need a valid
    /// `tile_k`.
    pub fn validate(&self) -> Result<(), String> {
        if self.permute && !self.tiling {
            return Err("weight permutation requires tiling".into());
        }
        if self.interleave && !self.permute {
            return Err("weight interleaving requires permutation".into());
        }
        if self.mirror && !self.table_quant {
            return Err("mirror consolidation requires table quantization".into());
        }
        if self.fast_aggregation && !self.table_quant {
            return Err("fast aggregation requires table quantization".into());
        }
        if self.tiling && self.tile_k == 0 {
            return Err("tiling requires tile_k > 0".into());
        }
        if self.n_block == 0 {
            return Err("n_block must be positive".into());
        }
        if self.row_block == 0 {
            return Err("row_block must be positive".into());
        }
        Ok(())
    }
}

impl Default for KernelOpts {
    /// Defaults to the full T-MAC configuration.
    fn default() -> Self {
        Self::tmac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative_and_valid() {
        let ladder = KernelOpts::breakdown_ladder();
        assert_eq!(ladder.len(), 7);
        for (name, o) in &ladder {
            assert!(o.validate().is_ok(), "{name} invalid: {:?}", o.validate());
        }
        // Each step turns something on that the previous step lacked.
        assert!(!ladder[0].1.table_quant && ladder[1].1.table_quant);
        assert!(!ladder[1].1.tiling && ladder[2].1.tiling);
        assert!(!ladder[2].1.permute && ladder[3].1.permute);
        assert!(ladder[4].1.tile_k != ladder[3].1.tile_k);
        assert!(!ladder[4].1.interleave && ladder[5].1.interleave);
        assert!(!ladder[5].1.fast_aggregation && ladder[6].1.fast_aggregation);
    }

    #[test]
    fn dependencies_enforced() {
        let mut o = KernelOpts::tm_base();
        o.permute = true;
        assert!(o.validate().is_err());
        let mut o = KernelOpts::plus_permute();
        o.interleave = true;
        assert!(o.validate().is_ok());
        o.permute = false;
        assert!(o.validate().is_err());
        let mut o = KernelOpts::tm_base();
        o.mirror = true;
        assert!(o.validate().is_err());
        let mut o = KernelOpts::plus_tiling();
        o.tile_k = 0;
        assert!(o.validate().is_err());
    }

    #[test]
    fn multi_row_knobs_validated() {
        let mut o = KernelOpts::tmac();
        assert_eq!(o.row_block, 8, "full T-MAC enables register blocking");
        assert_eq!(o.kg_panel, 0, "panel length defaults to auto");
        o.row_block = 0;
        assert!(o.validate().is_err());
        let mut o = KernelOpts::tm_base();
        assert_eq!(o.row_block, 1, "base config is per-row");
        o.kg_panel = 7; // any value is legal; rounding happens at run time
        assert!(o.validate().is_ok());
    }

    #[test]
    fn default_is_full_tmac() {
        let d = KernelOpts::default();
        assert!(d.table_quant && d.tiling && d.permute && d.interleave);
        assert!(KernelOpts::tmac_mirror().mirror);
        assert!(!d.fast_aggregation);
    }
}
