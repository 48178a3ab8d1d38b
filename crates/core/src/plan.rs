//! Offline weight preprocessing (paper Figure 2, "OFFLINE").
//!
//! An `n`-bit weight matrix is decomposed into `n` one-bit matrices
//! (Eq. 1), each one-bit matrix is grouped into 4-bit lookup indices along
//! `K`, and the indices are laid out according to the kernel options:
//!
//! * **Flat** (no permutation): one nibble-packed plane per bit, row-major —
//!   the layout a naive implementation would use. Kernels must gather a
//!   tile's indices from `TILE_M` strided rows on every step.
//! * **Permuted** (`opts.permute`): indices are stored in the exact order
//!   the kernel consumes them — m-tile by m-tile, k-tile by k-tile, k-group
//!   by k-group, bit by bit, 16 bytes per step ("T-MAC flats the elements in
//!   a tile sequentially and then concatenates the flatten tiles", §3.2).
//!   Within the 16 bytes, nibbles are either *sequential* (rows `2j`,
//!   `2j+1`) or *interleaved* (rows `j`, `j+16`, Figure 4) per
//!   `opts.interleave`.
//!
//! The weight matrix never changes during inference, so all of this cost is
//! paid once offline — exactly the paper's argument for why permutation and
//! interleaving are free at inference time.

use crate::kernel::KernelFamily;
use crate::opts::{KernelOpts, LUT_GROUP, TILE_M};
use crate::TmacError;
use std::sync::Arc;
use tmac_quant::QuantizedMatrix;

/// Memory that prepacked plan segments can borrow zero-copy — typically a
/// container file mapping (`tmac-io`). Implementors must keep the bytes
/// immutable and at a stable address for their whole lifetime.
pub trait PlanBacking: Send + Sync + std::fmt::Debug {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

/// One plan data segment: a typed, immutable slice that either owns its
/// data or borrows it from a shared [`PlanBacking`] (the zero-copy load
/// path — weight tiles are used straight out of the file mapping, never
/// copied or re-packed).
pub struct Segment<T: Copy + 'static> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

enum Backing<T> {
    // Held only to keep `ptr` alive; all reads go through the pointer.
    Owned(#[allow(dead_code)] Box<[T]>),
    Shared(Arc<dyn PlanBacking>),
}

// SAFETY: the segment is immutable; `ptr` points into memory kept alive by
// `backing` (the boxed slice or the shared owner), and `T` is plain data.
unsafe impl<T: Copy + Send + Sync> Send for Segment<T> {}
// SAFETY: as for `Send`: shared access is read-only.
unsafe impl<T: Copy + Send + Sync> Sync for Segment<T> {}

impl<T: Copy + 'static> Segment<T> {
    /// An owned segment.
    pub fn from_vec(v: Vec<T>) -> Self {
        let b = v.into_boxed_slice();
        Segment {
            ptr: b.as_ptr(),
            len: b.len(),
            backing: Backing::Owned(b),
        }
    }

    /// A segment borrowing `len` `T`s at `byte_off` of `owner`'s bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] if the range is out of bounds or the
    /// start address is not aligned for `T`.
    pub fn borrowed(
        owner: Arc<dyn PlanBacking>,
        byte_off: usize,
        len: usize,
    ) -> Result<Self, TmacError> {
        let bytes = owner.bytes();
        let byte_len = len * std::mem::size_of::<T>();
        let end = byte_off
            .checked_add(byte_len)
            .ok_or_else(|| TmacError::Shape("segment range overflows".into()))?;
        if end > bytes.len() {
            return Err(TmacError::Shape(format!(
                "segment {byte_off}..{end} out of backing ({} bytes)",
                bytes.len()
            )));
        }
        // SAFETY: `byte_off <= end <= bytes.len()` (checked above), so the
        // offset pointer stays within (or one past) the backing bytes.
        let ptr = unsafe { bytes.as_ptr().add(byte_off) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(TmacError::Shape(format!(
                "segment at byte offset {byte_off} is not {}-byte aligned",
                std::mem::align_of::<T>()
            )));
        }
        Ok(Segment {
            ptr: ptr.cast(),
            len,
            backing: Backing::Shared(owner),
        })
    }

    /// True if this segment borrows from a shared backing (was loaded
    /// zero-copy) rather than owning its data.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.backing, Backing::Shared(_))
    }
}

impl<T: Copy + 'static> std::ops::Deref for Segment<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: construction guarantees ptr/len are valid for the
        // lifetime of `backing`, which lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Copy + 'static> Clone for Segment<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            // Re-own: the clone's pointer must track its own box.
            Backing::Owned(_) => Segment::from_vec(self.to_vec()),
            Backing::Shared(owner) => Segment {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Shared(Arc::clone(owner)),
            },
        }
    }
}

impl<T: Copy + std::fmt::Debug + 'static> std::fmt::Debug for Segment<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.backing {
            Backing::Owned(_) => "owned",
            Backing::Shared(_) => "borrowed",
        };
        write!(f, "Segment<{kind}; len {}>", self.len)
    }
}

/// Physical index layout inside a [`WeightPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Row-major nibble planes, one per bit.
    Flat,
    /// Contiguous per-tile stream (optionally interleaved).
    Permuted {
        /// Nibble order within each 16-byte step.
        interleaved: bool,
    },
}

/// Offline-preprocessed weights ready for the T-MAC kernels.
#[derive(Debug, Clone)]
pub struct WeightPlan {
    /// Logical output rows `M`.
    pub m: usize,
    /// `M` rounded up to a multiple of [`TILE_M`] (padding rows have zero
    /// scales, so they contribute nothing).
    pub m_padded: usize,
    /// Reduction length `K`.
    pub k: usize,
    /// Weight bit-width.
    pub bits: usize,
    /// Scale group size along `K`.
    pub group_size: usize,
    /// Zero point in code space.
    pub zero: f32,
    /// Bit-serial bias constant `(2^bits - 1)/2 - zero` (see `tmac-core`
    /// crate docs); multiplied by per-block activation sums at runtime.
    pub cz: f32,
    /// Options the plan was built for.
    pub opts: KernelOpts,
    /// Effective `K`-tile length in elements (whole `K` when not tiling).
    pub tile_k: usize,
    layout: Layout,
    /// Kernels serving this plan, resolved once at build/load time.
    family: KernelFamily,
    /// Flat layout: `bits` planes, each `m_padded * k/8` bytes.
    flat_planes: Vec<Segment<u8>>,
    /// Permuted layout: single stream (see module docs for the order).
    perm_stream: Segment<u8>,
    /// Row-major scales, padded: `m_padded * k/group_size`.
    scales_flat: Segment<f32>,
    /// Tile-permuted scales: per m-tile, per scale block, `TILE_M` floats.
    scales_perm: Segment<f32>,
}

/// The raw pieces of a [`WeightPlan`], as a container stores them —
/// metadata plus data segments in exactly the byte order the kernels
/// consume. [`WeightPlan::from_parts`] validates and reassembles them
/// without re-running the offline pack, which is what makes prepacked
/// container loading cheap (and, with borrowed segments, zero-copy).
#[derive(Debug)]
pub struct PlanParts {
    /// Logical output rows `M`.
    pub m: usize,
    /// Reduction length `K`.
    pub k: usize,
    /// Weight bit-width (`1..=4`).
    pub bits: usize,
    /// Scale group size along `K`.
    pub group_size: usize,
    /// Zero point in code space.
    pub zero: f32,
    /// Kernel options the stream was packed for.
    pub opts: KernelOpts,
    /// Flat layout: one nibble plane per bit. Empty for permuted plans.
    pub flat_planes: Vec<Segment<u8>>,
    /// Permuted layout: the contiguous tile stream. Empty for flat plans.
    pub perm_stream: Segment<u8>,
    /// Row-major padded scales. For permuted plans an empty segment is
    /// allowed; they are then reconstructed from `scales_perm` (the
    /// row-major copy is cold-path metadata for permuted layouts).
    pub scales_flat: Segment<f32>,
    /// Tile-permuted scales (permuted layout only; empty for flat plans).
    pub scales_perm: Segment<f32>,
}

impl WeightPlan {
    /// Builds a plan from a canonical quantized matrix.
    ///
    /// # Errors
    ///
    /// * [`TmacError::Opts`] if the option combination is inconsistent.
    /// * [`TmacError::Shape`] if `K` is not a multiple of the LUT group (4),
    ///   the scale group size is not a multiple of 4, or `tile_k` is not a
    ///   multiple of the scale group size.
    pub fn new(qm: &QuantizedMatrix, opts: KernelOpts) -> Result<WeightPlan, TmacError> {
        opts.validate().map_err(TmacError::Opts)?;
        qm.validate()?;
        if !qm.cols.is_multiple_of(LUT_GROUP) {
            return Err(TmacError::Shape(format!(
                "K = {} must be a multiple of the LUT group {LUT_GROUP}",
                qm.cols
            )));
        }
        if !qm.group_size.is_multiple_of(LUT_GROUP) {
            return Err(TmacError::Shape(format!(
                "group_size {} must be a multiple of the LUT group {LUT_GROUP}",
                qm.group_size
            )));
        }
        let tile_k = if opts.tiling {
            if !opts.tile_k.is_multiple_of(qm.group_size) {
                return Err(TmacError::Shape(format!(
                    "tile_k {} must be a multiple of group_size {}",
                    opts.tile_k, qm.group_size
                )));
            }
            opts.tile_k.min(qm.cols)
        } else {
            qm.cols
        };

        let (m, k, bits) = (qm.rows, qm.cols, qm.bits as usize);
        let m_padded = m.div_ceil(TILE_M) * TILE_M;
        let gpr = k / qm.group_size;

        // Padded row-major scales.
        let mut scales_flat = vec![0f32; m_padded * gpr];
        scales_flat[..m * gpr].copy_from_slice(&qm.scales);

        let layout = if opts.permute {
            Layout::Permuted {
                interleaved: opts.interleave,
            }
        } else {
            Layout::Flat
        };

        let kg_total = k / LUT_GROUP;
        let nibble = |row: usize, bit: usize, kg: usize| -> u8 {
            if row >= m {
                return 0;
            }
            let base = row * k + kg * LUT_GROUP;
            let mut idx = 0u8;
            for j in 0..LUT_GROUP {
                let code = qm.codes[base + j];
                idx |= ((code >> bit) & 1) << j;
            }
            idx
        };

        let mut flat_planes = Vec::new();
        let mut perm_stream = Vec::new();
        let mut scales_perm = Vec::new();
        match layout {
            Layout::Flat => {
                let row_bytes = kg_total / 2 + kg_total % 2;
                for bit in 0..bits {
                    let mut plane = vec![0u8; m_padded * row_bytes];
                    for row in 0..m {
                        for kg in 0..kg_total {
                            let v = nibble(row, bit, kg);
                            let byte = &mut plane[row * row_bytes + kg / 2];
                            if kg % 2 == 0 {
                                *byte |= v;
                            } else {
                                *byte |= v << 4;
                            }
                        }
                    }
                    flat_planes.push(Segment::from_vec(plane));
                }
            }
            Layout::Permuted { interleaved } => {
                // Stream order per m-tile: scale block → bit plane → k-group
                // (bit-major *within* a scale block so the kernel can pair
                // same-bit lookups of adjacent k-groups in one 256-bit
                // load). Scale blocks never straddle k-tiles because
                // `tile_k` is a multiple of `group_size`, so k-tiling does
                // not alter the byte order.
                perm_stream = vec![0u8; m_padded / TILE_M * kg_total * bits * (TILE_M / 2)];
                let kg_per_block = qm.group_size / LUT_GROUP;
                let mut off = 0;
                for mt in 0..m_padded / TILE_M {
                    let m0 = mt * TILE_M;
                    for sb in 0..k / qm.group_size {
                        for bit in 0..bits {
                            for kg_in in 0..kg_per_block {
                                let kg = sb * kg_per_block + kg_in;
                                for j in 0..TILE_M / 2 {
                                    let (rlo, rhi) = if interleaved {
                                        (m0 + j, m0 + j + TILE_M / 2)
                                    } else {
                                        (m0 + 2 * j, m0 + 2 * j + 1)
                                    };
                                    perm_stream[off + j] =
                                        nibble(rlo, bit, kg) | (nibble(rhi, bit, kg) << 4);
                                }
                                off += TILE_M / 2;
                            }
                        }
                    }
                }
                debug_assert_eq!(off, perm_stream.len());
                // Tile-permuted scales: per m-tile, per scale block, the
                // TILE_M row scales contiguously.
                scales_perm = vec![0f32; m_padded * gpr];
                let mut soff = 0;
                for mt in 0..m_padded / TILE_M {
                    for sb in 0..gpr {
                        for r in 0..TILE_M {
                            scales_perm[soff] = scales_flat[(mt * TILE_M + r) * gpr + sb];
                            soff += 1;
                        }
                    }
                }
            }
        }

        let zero = qm.zero;
        let cz = ((1u32 << bits) - 1) as f32 / 2.0 - zero;
        Ok(WeightPlan {
            m,
            m_padded,
            k,
            bits,
            group_size: qm.group_size,
            zero,
            cz,
            opts,
            tile_k,
            layout,
            family: KernelFamily::resolve(&opts, bits, qm.group_size),
            flat_planes,
            perm_stream: Segment::from_vec(perm_stream),
            scales_flat: Segment::from_vec(scales_flat),
            scales_perm: Segment::from_vec(scales_perm),
        })
    }

    /// Reassembles a plan from prepacked parts (a container load) without
    /// re-running the offline pack. Segments may borrow from a shared
    /// backing (zero-copy) or own their data.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Opts`] for inconsistent options, and
    /// [`TmacError::Shape`] when a dimension invariant or a segment length
    /// disagrees with the metadata.
    pub fn from_parts(parts: PlanParts) -> Result<WeightPlan, TmacError> {
        let PlanParts {
            m,
            k,
            bits,
            group_size,
            zero,
            opts,
            flat_planes,
            perm_stream,
            scales_flat,
            scales_perm,
        } = parts;
        opts.validate().map_err(TmacError::Opts)?;
        if !(1..=4).contains(&bits) {
            return Err(TmacError::Shape(format!("unsupported bit-width {bits}")));
        }
        if m == 0 || k == 0 {
            return Err(TmacError::Shape(format!("degenerate shape {m}x{k}")));
        }
        if group_size == 0
            || !group_size.is_multiple_of(LUT_GROUP)
            || !k.is_multiple_of(group_size)
            || !k.is_multiple_of(LUT_GROUP)
        {
            return Err(TmacError::Shape(format!(
                "K {k} / group_size {group_size} violate the LUT-group invariants"
            )));
        }
        let tile_k = if opts.tiling {
            if !opts.tile_k.is_multiple_of(group_size) {
                return Err(TmacError::Shape(format!(
                    "tile_k {} must be a multiple of group_size {group_size}",
                    opts.tile_k
                )));
            }
            opts.tile_k.min(k)
        } else {
            k
        };
        // `m`/`k` may come from an untrusted container index: every
        // derived size is checked so a crafted file yields a typed error,
        // not an overflow panic.
        let mul = |a: usize, b: usize| -> Result<usize, TmacError> {
            a.checked_mul(b)
                .ok_or_else(|| TmacError::Shape(format!("plan dimensions overflow ({m}x{k})")))
        };
        let m_padded = mul(m.div_ceil(TILE_M), TILE_M)?;
        let gpr = k / group_size;
        let kg_total = k / LUT_GROUP;
        let expect_scales = mul(m_padded, gpr)?;
        let layout = if opts.permute {
            Layout::Permuted {
                interleaved: opts.interleave,
            }
        } else {
            Layout::Flat
        };

        let (flat_planes, perm_stream, scales_flat, scales_perm) = match layout {
            Layout::Flat => {
                let row_bytes = kg_total / 2 + kg_total % 2;
                if flat_planes.len() != bits {
                    return Err(TmacError::Shape(format!(
                        "flat layout needs {bits} planes, got {}",
                        flat_planes.len()
                    )));
                }
                let expect_plane = mul(m_padded, row_bytes)?;
                for (b, p) in flat_planes.iter().enumerate() {
                    if p.len() != expect_plane {
                        return Err(TmacError::Shape(format!(
                            "plane {b}: {} bytes, expected {expect_plane}",
                            p.len()
                        )));
                    }
                }
                if !perm_stream.is_empty() || !scales_perm.is_empty() {
                    return Err(TmacError::Shape(
                        "flat layout cannot carry permuted segments".into(),
                    ));
                }
                if scales_flat.len() != expect_scales {
                    return Err(TmacError::Shape(format!(
                        "scales: {} floats, expected {expect_scales}",
                        scales_flat.len()
                    )));
                }
                (
                    flat_planes,
                    perm_stream,
                    scales_flat,
                    Segment::from_vec(Vec::new()),
                )
            }
            Layout::Permuted { .. } => {
                if !flat_planes.is_empty() {
                    return Err(TmacError::Shape(
                        "permuted layout cannot carry flat planes".into(),
                    ));
                }
                let expect_stream = mul(mul(m_padded / TILE_M, kg_total)?, bits * (TILE_M / 2))?;
                if perm_stream.len() != expect_stream {
                    return Err(TmacError::Shape(format!(
                        "permuted stream: {} bytes, expected {expect_stream}",
                        perm_stream.len()
                    )));
                }
                if scales_perm.len() != expect_scales {
                    return Err(TmacError::Shape(format!(
                        "permuted scales: {} floats, expected {expect_scales}",
                        scales_perm.len()
                    )));
                }
                // The container stores scales once, tile-permuted; an empty
                // row-major segment is legal ([`WeightPlan::scale`] then
                // reads through the permutation).
                if !scales_flat.is_empty() && scales_flat.len() != expect_scales {
                    return Err(TmacError::Shape(format!(
                        "scales: {} floats, expected {expect_scales}",
                        scales_flat.len()
                    )));
                }
                (flat_planes, perm_stream, scales_flat, scales_perm)
            }
        };

        let cz = ((1u32 << bits) - 1) as f32 / 2.0 - zero;
        Ok(WeightPlan {
            m,
            m_padded,
            k,
            bits,
            group_size,
            zero,
            cz,
            opts,
            tile_k,
            layout,
            family: KernelFamily::resolve(&opts, bits, group_size),
            flat_planes,
            perm_stream,
            scales_flat,
            scales_perm,
        })
    }

    /// Reconstructs the canonical quantized matrix this plan was packed
    /// from. Exact: codes are re-read from the nibble layout and scales
    /// from the stored (unpadded) rows, so
    /// `WeightPlan::new(&p.to_quantized(), p.opts)` reproduces `p`
    /// byte-for-byte. This is the materialization path for backends that
    /// do not consume the prepacked layout (dequant, `f32`).
    pub fn to_quantized(&self) -> QuantizedMatrix {
        let (m, k) = (self.m, self.k);
        let mut codes = vec![0u8; m * k];
        for row in 0..m {
            for kg in 0..self.kg_total() {
                for bit in 0..self.bits {
                    let idx = self.index(bit, row, kg);
                    for j in 0..LUT_GROUP {
                        codes[row * k + kg * LUT_GROUP + j] |= ((idx >> j) & 1) << bit;
                    }
                }
            }
        }
        let gpr = self.groups_per_row();
        let mut scales = Vec::with_capacity(m * gpr);
        for row in 0..m {
            for sb in 0..gpr {
                scales.push(self.scale(row, sb));
            }
        }
        QuantizedMatrix {
            rows: m,
            cols: k,
            bits: self.bits as u8,
            group_size: self.group_size,
            codes,
            scales,
            zero: self.zero,
        }
    }

    /// Rebuilds this plan under different kernel options, sharing the data
    /// segments (cheap for borrowed plans). Only options that do not alter
    /// the physical byte layout may change.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Opts`] when `opts` disagree with the stored
    /// layout (`permute`/`interleave`), and propagates
    /// [`WeightPlan::from_parts`] validation failures.
    pub fn with_opts(&self, opts: KernelOpts) -> Result<WeightPlan, TmacError> {
        if (opts.permute, opts.interleave) != (self.opts.permute, self.opts.interleave) {
            return Err(TmacError::Opts(format!(
                "options ({:?}) are layout-incompatible with the stored stream ({:?})",
                (opts.permute, opts.interleave),
                (self.opts.permute, self.opts.interleave)
            )));
        }
        WeightPlan::from_parts(PlanParts {
            m: self.m,
            k: self.k,
            bits: self.bits,
            group_size: self.group_size,
            zero: self.zero,
            opts,
            flat_planes: self.flat_planes.clone(),
            perm_stream: self.perm_stream.clone(),
            scales_flat: self.scales_flat.clone(),
            scales_perm: self.scales_perm.clone(),
        })
    }

    /// The physical layout of this plan.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The kernels serving this plan on this host, resolved once when the
    /// plan was built or loaded (see [`KernelFamily`]).
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Number of k-groups (`K / 4`).
    pub fn kg_total(&self) -> usize {
        self.k / LUT_GROUP
    }

    /// Number of scale groups per row (`K / group_size`).
    pub fn groups_per_row(&self) -> usize {
        self.k / self.group_size
    }

    /// Number of m-tiles (`m_padded / TILE_M`).
    pub fn m_tiles(&self) -> usize {
        self.m_padded / TILE_M
    }

    /// The 4-bit lookup index of `(bit, row, kg)`, decoded from whichever
    /// layout the plan stores.
    ///
    /// This is the layout oracle: kernels never call it (they stream), but
    /// the scalar reference kernel and the layout tests do.
    ///
    /// # Panics
    ///
    /// Panics if `bit`, `row` or `kg` is out of range.
    pub fn index(&self, bit: usize, row: usize, kg: usize) -> u8 {
        assert!(bit < self.bits && row < self.m_padded && kg < self.kg_total());
        match self.layout {
            Layout::Flat => {
                let kg_total = self.kg_total();
                let row_bytes = kg_total / 2 + kg_total % 2;
                let byte = self.flat_planes[bit][row * row_bytes + kg / 2];
                if kg.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                }
            }
            Layout::Permuted { interleaved } => {
                let (mt, r) = (row / TILE_M, row % TILE_M);
                let base = self.step_offset(mt, kg, bit);
                let half = TILE_M / 2;
                let (j, high) = if interleaved {
                    (r % half, r >= half)
                } else {
                    (r / 2, r % 2 == 1)
                };
                let byte = self.perm_stream[base + j];
                if high {
                    byte >> 4
                } else {
                    byte & 0x0F
                }
            }
        }
    }

    /// Byte offset of the 16-byte step `(m-tile, kg, bit)` in the permuted
    /// stream (scale-block-major, bit-major within the block).
    fn step_offset(&self, mt: usize, kg: usize, bit: usize) -> usize {
        let half = TILE_M / 2;
        let kg_per_block = self.group_size / LUT_GROUP;
        let per_sb = self.bits * kg_per_block * half;
        let per_mtile = self.kg_total() / kg_per_block * per_sb;
        let (sb, kg_in) = (kg / kg_per_block, kg % kg_per_block);
        mt * per_mtile + sb * per_sb + (bit * kg_per_block + kg_in) * half
    }

    /// The flat nibble plane of one bit (row-major, [`Self::flat_row_bytes`]
    /// bytes per padded row).
    ///
    /// # Panics
    ///
    /// Panics if the plan is permuted or `bit` is out of range.
    pub fn flat_plane(&self, bit: usize) -> &[u8] {
        assert!(matches!(self.layout, Layout::Flat), "plan is permuted");
        &self.flat_planes[bit]
    }

    /// Bytes per row in the flat nibble planes.
    pub fn flat_row_bytes(&self) -> usize {
        let kg_total = self.kg_total();
        kg_total / 2 + kg_total % 2
    }

    /// The permuted index stream of one m-tile.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted or `mt` is out of range.
    pub fn mtile_stream(&self, mt: usize) -> &[u8] {
        assert!(matches!(self.layout, Layout::Permuted { .. }));
        let per_mtile = self.kg_total() * self.bits * (TILE_M / 2);
        &self.perm_stream[mt * per_mtile..(mt + 1) * per_mtile]
    }

    /// Row-major (padded) scale of `(row, scale-block)`.
    ///
    /// Plans loaded from a prepacked container store scales only in the
    /// tile-permuted order the kernels stream; this accessor then reads
    /// through the permutation instead of a row-major copy.
    #[inline]
    pub fn scale(&self, row: usize, sb: usize) -> f32 {
        if self.scales_flat.is_empty() {
            let (mt, r) = (row / TILE_M, row % TILE_M);
            self.scales_perm[(mt * self.groups_per_row() + sb) * TILE_M + r]
        } else {
            self.scales_flat[row * self.groups_per_row() + sb]
        }
    }

    /// Tile-permuted scales for `(m-tile, scale-block)`: `TILE_M` floats.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    #[inline]
    pub fn tile_scales(&self, mt: usize, sb: usize) -> &[f32] {
        assert!(!self.scales_perm.is_empty(), "plan is not permuted");
        let base = (mt * self.groups_per_row() + sb) * TILE_M;
        &self.scales_perm[base..base + TILE_M]
    }

    /// Bytes of index data the kernel streams for one full GEMV pass.
    pub fn index_bytes(&self) -> usize {
        match self.layout {
            Layout::Flat => self.flat_planes.iter().map(|p| p.len()).sum(),
            Layout::Permuted { .. } => self.perm_stream.len(),
        }
    }

    /// The whole permuted index stream (container serialization).
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    pub fn perm_stream_bytes(&self) -> &[u8] {
        assert!(matches!(self.layout, Layout::Permuted { .. }));
        &self.perm_stream
    }

    /// The tile-permuted scales, whole (container serialization).
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    pub fn perm_scales(&self) -> &[f32] {
        assert!(!self.scales_perm.is_empty(), "plan is not permuted");
        &self.scales_perm
    }

    /// The row-major padded scales, whole (container serialization for
    /// flat-layout plans).
    ///
    /// # Panics
    ///
    /// Panics if the plan is permuted (permuted plans serialize
    /// [`WeightPlan::perm_scales`] instead, and may not store a row-major
    /// copy at all).
    pub fn flat_scales_padded(&self) -> &[f32] {
        assert!(matches!(self.layout, Layout::Flat), "plan is permuted");
        &self.scales_flat
    }

    /// True if any data segment borrows from a shared backing — i.e. the
    /// plan was loaded zero-copy and streams weights straight from the
    /// container mapping.
    pub fn is_borrowed(&self) -> bool {
        self.perm_stream.is_borrowed()
            || self.scales_perm.is_borrowed()
            || self.scales_flat.is_borrowed()
            || self.flat_planes.iter().any(|p| p.is_borrowed())
    }
}

/// Reconstructs the 4-bit index directly from codes (test oracle).
pub fn index_from_codes(qm: &QuantizedMatrix, bit: usize, row: usize, kg: usize) -> u8 {
    let mut idx = 0u8;
    for j in 0..LUT_GROUP {
        let code = qm.codes[row * qm.cols + kg * LUT_GROUP + j];
        idx |= ((code >> bit) & 1) << j;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    fn matrix(m: usize, k: usize, bits: u8, gs: usize) -> QuantizedMatrix {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.37).sin() + (i % 11) as f32 * 0.1) - 0.5)
            .collect();
        rtn::quantize(&w, m, k, bits, gs).unwrap()
    }

    #[test]
    fn flat_layout_decodes_to_code_bits() {
        let qm = matrix(7, 64, 3, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::plus_table_quant()).unwrap();
        assert_eq!(plan.layout(), Layout::Flat);
        for bit in 0..3 {
            for row in 0..7 {
                for kg in 0..16 {
                    assert_eq!(
                        plan.index(bit, row, kg),
                        index_from_codes(&qm, bit, row, kg),
                        "bit={bit} row={row} kg={kg}"
                    );
                }
            }
        }
    }

    #[test]
    fn permuted_layouts_decode_identically() {
        let qm = matrix(40, 128, 4, 32);
        let flat = WeightPlan::new(&qm, KernelOpts::plus_table_quant()).unwrap();
        for interleave in [false, true] {
            let mut opts = KernelOpts::plus_permute();
            opts.interleave = interleave;
            opts.tile_k = 64;
            let perm = WeightPlan::new(&qm, opts).unwrap();
            for bit in 0..4 {
                for row in 0..perm.m_padded {
                    for kg in 0..perm.kg_total() {
                        assert_eq!(
                            perm.index(bit, row, kg),
                            flat.index(bit, row, kg),
                            "interleave={interleave} bit={bit} row={row} kg={kg}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_rows_are_zero() {
        let qm = matrix(40, 64, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        assert_eq!(plan.m_padded, 64);
        for bit in 0..2 {
            for row in 40..64 {
                for kg in 0..16 {
                    assert_eq!(plan.index(bit, row, kg), 0);
                }
                for sb in 0..2 {
                    assert_eq!(plan.scale(row, sb), 0.0);
                }
            }
        }
    }

    #[test]
    fn tile_scales_match_flat_scales() {
        let qm = matrix(64, 128, 4, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        for mt in 0..plan.m_tiles() {
            for sb in 0..plan.groups_per_row() {
                let ts = plan.tile_scales(mt, sb);
                for (r, &t) in ts.iter().enumerate().take(TILE_M) {
                    assert_eq!(t, plan.scale(mt * TILE_M + r, sb));
                }
            }
        }
    }

    #[test]
    fn rejects_bad_shapes_and_opts() {
        let qm = matrix(8, 64, 4, 32);
        let mut bad = KernelOpts::tmac();
        bad.tile_k = 48; // not a multiple of group_size 32
        assert!(matches!(
            WeightPlan::new(&qm, bad),
            Err(TmacError::Shape(_))
        ));
        let mut bad = KernelOpts::tm_base();
        bad.mirror = true;
        assert!(matches!(WeightPlan::new(&qm, bad), Err(TmacError::Opts(_))));
    }

    #[test]
    fn cz_constant_matches_convention() {
        for bits in 1..=4u8 {
            let qm = matrix(4, 32, bits, 32);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let expect = if bits == 1 { 0.0 } else { -0.5 };
            assert_eq!(plan.cz, expect, "bits={bits}");
        }
    }

    #[test]
    fn index_bytes_scale_with_bits() {
        let q2 = matrix(32, 128, 2, 32);
        let q4 = matrix(32, 128, 4, 32);
        let p2 = WeightPlan::new(&q2, KernelOpts::tmac()).unwrap();
        let p4 = WeightPlan::new(&q4, KernelOpts::tmac()).unwrap();
        assert_eq!(p4.index_bytes(), 2 * p2.index_bytes());
    }

    /// Segments borrowing from a plain byte buffer (stand-in for an mmap).
    #[derive(Debug)]
    struct VecBacking(Vec<u8>);
    impl PlanBacking for VecBacking {
        fn bytes(&self) -> &[u8] {
            &self.0
        }
    }

    fn parts_of(plan: &WeightPlan) -> PlanParts {
        PlanParts {
            m: plan.m,
            k: plan.k,
            bits: plan.bits,
            group_size: plan.group_size,
            zero: plan.zero,
            opts: plan.opts,
            flat_planes: Vec::new(),
            perm_stream: Segment::from_vec(plan.perm_stream_bytes().to_vec()),
            scales_flat: Segment::from_vec(Vec::new()),
            scales_perm: Segment::from_vec(plan.perm_scales().to_vec()),
        }
    }

    #[test]
    fn to_quantized_is_exact() {
        for bits in 1..=4u8 {
            let qm = matrix(40, 128, bits, 32);
            for opts in [KernelOpts::tmac(), KernelOpts::plus_table_quant()] {
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let back = plan.to_quantized();
                assert_eq!(back, qm, "bits={bits} opts={opts:?}");
            }
        }
    }

    #[test]
    fn from_parts_reproduces_the_plan() {
        let qm = matrix(40, 128, 3, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let rebuilt = WeightPlan::from_parts(parts_of(&plan)).unwrap();
        assert_eq!(rebuilt.m_padded, plan.m_padded);
        assert_eq!(rebuilt.tile_k, plan.tile_k);
        assert_eq!(rebuilt.cz, plan.cz);
        assert_eq!(rebuilt.perm_stream_bytes(), plan.perm_stream_bytes());
        assert_eq!(rebuilt.perm_scales(), plan.perm_scales());
        // Row-major scale reads go through the permuted copy.
        for row in 0..plan.m_padded {
            for sb in 0..plan.groups_per_row() {
                assert_eq!(rebuilt.scale(row, sb), plan.scale(row, sb));
            }
        }
        assert_eq!(rebuilt.to_quantized(), qm);
        assert!(!rebuilt.is_borrowed());
        // Layout-compatible option changes share the stream; incompatible
        // ones are rejected.
        let fa = rebuilt
            .with_opts(KernelOpts::tmac_fast_aggregation())
            .unwrap();
        assert!(fa.opts.fast_aggregation);
        assert_eq!(fa.perm_stream_bytes(), plan.perm_stream_bytes());
        assert!(matches!(
            rebuilt.with_opts(KernelOpts::plus_table_quant()),
            Err(TmacError::Opts(_))
        ));
    }

    #[test]
    fn from_parts_rejects_wrong_lengths() {
        let qm = matrix(40, 128, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let mut p = parts_of(&plan);
        p.perm_stream = Segment::from_vec(vec![0u8; 3]);
        assert!(matches!(
            WeightPlan::from_parts(p),
            Err(TmacError::Shape(_))
        ));
        let mut p = parts_of(&plan);
        p.scales_perm = Segment::from_vec(vec![0f32; 1]);
        assert!(matches!(
            WeightPlan::from_parts(p),
            Err(TmacError::Shape(_))
        ));
        let mut p = parts_of(&plan);
        p.bits = 5;
        assert!(WeightPlan::from_parts(p).is_err());
    }

    #[test]
    fn borrowed_segments_execute_like_owned() {
        use std::sync::Arc;
        let qm = matrix(33, 64, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        // Pack stream and scales into one backing buffer, f32s first so
        // both are naturally aligned.
        let scales = plan.perm_scales();
        let stream = plan.perm_stream_bytes();
        let mut buf = Vec::new();
        for s in scales {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let stream_off = buf.len();
        buf.extend_from_slice(stream);
        let backing: Arc<dyn PlanBacking> = Arc::new(VecBacking(buf));
        let rebuilt = WeightPlan::from_parts(PlanParts {
            m: plan.m,
            k: plan.k,
            bits: plan.bits,
            group_size: plan.group_size,
            zero: plan.zero,
            opts: plan.opts,
            flat_planes: Vec::new(),
            perm_stream: Segment::borrowed(Arc::clone(&backing), stream_off, stream.len()).unwrap(),
            scales_flat: Segment::from_vec(Vec::new()),
            scales_perm: Segment::borrowed(Arc::clone(&backing), 0, scales.len()).unwrap(),
        })
        .unwrap();
        assert!(rebuilt.is_borrowed());
        for bit in 0..plan.bits {
            for row in 0..plan.m_padded {
                for kg in 0..plan.kg_total() {
                    assert_eq!(rebuilt.index(bit, row, kg), plan.index(bit, row, kg));
                }
            }
        }
        // A clone of a borrowed plan shares the backing.
        assert!(rebuilt.clone().is_borrowed());
    }

    #[test]
    fn borrowed_segment_rejects_bad_ranges() {
        use std::sync::Arc;
        let backing: Arc<dyn PlanBacking> = Arc::new(VecBacking(vec![0u8; 64]));
        assert!(Segment::<u8>::borrowed(Arc::clone(&backing), 60, 8).is_err());
        // A misaligned f32 view: pick an offset that lands off the 4-byte
        // grid wherever the allocation starts.
        let base = backing.bytes().as_ptr() as usize;
        let off = (0..4).find(|o| !(base + o).is_multiple_of(4)).unwrap();
        assert!(Segment::<f32>::borrowed(Arc::clone(&backing), off, 4).is_err());
        assert!(Segment::<u8>::borrowed(backing, 60, 4).is_ok());
    }

    #[test]
    fn tile_k_clamped_to_k() {
        let qm = matrix(8, 64, 2, 32);
        let mut opts = KernelOpts::tmac();
        opts.tile_k = 4096;
        let plan = WeightPlan::new(&qm, opts).unwrap();
        assert_eq!(plan.tile_k, 64);
    }
}
