//! Shared execution context: thread pool + activation-table cache + scratch.
//!
//! T-MAC's central amortization claim (§3.2) is that the online table
//! precompute is paid once per *activation*, not once per weight matrix:
//! every output row — and every weight matrix — consuming the same
//! activation vector can reuse one [`ActTables`] build. In a transformer
//! layer the QKV projections share the attention-normed input and the
//! gate/up projections share the FFN-normed input, so a decode step needs
//! far fewer table builds than it has projections.
//!
//! [`ExecCtx`] is the carrier of that reuse. It bundles what every kernel
//! invocation needs:
//!
//! * the **thread pool** the kernels dispatch on (replacing the bare
//!   `&ThreadPool` parameter that used to thread through every signature);
//! * the **activation-table cache**, keyed on `(activation generation, K,
//!   table profile)` — callers bump the generation whenever the activation
//!   vector changes, and every lookup within one generation that matches the
//!   shape/profile reuses the cached build;
//! * a **scratch arena** of recyclable `f32` buffers, so per-call workspace
//!   allocations can be amortized across tokens.
//!
//! The cache is behind a mutex and the counters are atomics, so the
//! *bookkeeping* ([`ExecCtx::tables_for`], stats, the scratch arena) is
//! safe to call from several threads. Kernel **dispatch** is not: the
//! underlying [`ThreadPool`] executes one job at a time, so concurrent
//! `gemv`/`forward` calls through contexts sharing one pool must be
//! externally serialized (the pool asserts on concurrent dispatch). The
//! expected usage is one context per generation stream.

use crate::gemv;
use crate::plan::WeightPlan;
use crate::table::{ActTables, BatchTables};
use crate::TmacError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tmac_threadpool::ThreadPool;

/// The table-compatibility profile of a weight plan: two plans with equal
/// profiles can consume the same [`ActTables`] for the same activation.
///
/// Weight *bit-width is deliberately absent*: tables are built from the
/// activation alone, so a 4-bit and a 2-bit matrix with the same reduction
/// length and table options share builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableProfile {
    /// Reduction length `K`.
    pub k: usize,
    /// Activations per scale block.
    pub group_size: usize,
    /// Whether entries are quantized to `i8`.
    pub table_quant: bool,
    /// Whether tables are mirror-consolidated.
    pub mirror: bool,
    /// Whether offset `u8` tables are additionally materialized.
    pub fast_aggregation: bool,
}

impl TableProfile {
    /// The profile a plan's tables must satisfy.
    pub fn of_plan(plan: &WeightPlan) -> Self {
        TableProfile {
            k: plan.k,
            group_size: plan.group_size,
            table_quant: plan.opts.table_quant,
            mirror: plan.opts.mirror,
            fast_aggregation: plan.opts.fast_aggregation,
        }
    }
}

/// Cache hit/miss counters (monotonic over the context's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableCacheStats {
    /// Lookups served from the cache (table builds avoided).
    pub hits: u64,
    /// Lookups that had to build tables.
    pub misses: u64,
}

impl TableCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One cached table build.
struct CacheEntry {
    generation: u64,
    profile: TableProfile,
    fingerprint: u64,
    tables: Arc<ActTables>,
}

/// One cached *batch* of table builds: `n` activation rows consumed by an
/// mpGEMM call, built together so QKV-style projection groups share the
/// per-row builds at `n > 1` exactly as they do at `n == 1`.
struct BatchCacheEntry {
    generation: u64,
    profile: TableProfile,
    n: usize,
    fingerprint: u64,
    tables: Arc<Vec<ActTables>>,
}

/// One cached set of *interleaved* register blocks, derived from a batched
/// build. Keyed by the identity of the source `Arc` (held here, so the
/// allocation cannot be recycled while cached) plus the blocking that
/// shaped it — two plans sharing per-row builds but tuned to different
/// `row_block`s interleave separately.
struct InterleavedCacheEntry {
    generation: u64,
    n_block: usize,
    row_block: usize,
    source: Arc<Vec<ActTables>>,
    blocks: Arc<Vec<BatchTables>>,
}

/// A batch's per-row tables and their interleaved register blocks (see
/// [`ExecCtx::interleaved_tables_for`]).
pub type InterleavedTables = (Arc<Vec<ActTables>>, Arc<Vec<BatchTables>>);

/// Interior state: cached tables plus the scratch free-list.
struct CtxState {
    tables: Vec<CacheEntry>,
    batch_tables: Vec<BatchCacheEntry>,
    interleaved: Vec<InterleavedCacheEntry>,
    scratch: Vec<Vec<f32>>,
}

/// Distinct `(K, profile)` combinations retained per generation. A decode
/// step sees a handful (attention in, attention out, FFN in, FFN mid, head
/// in), so a small linear-scan cache beats a hash map.
const CACHE_CAPACITY: usize = 8;

/// Distinct batched builds retained per generation. A batched transformer
/// step needs at most one live entry per projection group (QKV, gate/up),
/// so the capacity stays small.
const BATCH_CACHE_CAPACITY: usize = 4;

/// Interleaved block sets retained per generation (one live entry per
/// projection group × blocking shape).
const INTERLEAVED_CACHE_CAPACITY: usize = 4;

/// Buffers retained in the scratch free-list.
const SCRATCH_CAPACITY: usize = 16;

/// An FNV-style fingerprint over *every* element of an activation vector.
///
/// The generation counter is the cache's contract; the fingerprint is a
/// safety net that catches a caller reusing a generation for a *different*
/// activation (the mismatch downgrades the lookup to a rebuild instead of
/// silently returning stale tables). Hashing all of `act` is what makes
/// that guarantee real — a sampled hash would have deterministic blind
/// spots — and its O(K) cost is small next to the O(K·2^g/g) table build
/// a hit avoids.
fn fingerprint(act: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (act.len() as u64);
    for x in act {
        h = (h ^ x.to_bits() as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How the context holds its pool: owned (the common case) or shared.
enum PoolHandle {
    Owned(ThreadPool),
    Shared(Arc<ThreadPool>),
}

/// The unified execution context every forward/gemv entry point takes.
///
/// # Examples
///
/// Two layers consuming the same activation share one table build:
///
/// ```
/// use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
///
/// let w: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.05).sin()).collect();
/// let wq = TmacLinear::from_f32(&w, 64, 128, 4, 32, KernelOpts::tmac()).unwrap();
/// let wk = TmacLinear::from_f32(&w, 64, 128, 2, 32, KernelOpts::tmac()).unwrap();
///
/// let ctx = ExecCtx::new(2);
/// let act: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).cos()).collect();
/// let mut out = vec![0f32; 64];
///
/// ctx.next_activation();
/// wq.gemv_cached(&act, &mut out, &ctx).unwrap(); // miss: builds tables
/// wk.gemv_cached(&act, &mut out, &ctx).unwrap(); // hit: reuses them
/// let stats = ctx.table_stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct ExecCtx {
    pool: PoolHandle,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    interleave_hits: AtomicU64,
    interleave_misses: AtomicU64,
    state: Mutex<CtxState>,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("threads", &self.threads())
            .field("generation", &self.generation())
            .field("stats", &self.table_stats())
            .finish()
    }
}

impl ExecCtx {
    /// Creates a context owning a fresh pool of `n_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        Self::from_handle(PoolHandle::Owned(ThreadPool::new(n_threads)))
    }

    /// Creates a context sharing an existing pool.
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        Self::from_handle(PoolHandle::Shared(pool))
    }

    /// Creates a context sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    fn from_handle(pool: PoolHandle) -> Self {
        ExecCtx {
            pool,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            interleave_hits: AtomicU64::new(0),
            interleave_misses: AtomicU64::new(0),
            state: Mutex::new(CtxState {
                tables: Vec::new(),
                batch_tables: Vec::new(),
                interleaved: Vec::new(),
                scratch: Vec::new(),
            }),
        }
    }

    /// The thread pool kernels dispatch on.
    pub fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolHandle::Owned(p) => p,
            PoolHandle::Shared(p) => p,
        }
    }

    /// Number of threads (including the dispatcher).
    pub fn threads(&self) -> usize {
        self.pool().threads()
    }

    /// Current activation generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Declares that subsequent forwards consume a *new* activation vector:
    /// bumps the generation, invalidating all cached tables. Returns the new
    /// generation.
    ///
    /// Call this once per distinct activation (e.g. after each norm in a
    /// transformer layer); every [`ExecCtx::tables_for`] lookup between two
    /// bumps that matches shape and profile reuses one build.
    pub fn next_activation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn lock(&self) -> MutexGuard<'_, CtxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns tables for `plan` × `act`, reusing the cached build when one
    /// matching `(generation, K, profile)` exists.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures ([`TmacError::Shape`],
    /// [`TmacError::Numeric`]) from [`gemv::build_tables`].
    pub fn tables_for(&self, plan: &WeightPlan, act: &[f32]) -> Result<Arc<ActTables>, TmacError> {
        let profile = TableProfile::of_plan(plan);
        let generation = self.generation();
        let fp = fingerprint(act);
        {
            let state = self.lock();
            if let Some(e) = state
                .tables
                .iter()
                .find(|e| e.generation == generation && e.profile == profile && e.fingerprint == fp)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tmac_trace::instant("exec", "table_hit", generation, plan.k as u64);
                return Ok(Arc::clone(&e.tables));
            }
        }
        // Build outside the lock: concurrent lookups of different profiles
        // must not serialize on each other's builds.
        let _s = tmac_trace::span("exec", "table_build", generation, plan.k as u64);
        let tables = Arc::new(gemv::build_tables(plan, act)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let entry = CacheEntry {
            generation,
            profile,
            fingerprint: fp,
            tables: Arc::clone(&tables),
        };
        if let Some(slot) = state.tables.iter_mut().find(|e| e.profile == profile) {
            // One slot per (K, profile): a new activation (or a fingerprint
            // mismatch within a generation) replaces the stale build.
            *slot = entry;
        } else if state.tables.len() < CACHE_CAPACITY {
            state.tables.push(entry);
        } else if let Some(oldest) = state.tables.iter_mut().min_by_key(|e| e.generation) {
            *oldest = entry;
        }
        Ok(tables)
    }

    /// Returns one [`ActTables`] build per activation row of a row-major
    /// `n × K` batch, reusing the cached builds when a matching
    /// `(generation, K, profile, n)` batch exists.
    ///
    /// This is the batched twin of [`ExecCtx::tables_for`]: within one
    /// [`ExecCtx::next_activation`] scope, every plan with the same table
    /// profile consuming the same activation batch (the QKV projections of
    /// a batched decode step, the FFN gate/up pair of a prefill chunk)
    /// shares a single set of per-row builds. One lookup counts once in
    /// [`ExecCtx::table_stats`] regardless of `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] when `n == 0` or `act.len() != n·K`;
    /// otherwise propagates per-row table-construction failures.
    pub fn batch_tables_for(
        &self,
        plan: &WeightPlan,
        act: &[f32],
        n: usize,
    ) -> Result<Arc<Vec<ActTables>>, TmacError> {
        if n == 0 {
            return Err(TmacError::Shape("batch_tables_for needs n >= 1".into()));
        }
        if act.len() != n * plan.k {
            return Err(TmacError::Shape(format!(
                "activation length {} != n*K = {}",
                act.len(),
                n * plan.k
            )));
        }
        let profile = TableProfile::of_plan(plan);
        let generation = self.generation();
        let fp = fingerprint(act);
        {
            let state = self.lock();
            if let Some(e) = state.batch_tables.iter().find(|e| {
                e.generation == generation
                    && e.profile == profile
                    && e.n == n
                    && e.fingerprint == fp
            }) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tmac_trace::instant("exec", "table_hit", generation, n as u64);
                return Ok(Arc::clone(&e.tables));
            }
        }
        // Build outside the lock (same rationale as `tables_for`).
        let _s = tmac_trace::span("exec", "table_build_batch", generation, n as u64);
        let mut tables = Vec::with_capacity(n);
        for ni in 0..n {
            tables.push(gemv::build_tables(
                plan,
                &act[ni * plan.k..(ni + 1) * plan.k],
            )?);
        }
        let tables = Arc::new(tables);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let entry = BatchCacheEntry {
            generation,
            profile,
            n,
            fingerprint: fp,
            tables: Arc::clone(&tables),
        };
        if let Some(slot) = state
            .batch_tables
            .iter_mut()
            .find(|e| e.profile == profile && e.n == n)
        {
            *slot = entry;
        } else if state.batch_tables.len() < BATCH_CACHE_CAPACITY {
            state.batch_tables.push(entry);
        } else if let Some(oldest) = state.batch_tables.iter_mut().min_by_key(|e| e.generation) {
            *oldest = entry;
        }
        Ok(tables)
    }

    /// Returns the per-row tables of a row-major `n × K` activation batch
    /// together with their interleaved register blocks ([`BatchTables`]),
    /// partitioned by the plan's `n_block`/`row_block` — the table form the
    /// multi-row mpGEMM kernel streams.
    ///
    /// The per-row builds come from [`ExecCtx::batch_tables_for`] (and count
    /// in [`ExecCtx::table_stats`] exactly as before); the interleaving on
    /// top is cached by the identity of that batched build, so projection
    /// groups that share per-row builds (batched QKV, gate/up) also share
    /// the interleave work as long as their blocking agrees. Interleave
    /// cache traffic is reported by [`ExecCtx::interleave_stats`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ExecCtx::batch_tables_for`], plus
    /// [`TmacError::Shape`] when the plan's tables are not quantized (the
    /// interleaved layout is `i8`-only).
    pub fn interleaved_tables_for(
        &self,
        plan: &WeightPlan,
        act: &[f32],
        n: usize,
    ) -> Result<InterleavedTables, TmacError> {
        let source = self.batch_tables_for(plan, act, n)?;
        let generation = self.generation();
        let nb = plan.opts.n_block.max(1);
        let rb = plan.opts.effective_row_block();
        {
            let state = self.lock();
            if let Some(e) = state
                .interleaved
                .iter()
                .find(|e| Arc::ptr_eq(&e.source, &source) && e.n_block == nb && e.row_block == rb)
            {
                self.interleave_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((source, Arc::clone(&e.blocks)));
            }
        }
        // Interleave outside the lock (same rationale as the builds).
        let _s = tmac_trace::span("exec", "interleave", generation, n as u64);
        let mut blocks = Vec::new();
        for range in crate::gemm::row_partition(n, nb, rb) {
            blocks.push(BatchTables::interleave(&source[range])?);
        }
        let blocks = Arc::new(blocks);
        self.interleave_misses.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let entry = InterleavedCacheEntry {
            generation,
            n_block: nb,
            row_block: rb,
            source: Arc::clone(&source),
            blocks: Arc::clone(&blocks),
        };
        if let Some(slot) = state
            .interleaved
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.source, &entry.source) && e.n_block == nb && e.row_block == rb)
        {
            *slot = entry;
        } else if state.interleaved.len() < INTERLEAVED_CACHE_CAPACITY {
            state.interleaved.push(entry);
        } else if let Some(oldest) = state.interleaved.iter_mut().min_by_key(|e| e.generation) {
            *oldest = entry;
        }
        Ok((source, blocks))
    }

    /// `(hits, misses)` of the interleaved-block cache (separate from
    /// [`ExecCtx::table_stats`], which counts table *builds*).
    pub fn interleave_stats(&self) -> (u64, u64) {
        (
            self.interleave_hits.load(Ordering::Relaxed),
            self.interleave_misses.load(Ordering::Relaxed),
        )
    }

    /// Cache hit/miss counters since construction (or the last
    /// [`ExecCtx::reset_table_stats`]).
    pub fn table_stats(&self) -> TableCacheStats {
        TableCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters (the cache contents are untouched).
    pub fn reset_table_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Takes a zeroed `f32` buffer of length `len` from the scratch arena
    /// (allocating only when the arena has none to recycle). Return it with
    /// [`ExecCtx::put_buf`] to amortize the allocation across calls.
    pub fn take_buf(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut state = self.lock();
            state
                .scratch
                .iter()
                .position(|b| b.capacity() >= len)
                .map(|i| state.scratch.swap_remove(i))
        };
        match recycled {
            Some(mut b) => {
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => {
                tmac_trace::instant("exec", "scratch_alloc", 0, len as u64);
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the scratch arena for reuse.
    pub fn put_buf(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut state = self.lock();
        if state.scratch.len() < SCRATCH_CAPACITY {
            state.scratch.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn plan(m: usize, k: usize, bits: u8, opts: KernelOpts) -> WeightPlan {
        let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.13).sin()).collect();
        let qm = rtn::quantize(&w, m, k, bits, 32).unwrap();
        WeightPlan::new(&qm, opts).unwrap()
    }

    fn act(k: usize, seed: f32) -> Vec<f32> {
        (0..k).map(|i| ((i as f32) * 0.31 + seed).cos()).collect()
    }

    #[test]
    fn same_generation_hits_across_plans() {
        let ctx = ExecCtx::new(1);
        let p4 = plan(64, 128, 4, KernelOpts::tmac());
        let p2 = plan(32, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        let t1 = ctx.tables_for(&p4, &a).unwrap();
        let t2 = ctx.tables_for(&p2, &a).unwrap(); // different bits, same profile
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.table_stats(), TableCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn generation_bump_invalidates() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        ctx.tables_for(&p, &a).unwrap();
        ctx.tables_for(&p, &a).unwrap();
        ctx.next_activation();
        ctx.tables_for(&p, &a).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn different_profiles_do_not_collide() {
        let ctx = ExecCtx::new(1);
        let quantized = plan(64, 128, 2, KernelOpts::tmac());
        let raw = plan(64, 128, 2, KernelOpts::tm_base());
        let a = act(128, 0.0);
        ctx.next_activation();
        let tq = ctx.tables_for(&quantized, &a).unwrap();
        let tr = ctx.tables_for(&raw, &a).unwrap();
        assert!(tq.quantized && !tr.quantized);
        assert_eq!(ctx.table_stats().misses, 2);
    }

    #[test]
    fn fingerprint_catches_unbumped_activation_change() {
        // A caller that forgets next_activation() must get correct results:
        // the fingerprint mismatch downgrades the lookup to a rebuild.
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        ctx.next_activation();
        let t1 = ctx.tables_for(&p, &act(128, 0.0)).unwrap();
        let t2 = ctx.tables_for(&p, &act(128, 5.0)).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.table_stats().misses, 2);
    }

    #[test]
    fn different_k_is_a_different_profile() {
        let ctx = ExecCtx::new(1);
        let p128 = plan(64, 128, 2, KernelOpts::tmac());
        let p256 = plan(64, 256, 2, KernelOpts::tmac());
        ctx.next_activation();
        ctx.tables_for(&p128, &act(128, 0.0)).unwrap();
        ctx.tables_for(&p256, &act(256, 0.0)).unwrap();
        ctx.tables_for(&p128, &act(128, 0.0)).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn batch_tables_share_within_a_generation() {
        // The batched QKV pattern: three plans, one n-row activation batch,
        // one set of per-row builds.
        let ctx = ExecCtx::new(1);
        let p4 = plan(64, 128, 4, KernelOpts::tmac());
        let p2 = plan(32, 128, 2, KernelOpts::tmac());
        let n = 5;
        let a: Vec<f32> = (0..n * 128).map(|i| ((i as f32) * 0.19).sin()).collect();
        ctx.next_activation();
        let t1 = ctx.batch_tables_for(&p4, &a, n).unwrap();
        let t2 = ctx.batch_tables_for(&p2, &a, n).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.len(), n);
        assert_eq!(ctx.table_stats(), TableCacheStats { hits: 1, misses: 1 });
        // A bump invalidates, and a different n is a different entry.
        ctx.next_activation();
        let t3 = ctx.batch_tables_for(&p4, &a, n).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t3));
        ctx.batch_tables_for(&p4, &a[..3 * 128], 3).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn batch_tables_match_per_row_builds() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let n = 3;
        let a: Vec<f32> = (0..n * 128).map(|i| ((i as f32) * 0.23).cos()).collect();
        ctx.next_activation();
        let batch = ctx.batch_tables_for(&p, &a, n).unwrap();
        for ni in 0..n {
            let row = gemv::build_tables(&p, &a[ni * 128..(ni + 1) * 128]).unwrap();
            assert_eq!(batch[ni].q_tables, row.q_tables, "row {ni}");
            assert_eq!(batch[ni].q_scales, row.q_scales, "row {ni}");
            assert_eq!(batch[ni].asums, row.asums, "row {ni}");
        }
    }

    #[test]
    fn batch_tables_validate_shape() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        assert!(ctx.batch_tables_for(&p, &a, 0).is_err());
        assert!(ctx.batch_tables_for(&p, &a, 2).is_err());
    }

    #[test]
    fn tables_for_validates_shape() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        assert!(ctx.tables_for(&p, &act(64, 0.0)).is_err());
    }

    #[test]
    fn scratch_arena_recycles() {
        let ctx = ExecCtx::new(1);
        let mut b = ctx.take_buf(100);
        b[0] = 7.0;
        let p = b.as_ptr();
        ctx.put_buf(b);
        let b2 = ctx.take_buf(50);
        assert_eq!(b2.as_ptr(), p, "smaller request reuses the buffer");
        assert!(b2.iter().all(|&x| x == 0.0), "recycled buffer is zeroed");
        assert_eq!(b2.len(), 50);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = ExecCtx::new(2);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| ctx.tables_for(&p, &a).unwrap());
            }
        });
        let stats = ctx.table_stats();
        assert_eq!(stats.lookups(), 4);
        assert!(stats.misses >= 1);
    }
}
