//! Per-layer probes of the traced run: host ceilings, the kernel sweep,
//! and standalone timings of table builds, attention, sampling, the thread
//! pool and whole forwards — each timed from outside through the layer's
//! public call.

use crate::stats::median;
use crate::Metric;
use std::hint::black_box;
use std::time::Instant;
use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
use tmac_llm::attention::{attend_seq, AttnScratch};
use tmac_llm::weights::gen_matrix;
use tmac_llm::{BatchScratch, KvCache, KvPrecision, Model, ModelConfig, Sampler, SamplingParams};
use tmac_rng::Rng;

/// Median seconds of `reps` timed calls after one untimed warm-up.
fn time_med(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v).unwrap_or(0.0)
}

fn randn(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.gaussian_ish()).collect()
}

/// Host ceilings: single-thread streaming read bandwidth (GB/s) over a
/// buffer several times the last-level cache, and the AVX2 `vpshufb`
/// rate in G table lookups/s (32 lookups per shuffle).
pub fn host_ceilings() -> (f64, f64) {
    const WORDS: usize = 48 << 20; // 384 MiB of u64
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let read = |b: &[u64]| -> u64 {
        let mut acc = [0u64; 8];
        for c in b.chunks_exact(8) {
            for (a, x) in acc.iter_mut().zip(c) {
                *a = a.wrapping_add(*x);
            }
        }
        acc.iter().fold(0, |s, a| s ^ a)
    };
    let best = (0..4)
        .map(|_| {
            let t = Instant::now();
            black_box(read(black_box(&buf)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let read_gbps = (WORDS * 8) as f64 / best / 1e9;
    drop(buf);
    (read_gbps, shuffle_glookups())
}

#[cfg(target_arch = "x86_64")]
fn shuffle_glookups() -> f64 {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return scalar_glookups();
    }
    const ITERS: u64 = 20_000_000;
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            // SAFETY: AVX2 support was checked above.
            black_box(unsafe { shuffle_loop(black_box(ITERS)) });
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (ITERS * 8 * 32) as f64 / best / 1e9
}

/// Eight independent `vpshufb` chains: throughput-bound table lookups.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn shuffle_loop(iters: u64) -> i32 {
    use std::arch::x86_64::*;
    let tbl = _mm256_setr_epi8(
        3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7,
        9, 3,
    );
    let mut r = [_mm256_setzero_si256(); 8];
    for (i, x) in r.iter_mut().enumerate() {
        *x = _mm256_set1_epi8(i as i8);
    }
    for _ in 0..iters {
        for x in r.iter_mut() {
            *x = _mm256_shuffle_epi8(tbl, *x);
        }
    }
    let mut acc = r[0];
    for x in &r[1..] {
        acc = _mm256_xor_si256(acc, *x);
    }
    _mm256_extract_epi32::<0>(acc)
}

#[cfg(not(target_arch = "x86_64"))]
fn shuffle_glookups() -> f64 {
    scalar_glookups()
}

/// Fallback ceiling: byte table lookups from a 16-entry table.
#[allow(dead_code)]
fn scalar_glookups() -> f64 {
    let tbl: [u8; 16] = std::array::from_fn(|i| (i * 7) as u8);
    let n = 200_000_000u64;
    let t = Instant::now();
    let mut x = 1u8;
    for _ in 0..n {
        x = tbl[(black_box(x) & 15) as usize];
    }
    black_box(x);
    n as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Weight bytes one pass over `lin` streams (index stream plus f32 scales).
fn stream_bytes(lin: &TmacLinear) -> f64 {
    let p = lin.plan();
    (p.index_bytes() + p.m * p.k / p.group_size * 4) as f64
}

/// Table lookups one pass makes per activation row: one per row, per
/// 4-activation group, per bit plane.
fn lookups(lin: &TmacLinear) -> f64 {
    let p = lin.plan();
    (p.m * (p.k / 4) * p.bits) as f64
}

fn build(rows: usize, cols: usize, bits: u8, w: &[f32]) -> TmacLinear {
    let qm = tmac_quant::rtn::quantize(w, rows, cols, bits, 32).expect("quantize");
    TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan")
}

/// The kernel sweep at one thread: mpGEMV per bit-width at 4096×4096 and
/// mpGEMM per row count at 11008×4096 for 2 and 4 bits.
pub fn kernel_sweep(read_gbps: f64, glookups: f64, out: &mut Vec<Metric>) {
    let ctx = ExecCtx::new(1);
    let mut rng = Rng::seed_from_u64(11);
    let (m, k) = (4096, 4096);
    let w = gen_matrix(m, k, 101, 1.0 / 64.0);
    let act = randn(k, &mut rng);
    let mut y = vec![0f32; m];
    let mut gemv_us = [0f64; 5];
    for bits in 1..=4u8 {
        let lin = build(m, k, bits, &w);
        let t = time_med(15, || lin.gemv(&act, &mut y, &ctx).expect("gemv"));
        gemv_us[bits as usize] = t * 1e6;
        let gbps = stream_bytes(&lin) / t / 1e9;
        let b = bits;
        out.push(Metric::new(format!("gemv.b{b}.us"), t * 1e6, "us"));
        out.push(Metric::new(format!("gemv.b{b}.gbps"), gbps, "GB/s"));
        out.push(Metric::new(
            format!("gemv.b{b}.bw_frac"),
            gbps / read_gbps,
            "frac",
        ));
        let lut = lookups(&lin) / t / 1e9 / glookups;
        out.push(Metric::new(format!("gemv.b{b}.lut_frac"), lut, "frac"));
    }
    drop(w);
    let (m, k) = (11008, 4096);
    let w = gen_matrix(m, k, 102, 1.0 / 64.0);
    let acts = randn(16 * k, &mut rng);
    let mut y = vec![0f32; 16 * m];
    for bits in [2u8, 4] {
        let lin = build(m, k, bits, &w);
        for n in [1usize, 4, 8, 16] {
            let reps = if n == 16 { 5 } else { 7 };
            let t = time_med(reps, || {
                lin.gemm(&acts[..n * k], n, &mut y[..n * m], &ctx)
                    .expect("gemm")
            });
            let (b, nf) = (bits, n as f64);
            let name = |s: &str| format!("gemm.b{b}.n{n}.{s}");
            out.push(Metric::new(name("us_per_row"), t * 1e6 / nf, "us"));
            let bw = stream_bytes(&lin) / t / 1e9 / read_gbps;
            out.push(Metric::new(name("bw_frac"), bw, "frac"));
            let lut = lookups(&lin) * nf / t / 1e9 / glookups;
            out.push(Metric::new(name("lut_frac"), lut, "frac"));
            if bits == 2 && n == 1 {
                let tv = time_med(7, || lin.gemv(&acts[..k], &mut y[..m], &ctx).expect("gemv"));
                out.push(Metric::new("gemm.n1_vs_gemv".into(), t / tv, "ratio"));
            }
        }
    }
    let ratio = gemv_us[1] / gemv_us[2];
    out.push(Metric::new("gemv.b1_vs_b2".into(), ratio, "ratio"));
}

/// `TmacLinear::tables` at reduction length `k` (a 64-row plan of the
/// workload's bit-width; tables depend on the activation alone).
pub fn table_build_us(k: usize, bits: u8) -> f64 {
    let w = gen_matrix(64, k, 103, 0.05);
    let lin = build(64, k, bits, &w);
    let mut rng = Rng::seed_from_u64(12);
    let acts: Vec<Vec<f32>> = (0..8).map(|_| randn(k, &mut rng)).collect();
    let mut i = 0;
    time_med(101, || {
        i = (i + 1) % acts.len();
        black_box(lin.tables(&acts[i]).expect("tables"));
    }) * 1e6
}

/// `attend_seq` at one workload's head geometry, per KV precision and
/// context length, µs.
pub fn attention(cfg: &ModelConfig, out: &mut Vec<Metric>) {
    let ctx = ExecCtx::new(1);
    let mut rng = Rng::seed_from_u64(13);
    for prec in [KvPrecision::F32, KvPrecision::I8] {
        let mut c = cfg.clone();
        c.n_layers = 1;
        c.seq_max = 1024 + 64;
        c.kv_precision = prec;
        let mut kv = KvCache::with_precision(&c, prec);
        let (kr, vr) = (randn(c.kv_dim(), &mut rng), randn(c.kv_dim(), &mut rng));
        for p in 0..1024 {
            kv.store_seq(0, 0, p, &kr, &vr).expect("kv fill");
        }
        kv.set_seq_len(0, 1024);
        let q = randn(c.dim, &mut rng);
        let mut o = vec![0f32; c.dim];
        let mut scratch = AttnScratch::new(&c);
        let label = match prec {
            KvPrecision::F32 => "f32",
            KvPrecision::I8 => "i8",
        };
        for len in [256usize, 1024] {
            let t = time_med(51, || {
                attend_seq(&q, &mut o, &kv, 0, 0, len - 1, &mut scratch, &ctx)
            });
            out.push(Metric::new(
                format!("attention.{label}.ctx{len}.us"),
                t * 1e6,
                "us",
            ));
        }
    }
}

/// `Sampler::sample` over 32000 logits: greedy and top-p 0.9 / T 0.8, µs.
pub fn sampling(vocab: usize) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(14);
    let logits: Vec<f32> = (0..vocab).map(|_| 3.0 * rng.gaussian_ish()).collect();
    let greedy = SamplingParams::default();
    let topp = SamplingParams {
        temperature: 0.8,
        top_p: 0.9,
        seed: 1,
        ..SamplingParams::default()
    };
    let mut g = Sampler::new(&greedy, vocab);
    let mut p = Sampler::new(&topp, vocab);
    let tg = time_med(201, || {
        black_box(g.sample(&logits));
    });
    let tp = time_med(51, || {
        black_box(p.sample(&logits));
    });
    (tg * 1e6, tp * 1e6)
}

/// Mean `ThreadPool::run` round trip of an empty job on 2 threads, µs.
pub fn threadpool_dispatch_us() -> f64 {
    let pool = tmac_threadpool::ThreadPool::new(2);
    let batch = || {
        let t = Instant::now();
        for _ in 0..2000 {
            pool.run(|tid, n| {
                black_box((tid, n));
            });
        }
        t.elapsed().as_secs_f64() / 2000.0
    };
    let v: Vec<f64> = (0..5).map(|_| batch()).collect();
    median(&v).unwrap_or(0.0) * 1e6
}

/// `Model::forward_batch` with `n` rows in distinct sequences, each at
/// position `pos` over a filled context, ms.
pub fn model_forward_ms(model: &Model, ctx: &ExecCtx, n: usize, pos: usize) -> f64 {
    let cfg = &model.cfg;
    let mut rng = Rng::seed_from_u64(15);
    let mut kv = KvCache::multi(cfg, n);
    let (kr, vr) = (randn(cfg.kv_dim(), &mut rng), randn(cfg.kv_dim(), &mut rng));
    for s in 0..n {
        for l in 0..cfg.n_layers {
            for p in 0..pos {
                kv.store_seq(s, l, p, &kr, &vr).expect("kv fill");
            }
        }
        kv.set_seq_len(s, pos);
    }
    let mut scratch = BatchScratch::new(cfg, n);
    let tokens: Vec<u32> = (0..n).map(|_| rng.u32_range(1, cfg.vocab as u32)).collect();
    let positions = vec![pos; n];
    let slots: Vec<usize> = (0..n).collect();
    let reps = if n == 1 { 7 } else { 3 };
    time_med(reps, || {
        model
            .forward_batch(&tokens, &positions, &slots, &mut kv, &mut scratch, ctx)
            .expect("forward_batch")
    }) * 1e3
}

/// All projections plus the head at one row, fresh tables each (one
/// decode step's worth of mpGEMV), µs.
pub fn model_gemv_us(model: &Model, ctx: &ExecCtx) -> f64 {
    let mut rng = Rng::seed_from_u64(16);
    let width = model.cfg.dim.max(model.cfg.ffn_dim);
    let act = randn(width, &mut rng);
    let mut y = vec![0f32; model.cfg.vocab.max(width)];
    let mut lins: Vec<&tmac_llm::Linear> = Vec::new();
    for lw in &model.layers {
        lins.extend([&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w1, &lw.w2, &lw.w3]);
    }
    lins.push(&model.head);
    time_med(5, || {
        for l in &lins {
            ctx.next_activation();
            l.forward(&act[..l.cols()], &mut y[..l.rows()], ctx)
                .expect("gemv");
        }
    }) * 1e6
}
