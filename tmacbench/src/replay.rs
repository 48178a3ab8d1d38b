//! Attribution: re-executes measured step compositions through the
//! model's public layer calls and folds their times under the measured
//! step spans.
//!
//! Each `forward_batch` call a step made is replayed layer by layer —
//! `Linear::forward_batch` for every projection and the head,
//! `attention::attend_seq` per row at its position, and `Sampler::sample`
//! per emitted token — on fresh random activations (each projection group
//! opens a new `ExecCtx` activation scope, so the table cache shares
//! builds exactly where the model does and never across calls). The
//! elementwise glue (embedding, norms, RoPE, KV stores) is not replayed:
//! it is part of what stays unattributed.
//!
//! A step is replayed right after it ran, not after the window: the host's
//! speed drifts by tens of percent over a run, and a replay timed in
//! another moment than its step measured the drift instead of the glue.
//! The runner stops its clock while a replay runs.

use crate::direct::StepRec;
use crate::gen::Decode;
use crate::spans::{self, Recorder};
use std::collections::HashMap;
use tmac_core::ExecCtx;
use tmac_llm::attention::{attend_seq, AttnScratch};
use tmac_llm::{KvCache, Linear, Model, Sampler};
use tmac_rng::Rng;

/// Track of replayed spans in the Chrome trace.
pub const REPLAY_TID: u32 = 2;

/// Every admission step is replayed, and every `DECODE_STRIDE`-th
/// decode-only step.
pub const DECODE_STRIDE: usize = 8;

/// Attribution of one workload.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Unattributed share of measured step time.
    pub unattributed_frac: f64,
    /// Share of measured step time per layer category.
    pub shares: Vec<(&'static str, f64)>,
    /// Steps replayed / steps measured.
    pub replayed: usize,
    pub measured: usize,
    /// Mean unattributed time per step, µs.
    pub overhead_us: f64,
}

struct Bufs {
    acts: Vec<Vec<f32>>,
    next: usize,
    out: Vec<f32>,
    logits: Vec<f32>,
}

impl Bufs {
    /// Index of the next fresh activation buffer.
    fn fresh(&mut self) -> usize {
        self.next = (self.next + 1) % self.acts.len();
        self.next
    }
}

/// One replayed projection: `n` rows through `lin`, opening a new
/// activation scope first when `scope` (the start of a sharing group).
fn linear(
    lin: &Linear,
    n: usize,
    scope: bool,
    bufs: &mut Bufs,
    ctx: &ExecCtx,
    rec: &Recorder,
    parent: Option<usize>,
) {
    if scope {
        ctx.next_activation();
        bufs.fresh();
    }
    let act = &bufs.acts[bufs.next][..n * lin.cols()];
    let out = &mut bufs.out[..n * lin.rows()];
    let t0 = rec.now_ns();
    lin.forward_batch(act, n, out, ctx).expect("replay linear");
    let cat = if n == 1 { "core.gemv" } else { "core.gemm" };
    rec.record(
        cat,
        "linear",
        REPLAY_TID,
        t0,
        rec.now_ns(),
        parent,
        n as u64,
    );
}

/// Replay state: activation buffers and a KV cache filled over the
/// model's whole context, so any recorded position can attend.
pub struct Replayer {
    bufs: Bufs,
    kv: KvCache,
    attn: AttnScratch,
    att_out: Vec<f32>,
}

impl Replayer {
    /// Buffers for forward calls of up to `rows` rows on `model`.
    pub fn new(model: &Model, rows: usize) -> Self {
        let cfg = &model.cfg;
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut kv = KvCache::multi(cfg, 1);
        let kv_row: Vec<f32> = (0..cfg.kv_dim()).map(|_| rng.gaussian_ish()).collect();
        for l in 0..cfg.n_layers {
            for p in 0..cfg.seq_max {
                kv.store_seq(0, l, p, &kv_row, &kv_row)
                    .expect("replay KV fill");
            }
        }
        kv.set_seq_len(0, cfg.seq_max);
        let width = cfg.dim.max(cfg.ffn_dim);
        Replayer {
            bufs: Bufs {
                acts: (0..4)
                    .map(|_| (0..rows * width).map(|_| rng.gaussian_ish()).collect())
                    .collect(),
                next: 0,
                out: vec![0f32; rows * cfg.vocab.max(width)],
                logits: (0..cfg.vocab).map(|_| 3.0 * rng.gaussian_ish()).collect(),
            },
            kv,
            attn: AttnScratch::new(cfg),
            att_out: vec![0f32; cfg.dim],
        }
    }

    /// Replays one step — its forward calls (positions per row) and one
    /// sample per emitted token — as children of the step's span `parent`.
    pub fn step(
        &mut self,
        model: &Model,
        ctx: &ExecCtx,
        rec: &Recorder,
        forwards: &[Vec<usize>],
        emitted: &[Decode],
        parent: Option<usize>,
    ) {
        let cfg = &model.cfg;
        let bufs = &mut self.bufs;
        for positions in forwards {
            let n = positions.len();
            for (layer, lw) in model.layers.iter().enumerate() {
                linear(&lw.wq, n, true, bufs, ctx, rec, parent);
                linear(&lw.wk, n, false, bufs, ctx, rec, parent);
                linear(&lw.wv, n, false, bufs, ctx, rec, parent);
                let qi = bufs.fresh();
                let q = &bufs.acts[qi][..cfg.dim];
                let t0 = rec.now_ns();
                for &p in positions {
                    let p = p.min(cfg.seq_max - 1);
                    attend_seq(
                        q,
                        &mut self.att_out,
                        &self.kv,
                        0,
                        layer,
                        p,
                        &mut self.attn,
                        ctx,
                    );
                }
                let t1 = rec.now_ns();
                let tid = REPLAY_TID;
                rec.record("llm.attention", "attend_seq", tid, t0, t1, parent, n as u64);
                linear(&lw.wo, n, true, bufs, ctx, rec, parent);
                linear(&lw.w1, n, true, bufs, ctx, rec, parent);
                linear(&lw.w3, n, false, bufs, ctx, rec, parent);
                linear(&lw.w2, n, true, bufs, ctx, rec, parent);
            }
            linear(&model.head, n, true, bufs, ctx, rec, parent);
        }
        for d in emitted {
            let mut sampler = Sampler::new(&crate::direct::sampling_of(*d), cfg.vocab);
            let t0 = rec.now_ns();
            std::hint::black_box(sampler.sample(&bufs.logits));
            let topp = matches!(d, Decode::TopP { .. }) as u64;
            rec.record(
                "llm.sampling",
                "sample",
                REPLAY_TID,
                t0,
                rec.now_ns(),
                parent,
                topp,
            );
        }
    }
}

/// Folds the replayed steps' spans. Steps form two strata, admission steps
/// (with prefill) and decode-only steps; within each, the unattributed
/// share is the replayed steps' self time over their measured time, and
/// the strata weigh by their share of all measured step time.
pub fn fold(steps: &[StepRec], rec: &Recorder) -> Attribution {
    let all = rec.spans();
    let selfs = spans::self_times(&all);
    let dur = |s: &StepRec| s.end_s - s.start_s;
    let total_t: f64 = steps.iter().map(dur).sum();
    let (mut unattributed, mut unexplained_s) = (0.0, 0.0);
    let mut cat_share: HashMap<&'static str, f64> = HashMap::new();
    for admission in [true, false] {
        let stratum = steps.iter().filter(|s| s.admission == admission);
        let t_g: f64 = stratum.clone().map(dur).sum();
        let parents: Vec<usize> = stratum
            .filter(|s| s.replayed)
            .filter_map(|s| s.span)
            .collect();
        if parents.is_empty() {
            continue;
        }
        let w = t_g / total_t.max(1e-12);
        let measured: f64 = parents.iter().map(|&p| all[p].dur_ns() as f64).sum();
        let unexplained: f64 = parents.iter().map(|&p| selfs[p] as f64).sum();
        unattributed += w * unexplained / measured.max(1.0);
        unexplained_s += t_g * unexplained / measured.max(1.0);
        let folded = spans::fold_by_cat(&all, |s| s.parent.is_some_and(|p| parents.contains(&p)));
        for (cat, t) in folded {
            *cat_share.entry(cat).or_insert(0.0) += w * t as f64 / measured.max(1.0);
        }
    }
    let mut shares: Vec<_> = cat_share.into_iter().collect();
    shares.sort_by(|a, b| a.0.cmp(b.0));
    Attribution {
        unattributed_frac: unattributed,
        shares,
        replayed: steps.iter().filter(|s| s.replayed).count(),
        measured: steps.len(),
        overhead_us: unexplained_s / steps.len().max(1) as f64 * 1e6,
    }
}
