//! The repo benchmark: three workloads against the public APIs of the
//! T-MAC workspace, with output checks, end-to-end metrics (`--trace 0`)
//! and per-layer attribution (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path tmacbench/Cargo.toml -- \
//!     --workload edge-chat|batch-prefill|serve-shared --seed N --seconds S --trace 0|1
//! ```
//!
//! Models are converted once per checkout into `.tmacbench_cache/` (by a
//! child process, so conversion never shows in the measured process's
//! peak RSS) and loaded from there by mmap. Human-readable report lines go
//! to stdout; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check prints
//! `"correct": false` and exits with status 1.

mod direct;
mod gen;
mod probes;
mod replay;
mod serve;
mod spans;
mod stats;

use direct::Runner;
use gen::Request;
use spans::Recorder;
use stats::{median, tail_percentile, Outcomes};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tmac_core::{ExecCtx, KernelOpts};
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{
    BackendKind, GenRequest, KvCache, LoadMode, Model, ModelConfig, Scratch, WeightQuant,
};

/// Directory (relative to the checkout root) holding converted models and
/// trace dumps.
pub const CACHE_DIR: &str = ".tmacbench_cache";

/// Seed of every benchmark model's synthetic weights (fixed: the workload
/// seed varies only the requests).
const MODEL_SEED: u64 = 7;

/// Setups per run; `setup_s` and `io.load_s` report the median.
const SETUP_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: String, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: 1,
        }
    }

    fn n(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeChat,
    BatchPrefill,
    ServeShared,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "edge-chat" => Some(Workload::EdgeChat),
            "batch-prefill" => Some(Workload::BatchPrefill),
            "serve-shared" => Some(Workload::ServeShared),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeChat => "edge-chat",
            Workload::BatchPrefill => "batch-prefill",
            Workload::ServeShared => "serve-shared",
        }
    }

    /// Model, quantizer, threads and batch limit of the workload.
    pub fn spec(self) -> Spec {
        match self {
            Workload::EdgeChat => Spec {
                key: "bitnet3b-4l-ternary",
                cfg: ModelConfig::bitnet_3b().scaled(4, 32000, 512),
                quant: WeightQuant::BitnetTernary,
                threads: 1,
                max_batch: 1,
            },
            Workload::BatchPrefill => Spec {
                key: "llama7b-2l-rtn4",
                cfg: ModelConfig::llama2_7b().scaled(2, 32000, 256),
                quant: WeightQuant::Rtn(4),
                threads: 2,
                max_batch: 8,
            },
            Workload::ServeShared => Spec {
                key: "llama512-4l-rtn2",
                cfg: ModelConfig {
                    name: "llama-512".into(),
                    dim: 512,
                    n_layers: 4,
                    n_heads: 8,
                    n_kv_heads: 8,
                    ffn_dim: 1408,
                    vocab: 32000,
                    seq_max: 512,
                    ..ModelConfig::tiny()
                },
                quant: WeightQuant::Rtn(2),
                threads: 1,
                max_batch: 4,
            },
        }
    }
}

/// A workload's model and execution shape.
pub struct Spec {
    pub key: &'static str,
    pub cfg: ModelConfig,
    pub quant: WeightQuant,
    pub threads: usize,
    pub max_batch: usize,
}

impl Spec {
    pub fn path(&self) -> PathBuf {
        Path::new(CACHE_DIR).join(format!("{}.tmac", self.key))
    }

    pub fn kind() -> BackendKind {
        BackendKind::Tmac(KernelOpts::tmac())
    }

    pub fn load(&self) -> Model {
        Model::from_file(&self.path(), &Self::kind(), LoadMode::Mmap).expect("load model container")
    }

    pub fn sched_cfg(&self) -> SchedulerConfig {
        SchedulerConfig {
            max_batch: self.max_batch,
            ..SchedulerConfig::default()
        }
    }
}

/// Command-line arguments of a run.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub notes: Vec<String>,
    pub outcomes: Outcomes,
    pub checks: Vec<(String, bool)>,
    pub digest: u64,
}

/// Per-sequence timing summary shared by all workloads (window-clock
/// seconds).
#[derive(Debug, Clone, Default)]
pub struct SeqTimes {
    pub due_s: f64,
    pub sent_s: f64,
    pub prompt_len: usize,
    /// Token arrival times (empty for responses that arrive whole).
    pub token_s: Vec<f64>,
    pub end_s: f64,
}

/// The end-to-end metrics every workload reports, from per-sequence
/// timings. `setup_s` and `peak_rss_mb` are passed in.
pub fn e2e_metrics(
    seqs: &[SeqTimes],
    setup: &[f64],
    rss_mb: f64,
    prefill_spans: &[(f64, usize)],
) -> Vec<Metric> {
    let streamed: Vec<&SeqTimes> = seqs.iter().filter(|s| !s.token_s.is_empty()).collect();
    let ttft: Vec<f64> = streamed
        .iter()
        .map(|s| stats::since_due_ms(s.due_s, s.token_s[0]))
        .collect();
    let itl: Vec<f64> = streamed
        .iter()
        .flat_map(|s| s.token_s.windows(2).map(|w| (w[1] - w[0]) * 1e3))
        .collect();
    let e2e: Vec<f64> = seqs
        .iter()
        .map(|s| stats::since_due_ms(s.due_s, s.end_s))
        .collect();
    let decoded: usize = streamed.iter().map(|s| s.token_s.len() - 1).sum();
    // Per stream: each sequence's decode time counts once even when
    // streams overlap, so the rate is what one stream sees.
    let decode_span: f64 = streamed
        .iter()
        .map(|s| s.token_s.last().unwrap_or(&s.token_s[0]) - s.token_s[0])
        .sum();
    let (pf_time, pf_tokens) = prefill_spans
        .iter()
        .fold((0.0, 0usize), |(t, n), &(dt, k)| (t + dt, n + k));
    let nan = f64::NAN;
    let mut out = vec![
        Metric::n("setup_s", median(setup).unwrap_or(nan), "s", setup.len()),
        Metric::n(
            "decode_tok_s",
            decoded as f64 / decode_span,
            "tok/s",
            decoded,
        ),
        Metric::n(
            "prefill_tok_s",
            pf_tokens as f64 / pf_time,
            "tok/s",
            prefill_spans.len(),
        ),
        Metric::n(
            "ttft_p50_ms",
            median(&ttft).unwrap_or(nan),
            "ms",
            ttft.len(),
        ),
        Metric::n("itl_p50_ms", median(&itl).unwrap_or(nan), "ms", itl.len()),
        Metric::n("e2e_p50_ms", median(&e2e).unwrap_or(nan), "ms", e2e.len()),
        Metric::n("peak_rss_mb", rss_mb, "MB", 1),
    ];
    // Tail latencies are reported (not tracked) where ten samples lie
    // beyond the percentile. The served p90 gap falls between step
    // compositions (alone, beside a top-p row, beside a prefill) and moved
    // by half between seeds, too far for any bound.
    for (name, v) in [
        ("ttft_p90_ms", &ttft),
        ("itl_p90_ms", &itl),
        ("e2e_p90_ms", &e2e),
    ] {
        if let Some(p90) = tail_percentile(v, 0.9) {
            out.push(Metric::n(name, p90, "ms", v.len()));
        }
    }
    out
}

/// Metric names the JSON line carries with `--trace 0`: the tracked
/// end-to-end set; the rest is printed but not emitted. On the noisy
/// development VM the host's speed flips between states every few seconds,
/// and the figures that sample it least steadily left the set: time to
/// first token (and the prefill rate derived from it) comes from four or
/// five prefills per `edge-chat` run and spread by 0.27 over ten runs, and
/// the median token gap jumps between the states (0.22), where
/// `decode_tok_s`, its mean-based inverse, moves smoothly. `e2e_p50_ms`
/// still carries prefill time.
pub const E2E_TRACKED: [&str; 4] = ["setup_s", "decode_tok_s", "e2e_p50_ms", "peak_rss_mb"];

/// Converts the workload's model into its container unless present.
fn ensure_model(w: Workload) -> Result<(), String> {
    let spec = w.spec();
    if spec.path().exists() {
        return Ok(());
    }
    std::fs::create_dir_all(CACHE_DIR).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["--convert", w.name()])
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() || !spec.path().exists() {
        return Err(format!(
            "converting the {} model failed ({status})",
            w.name()
        ));
    }
    Ok(())
}

/// `--convert`: builds the synthetic model and writes its container
/// atomically (temp file, then rename).
fn convert(w: Workload) {
    let spec = w.spec();
    let t0 = Instant::now();
    let model =
        Model::synthetic(&spec.cfg, spec.quant, Spec::kind(), MODEL_SEED).expect("build model");
    let tmp = spec.path().with_extension("tmac.tmp");
    model.save_file(&tmp).expect("save container");
    std::fs::rename(&tmp, spec.path()).expect("publish container");
    eprintln!(
        "converted {} ({}) in {:.1}s",
        w.name(),
        spec.key,
        t0.elapsed().as_secs_f64()
    );
}

/// Loads the model, builds the scheduler and runs one warm-up token,
/// `SETUP_REPS` times; returns the last scheduler with the setup and load
/// times.
fn setup_direct(spec: &Spec) -> (Scheduler, ExecCtx, Vec<f64>, Vec<f64>) {
    let (mut setup, mut load) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let model = spec.load();
        load.push(t0.elapsed().as_secs_f64());
        let mut sched = Scheduler::new(model, spec.sched_cfg());
        let ctx = ExecCtx::new(spec.threads);
        let warm = GenRequest::greedy(&[1], 1).with_cache_prompt(false);
        sched.submit(warm).expect("warm-up submit");
        let done = sched.run_to_completion(&ctx).expect("warm-up step");
        assert_eq!(done.len(), 1, "warm-up must finish");
        setup.push(t0.elapsed().as_secs_f64());
        last = Some((sched, ctx));
    }
    let (sched, ctx) = last.expect("at least one setup");
    ctx.reset_table_stats();
    (sched, ctx, setup, load)
}

fn seq_times(d: &Runner) -> Vec<SeqTimes> {
    d.seqs
        .iter()
        .map(|s| SeqTimes {
            due_s: s.due_s,
            sent_s: s.submit_s,
            prompt_len: s.prompt_len,
            token_s: s.token_s.clone(),
            end_s: s.token_s.last().copied().unwrap_or(s.submit_s),
        })
        .collect()
}

/// Per-layer metrics a direct-scheduler run yields from its own records.
fn runner_layer_metrics(d: &Runner, out: &mut Vec<Metric>) {
    let stats = d.ctx.table_stats();
    let emitted: usize = d.seqs.iter().map(|s| s.tokens.len()).sum();
    out.push(Metric::new(
        "table.hit_frac".into(),
        stats.hits as f64 / stats.lookups().max(1) as f64,
        "frac",
    ));
    out.push(Metric::new(
        "table.builds_per_token".into(),
        stats.misses as f64 / emitted.max(1) as f64,
        "1/token",
    ));
    let step_ms: Vec<f64> = d
        .steps
        .iter()
        .map(|s| (s.end_s - s.start_s) * 1e3)
        .collect();
    out.push(Metric::n(
        "batch.step_ms",
        median(&step_ms).unwrap_or(0.0),
        "ms",
        step_ms.len(),
    ));
    let queue: Vec<f64> = d
        .seqs
        .iter()
        .filter_map(|s| s.finished.as_ref().map(|f| f.timing.queue_us as f64 / 1e3))
        .collect();
    out.push(Metric::n(
        "batch.queue_wait_ms",
        median(&queue).unwrap_or(0.0),
        "ms",
        queue.len(),
    ));
    let prompt: usize = d.seqs.iter().map(|s| s.prompt_len).sum();
    let hits: u64 = d
        .seqs
        .iter()
        .filter_map(|s| s.finished.as_ref().map(|f| f.timing.prefix_hit_positions))
        .sum();
    let kv = d.sched.kv_stats();
    out.push(Metric::new(
        "kv.prefix_hit_frac".into(),
        hits as f64 / prompt.max(1) as f64,
        "frac",
    ));
    out.push(Metric::new(
        "kv.cow_forks".into(),
        kv.cow_forks as f64,
        "count",
    ));
    out.push(Metric::new(
        "kv.pages_peak".into(),
        d.pages_peak as f64,
        "count",
    ));
    out.push(Metric::new(
        "kv.resident_mb".into(),
        kv.resident_bytes as f64 / (1 << 20) as f64,
        "MB",
    ));
    // Caller-observed e2e minus the scheduler's own phase timings: the
    // direct-call analogue of the served path's overhead.
    let over: Vec<f64> = d
        .seqs
        .iter()
        .filter_map(|s| {
            let f = s.finished.as_ref()?;
            let t = f.timing;
            let inside = (t.queue_us + t.prefill_us + t.decode_us) as f64 / 1e3;
            Some((s.token_s.last()? - s.submit_s + s.paused_s) * 1e3 - inside)
        })
        .collect();
    out.push(Metric::n(
        "serve.overhead_p50_ms",
        median(&over).unwrap_or(0.0),
        "ms",
        over.len(),
    ));
    out.push(Metric::n(
        "serve.overhead_max_ms",
        over.iter().copied().reduce(f64::max).unwrap_or(0.0),
        "ms",
        over.len(),
    ));
    let late: Vec<f64> = d
        .seqs
        .iter()
        .map(|s| (s.submit_s - s.due_s) * 1e3)
        .collect();
    out.push(Metric::n(
        "serve.late_ms",
        median(&late).unwrap_or(0.0),
        "ms",
        late.len(),
    ));
    out.push(Metric::new("serve.shed".into(), 0.0, "count"));
}

/// Probes shared by every traced run: host ceilings, kernel sweep, layer
/// microbenchmarks at the workload's geometry, and whole forwards.
fn common_probes(
    spec: &Spec,
    model: &Model,
    ctx: &ExecCtx,
    forward_pos: usize,
    out: &mut Vec<Metric>,
) {
    let (read_gbps, glookups) = probes::host_ceilings();
    out.push(Metric::new("host.read_gbps".into(), read_gbps, "GB/s"));
    out.push(Metric::new(
        "host.shuffle_glookups".into(),
        glookups,
        "Glookup/s",
    ));
    probes::kernel_sweep(read_gbps, glookups, out);
    let bits = spec.quant.bits();
    out.push(Metric::new(
        "table.build_us".into(),
        probes::table_build_us(spec.cfg.dim, bits),
        "us",
    ));
    out.push(Metric::new(
        "gemv.model.us".into(),
        probes::model_gemv_us(model, ctx),
        "us",
    ));
    probes::attention(&spec.cfg, out);
    let (g, p) = probes::sampling(spec.cfg.vocab);
    out.push(Metric::new("sampling.greedy.us".into(), g, "us"));
    out.push(Metric::new("sampling.topp.us".into(), p, "us"));
    out.push(Metric::new(
        "threadpool.dispatch_us".into(),
        probes::threadpool_dispatch_us(),
        "us",
    ));
    for n in [1usize, 8, 16] {
        let ms = probes::model_forward_ms(model, ctx, n, forward_pos);
        out.push(Metric::new(format!("model.forward.n{n}.ms"), ms, "ms"));
    }
}

/// Traced-run tail shared by the direct workloads: replay attribution and
/// the probes.
fn traced_layers(spec: &Spec, d: &Runner, rec: &Recorder, forward_pos: usize, out: &mut Outcome) {
    push_attribution(&replay::fold(&d.steps, rec), out);
    let rows: usize = d.steps.iter().map(|s| s.rows).sum();
    out.layer.push(Metric::new(
        "batch.rows_per_step".into(),
        rows as f64 / d.steps.len().max(1) as f64,
        "rows",
    ));
    common_probes(spec, d.sched.model(), &d.ctx, forward_pos, &mut out.layer);
    out.notes.extend(claim_reports(&out.layer));
}

/// The paper's kernel claims, checked against the sweep and printed as
/// reports (never gates).
fn claim_reports(layer: &[Metric]) -> Vec<String> {
    let get = |n: &str| {
        layer
            .iter()
            .find(|m| m.name == n)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut out = vec![
        format!(
            "claim bit-linear GEMV (Fig. 6): gemv.b1.us / gemv.b2.us = {:.3} (paper ~0.5)",
            get("gemv.b1_vs_b2")
        ),
        format!(
            "claim mpGEMM at n=1 no slower than GEMV: gemm.n1_vs_gemv = {:.3} (<= 1 holds: {})",
            get("gemm.n1_vs_gemv"),
            get("gemm.n1_vs_gemv") <= 1.0
        ),
    ];
    for b in [2, 4] {
        let rows: Vec<f64> = [1, 4, 8, 16]
            .iter()
            .map(|n| get(&format!("gemm.b{b}.n{n}.us_per_row")))
            .collect();
        let holds = rows.windows(2).all(|w| w[1] <= w[0]);
        let shown: Vec<String> = rows.iter().map(|v| format!("{v:.0}")).collect();
        out.push(format!(
            "claim mpGEMM per-row cost non-increasing in n (Fig. 7), {b}-bit: {} us at n=1,4,8,16 (holds: {holds})",
            shown.join(" / ")
        ));
    }
    out
}

pub fn push_attribution(a: &replay::Attribution, out: &mut Outcome) {
    out.layer.push(Metric::n(
        "attrib.unattributed_frac",
        a.unattributed_frac,
        "frac",
        a.replayed,
    ));
    out.layer.push(Metric::n(
        "batch.overhead_us",
        a.overhead_us,
        "us",
        a.measured,
    ));
    for (cat, share) in &a.shares {
        out.notes.push(format!(
            "attribution {cat}: {:.1}% of step time",
            share * 100.0
        ));
    }
    out.notes.push(format!(
        "attribution replayed {} of {} steps (stratified by admission/decode)",
        a.replayed, a.measured
    ));
}

/// Start another unit (request or batch) only while the last one still
/// fits the window; always run at least one.
fn window_open(elapsed: f64, last_unit: f64, seconds: f64, units: usize) -> bool {
    units == 0 || elapsed + last_unit <= seconds
}

fn run_edge(run: &Run, rec: &Recorder) -> Outcome {
    let spec = run.workload.spec();
    let (sched, ctx, setup, load) = setup_direct(&spec);
    let reqs = gen::edge_chat(run.seed, 512);
    let mut d = Runner::new(sched, ctx, rec, Instant::now());
    let mut last = 0.0;
    let mut i = 0;
    while i < reqs.len() && window_open(d.now_s(), last, run.seconds, i) {
        let t0 = d.now_s();
        // Closed loop: each request is due the moment the previous ended.
        d.submit(i, &reqs[i], t0);
        d.run_idle();
        last = d.now_s() - t0;
        i += 1;
    }
    let rss = stats::peak_rss_mb();
    let times = seq_times(&d);
    let pf: Vec<(f64, usize)> = times
        .iter()
        .map(|s| (s.token_s[0] - s.sent_s, s.prompt_len))
        .collect();
    let mut out = Outcome {
        e2e: e2e_metrics(&times, &setup, rss, &pf),
        ..Outcome::default()
    };
    finish_direct(&mut out, &d, &reqs);
    let per_req: Vec<String> = times
        .iter()
        .map(|s| {
            format!(
                "{:.1}",
                (s.token_s.len() - 1) as f64 / (s.end_s - s.token_s[0])
            )
        })
        .collect();
    out.notes
        .push(format!("decode tok/s per request: {}", per_req.join(" ")));
    // Check: the first request's first tokens through the single-row
    // `Model::forward` path must match the scheduler's greedy output.
    let model = d.sched.model();
    let mut cache = KvCache::new(&model.cfg);
    let mut scratch = Scratch::new(&model.cfg);
    let one = ExecCtx::new(1);
    let mut fed: Vec<u32> = reqs[0].prompt.clone();
    let mut got = Vec::new();
    for pos in 0..reqs[0].prompt.len() + 7 {
        model
            .forward(fed[pos], pos, &mut cache, &mut scratch, &one)
            .expect("forward");
        if pos + 1 >= reqs[0].prompt.len() {
            let t = tmac_llm::ops::argmax(&scratch.logits) as u32;
            got.push(t);
            fed.push(t);
        }
    }
    let ok = d.seqs[0].tokens.starts_with(&got);
    out.checks.push((
        "scheduler greedy == Model::forward greedy (8 tokens)".into(),
        ok,
    ));
    if run.trace {
        out.layer.push(Metric::n(
            "io.load_s",
            median(&load).unwrap_or(0.0),
            "s",
            load.len(),
        ));
        runner_layer_metrics(&d, &mut out.layer);
        traced_layers(&spec, &d, rec, 80, &mut out);
    }
    out
}

fn run_batch(run: &Run, rec: &Recorder) -> Outcome {
    let spec = run.workload.spec();
    let (sched, ctx, setup, load) = setup_direct(&spec);
    let batches = gen::batch_prefill(run.seed, 64);
    let mut d = Runner::new(sched, ctx, rec, Instant::now());
    let (mut last, mut b) = (0.0, 0);
    let mut flat: Vec<Request> = Vec::new();
    let mut pf = Vec::new();
    while b < batches.len() && window_open(d.now_s(), last, run.seconds, b) {
        let t0 = d.now_s();
        let first = d.seqs.len();
        for r in &batches[b] {
            d.submit(flat.len(), r, t0);
            flat.push(r.clone());
        }
        d.run_idle();
        let last_first = d.seqs[first..]
            .iter()
            .map(|s| s.token_s[0])
            .fold(t0, f64::max);
        pf.push((
            last_first - t0,
            batches[b].iter().map(|r| r.prompt.len()).sum(),
        ));
        last = d.now_s() - t0;
        b += 1;
    }
    let rss = stats::peak_rss_mb();
    let times = seq_times(&d);
    let mut out = Outcome {
        e2e: e2e_metrics(&times, &setup, rss, &pf),
        ..Outcome::default()
    };
    finish_direct(&mut out, &d, &flat);
    if run.trace {
        out.layer.push(Metric::n(
            "io.load_s",
            median(&load).unwrap_or(0.0),
            "s",
            load.len(),
        ));
        runner_layer_metrics(&d, &mut out.layer);
        traced_layers(&spec, &d, rec, 64, &mut out);
    }
    // Check: the first batch's sampled sequence, run alone at max_batch 1,
    // must reproduce its batched tokens.
    let (si, sampled) = flat
        .iter()
        .enumerate()
        .find(|(_, r)| r.decode != gen::Decode::Greedy)
        .expect("every batch samples one sequence");
    let batched = d.seqs[si].tokens.clone();
    drop(d);
    let mut solo = Scheduler::new(
        spec.load(),
        SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        },
    );
    let req = GenRequest::greedy(&sampled.prompt, sampled.max_new)
        .with_sampling(direct::sampling_of(sampled.decode));
    solo.submit(req).expect("solo submit");
    let done = solo
        .run_to_completion(&ExecCtx::new(spec.threads))
        .expect("solo run");
    let ok = done.len() == 1 && done[0].tokens == batched;
    out.checks
        .push(("sampled sequence batched == solo at max_batch 1".into(), ok));
    out
}

/// Counts, digest and the completeness check of a direct run.
fn finish_direct(out: &mut Outcome, d: &Runner, reqs: &[Request]) {
    out.outcomes = Outcomes {
        attempted: d.seqs.len() as u64,
        errored: d.errored(),
        shed: 0,
    };
    let complete = d.seqs.iter().all(|s| {
        s.tokens.len() == reqs[s.req].max_new
            && s.finished
                .as_ref()
                .is_some_and(|f| f.reason.as_str() == "length")
            && s.tokens.iter().all(|&t| t < gen::VOCAB)
    });
    out.checks.push((
        "every sequence completed its token budget".into(),
        complete && d.step_errors == 0,
    ));
    out.digest = gen::digest(d.seqs.iter().map(|s| s.tokens.as_slice()));
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |k: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == k)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(w) = get("--convert") {
        let w = Workload::parse(w).ok_or("unknown workload")?;
        convert(w);
        std::process::exit(0);
    }
    let workload = get("--workload")
        .and_then(Workload::parse)
        .ok_or("--workload edge-chat|batch-prefill|serve-shared is required")?;
    let num = |k: &str, d: &str| -> Result<f64, String> {
        get(k)
            .unwrap_or(d)
            .parse::<f64>()
            .map_err(|e| format!("{k}: {e}"))
    };
    Ok(Run {
        workload,
        seed: num("--seed", "1")? as u64,
        seconds: num("--seconds", "10")?.max(0.0),
        trace: num("--trace", "0")? != 0.0,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tmacbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = ensure_model(run.workload) {
        eprintln!("tmacbench: {e}");
        std::process::exit(1);
    }
    let rec = Recorder::new(run.trace);
    let wall = Instant::now();
    let mut out = match run.workload {
        Workload::EdgeChat => run_edge(&run, &rec),
        Workload::BatchPrefill => run_batch(&run, &rec),
        Workload::ServeShared => serve::run(&run, &rec),
    };
    let tag = run.workload.name();
    for m in &out.e2e {
        println!(
            "[{tag}] e2e {} = {} {} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    if run.trace {
        // Under tracing the end-to-end figures above carry the recorder's
        // overhead; compare them with an untraced run of the same seed.
        for name in ["ttft_p50_ms", "itl_p50_ms"] {
            if let Some(m) = out.e2e.iter().find(|m| m.name == name) {
                out.layer.push(Metric::n(
                    &format!("trace.{name}"),
                    m.value,
                    "ms",
                    m.samples,
                ));
            }
        }
        for m in &out.layer {
            println!(
                "[{tag}] layer {} = {} {} (n={})",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples
            );
        }
        let path = Path::new(CACHE_DIR).join(format!("trace-{tag}-seed{}.json", run.seed));
        let doc = spans::chrome_json(
            &rec.spans(),
            &[(1, "bench"), (replay::REPLAY_TID, "replay")],
        );
        match std::fs::write(&path, doc) {
            Ok(()) => println!("[{tag}] chrome trace: {}", path.display()),
            Err(e) => println!("[{tag}] chrome trace not written: {e}"),
        }
    }
    for n in &out.notes {
        println!("[{tag}] {n}");
    }
    let o = out.outcomes;
    println!(
        "[{tag}] requests attempted={} errored={} shed={} error_frac={}",
        o.attempted,
        o.errored,
        o.shed,
        o.error_frac()
    );
    let mut correct = o.attempted > 0;
    for (name, ok) in &out.checks {
        println!(
            "[{tag}] check {}: {name}",
            if *ok { "ok" } else { "FAILED" }
        );
        correct &= *ok;
    }
    println!("[{tag}] token digest {:016x}", out.digest);
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!("[{tag}] host threads available: {threads}");
    println!("[{tag}] wall {:.1}s", wall.elapsed().as_secs_f64());

    let chosen: Vec<&Metric> = if run.trace {
        out.layer.iter().collect()
    } else {
        E2E_TRACKED
            .iter()
            .filter_map(|n| out.e2e.iter().find(|m| m.name == *n))
            .collect()
    };
    let body: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
