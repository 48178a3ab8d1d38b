//! Drives a [`Scheduler`] directly: submits requests, runs
//! [`Scheduler::step_batch`], stamps every emitted token, and (traced)
//! records a span per step and replays a sample of steps through the layer
//! calls (see `replay`).

use crate::gen::{Decode, Request};
use crate::replay::{Replayer, DECODE_STRIDE};
use crate::spans::Recorder;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;
use tmac_core::ExecCtx;
use tmac_llm::batch::{FinishedSeq, Scheduler, SeqId};
use tmac_llm::{GenRequest, SamplingParams};

/// The sampling params a generated request maps to (the same mapping the
/// HTTP front end applies to `temperature`/`top_p`/`seed`).
pub fn sampling_of(d: Decode) -> SamplingParams {
    match d {
        Decode::Greedy => SamplingParams::default(),
        Decode::TopP { seed } => SamplingParams {
            temperature: 0.8,
            top_p: 0.9,
            seed,
            ..SamplingParams::default()
        },
    }
}

/// One measured step.
#[derive(Debug, Clone)]
pub struct StepRec {
    /// Window-clock start and end, seconds.
    pub start_s: f64,
    pub end_s: f64,
    /// Its span in the recorder (traced runs).
    pub span: Option<usize>,
    /// Whether the step admitted (prefilled) a sequence.
    pub admission: bool,
    /// Rows its forward calls carried (traced runs).
    pub rows: usize,
    /// Whether it was replayed through the layer calls.
    pub replayed: bool,
}

/// One sequence's life as the caller saw it.
#[derive(Debug, Clone)]
pub struct SeqRec {
    /// Index of the generated request.
    pub req: usize,
    /// Window-clock due and submit times, seconds.
    pub due_s: f64,
    pub submit_s: f64,
    /// Window-clock time of every emitted token.
    pub token_s: Vec<f64>,
    /// Emitted tokens.
    pub tokens: Vec<u32>,
    pub prompt_len: usize,
    pub decode: Decode,
    /// The scheduler's record once retired.
    pub finished: Option<FinishedSeq>,
    /// Replay time that passed while the sequence was in flight: the
    /// scheduler's own timings include it, the window clock does not.
    pub paused_s: f64,
}

/// A scheduler plus everything observed while driving it.
pub struct Runner<'r> {
    pub sched: Scheduler,
    pub ctx: ExecCtx,
    rec: &'r Recorder,
    origin: Instant,
    pub steps: Vec<StepRec>,
    pub seqs: Vec<SeqRec>,
    index: HashMap<SeqId, usize>,
    pending: VecDeque<SeqId>,
    active: Vec<SeqId>,
    /// Highest `pages_in_use` seen after any step.
    pub pages_peak: usize,
    /// Steps that returned an error.
    pub step_errors: u64,
    /// Inline replay (traced runs only), on a context of its own so the
    /// replay's table builds stay out of the run's cache counters.
    replayer: Option<(Replayer, ExecCtx)>,
    /// Window-clock time spent replaying, excluded from every timestamp.
    paused_s: f64,
    decode_steps: usize,
}

impl<'r> Runner<'r> {
    /// Wraps `sched`; `origin` is the window clock's zero.
    pub fn new(sched: Scheduler, ctx: ExecCtx, rec: &'r Recorder, origin: Instant) -> Self {
        let rows = sched.config().prefill_chunk.max(sched.config().max_batch);
        let replayer = rec.enabled().then(|| {
            (
                Replayer::new(sched.model(), rows),
                ExecCtx::new(ctx.threads()),
            )
        });
        Runner {
            sched,
            ctx,
            rec,
            origin,
            steps: Vec::new(),
            seqs: Vec::new(),
            index: HashMap::new(),
            pending: VecDeque::new(),
            active: Vec::new(),
            pages_peak: 0,
            step_errors: 0,
            replayer,
            paused_s: 0.0,
            decode_steps: 0,
        }
    }

    /// Seconds on the window clock (replays excluded).
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.paused_s
    }

    /// Submits generated request `idx`, due at `due_s`. Returns false when
    /// the scheduler refused it.
    pub fn submit(&mut self, idx: usize, r: &Request, due_s: f64) -> bool {
        let req = GenRequest::greedy(&r.prompt, r.max_new).with_sampling(sampling_of(r.decode));
        let t0 = self.rec.now_ns();
        let submit_s = self.now_s();
        let res = self.sched.submit(req);
        self.rec.record(
            "sched",
            "submit",
            1,
            t0,
            self.rec.now_ns(),
            None,
            idx as u64,
        );
        match res {
            Ok(id) => {
                self.index.insert(id, self.seqs.len());
                self.pending.push_back(id);
                self.seqs.push(SeqRec {
                    req: idx,
                    due_s,
                    submit_s,
                    token_s: Vec::with_capacity(r.max_new),
                    tokens: Vec::with_capacity(r.max_new),
                    prompt_len: r.prompt.len(),
                    decode: r.decode,
                    finished: None,
                    paused_s: 0.0,
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Runs one step and records what it did.
    pub fn step(&mut self) {
        // The composition follows the scheduler's documented order: FIFO
        // admission into free slots (one chunked prefill each), then one
        // batched decode over every active sequence.
        let free = self
            .sched
            .config()
            .max_batch
            .saturating_sub(self.active.len());
        let admitted: Vec<SeqId> = self.pending.iter().take(free).copied().collect();
        let hits_before = self
            .replayer
            .as_ref()
            .map_or(0, |_| self.sched.kv_stats().prefix_hit_positions);
        let t0 = self.rec.now_ns();
        let start_s = self.now_s();
        let out = self.sched.step_batch(&self.ctx);
        let end_s = self.now_s();
        let span = self.rec.record(
            "sched",
            "step",
            1,
            t0,
            self.rec.now_ns(),
            None,
            self.steps.len() as u64,
        );
        for _ in 0..admitted.len() {
            self.pending.pop_front();
        }
        let tokens = match out {
            Ok(t) => t,
            Err(_) => {
                self.step_errors += 1;
                Vec::new()
            }
        };
        // Prefill rows: each admitted prompt minus its radix-cache hit. The
        // step's hit total is known; when several sequences were admitted
        // it goes to the latest ones first (they can reuse what earlier
        // ones just published).
        let mut forwards: Vec<Vec<usize>> = Vec::new();
        if self.replayer.is_some() {
            let mut left = (self.sched.kv_stats().prefix_hit_positions - hits_before) as usize;
            let mut hits = vec![0; admitted.len()];
            for (h, id) in hits.iter_mut().zip(&admitted).rev() {
                *h = left.min(self.seqs[self.index[id]].prompt_len - 1);
                left -= *h;
            }
            let chunk = self.sched.config().prefill_chunk;
            for (id, hit) in admitted.iter().zip(hits) {
                let pos: Vec<usize> = (hit..self.seqs[self.index[id]].prompt_len).collect();
                forwards.extend(pos.chunks(chunk).map(<[usize]>::to_vec));
            }
        }
        // Admitted sequences that survived their prefill token joined this
        // step's decode batch behind the already-active ones. (Prefill
        // tokens come first in the step's output.)
        let first_done: Vec<SeqId> = admitted
            .iter()
            .filter(|&&id| {
                tokens
                    .iter()
                    .find(|t| t.id == id)
                    .is_none_or(|t| t.finished)
            })
            .copied()
            .collect();
        self.active
            .extend(admitted.iter().filter(|id| !first_done.contains(id)));
        if self.replayer.is_some() && !self.active.is_empty() {
            // Decoded at the position of the last token emitted before this
            // step (admitted ones: their prompt length).
            let positions = self.active.iter().map(|&id| {
                let s = &self.seqs[self.index[&id]];
                s.prompt_len + s.tokens.len().saturating_sub(1)
            });
            forwards.push(positions.collect());
        }
        let mut emitted = Vec::with_capacity(tokens.len());
        for t in &tokens {
            let i = self.index[&t.id];
            let s = &mut self.seqs[i];
            s.token_s.push(end_s);
            s.tokens.push(t.token);
            emitted.push(s.decode);
            if t.finished {
                self.active.retain(|&a| a != t.id);
            }
        }
        // Retire records (and anything the quarantine ended early).
        for f in self.sched.take_finished() {
            if let Some(&i) = self.index.get(&f.id) {
                self.active.retain(|&a| a != f.id);
                self.seqs[i].finished = Some(f);
            }
        }
        self.pages_peak = self.pages_peak.max(self.sched.kv_stats().pages_in_use);
        let admission = !admitted.is_empty();
        let mut replayed = false;
        if let Some((r, ctx)) = self.replayer.as_mut() {
            self.decode_steps += usize::from(!admission);
            replayed = admission || self.decode_steps.is_multiple_of(DECODE_STRIDE);
            if replayed {
                let t = Instant::now();
                r.step(self.sched.model(), ctx, self.rec, &forwards, &emitted, span);
                let paused = t.elapsed().as_secs_f64();
                self.paused_s += paused;
                for id in self.pending.iter().chain(&self.active) {
                    self.seqs[self.index[id]].paused_s += paused;
                }
            }
        }
        self.steps.push(StepRec {
            start_s,
            end_s,
            span,
            admission,
            rows: forwards.iter().map(Vec::len).sum(),
            replayed,
        });
    }

    /// Steps until the scheduler is idle.
    pub fn run_idle(&mut self) {
        while !self.sched.is_idle() {
            self.step();
        }
    }

    /// Requests that did not finish with their full token budget.
    pub fn errored(&self) -> u64 {
        self.seqs
            .iter()
            .filter(|s| {
                s.finished
                    .as_ref()
                    .is_none_or(|f| f.reason.is_error() || f.tokens != s.tokens)
            })
            .count() as u64
    }
}
