//! Seeded workload generators.
//!
//! Everything a workload feeds the program — prompts, token budgets,
//! sampling choices and (for `serve-shared`) the arrival schedule — is a
//! pure function of the `--seed` argument. The program only ever sees the
//! generated requests.

use tmac_rng::Rng;

/// Vocabulary of every benchmark model.
pub const VOCAB: u32 = 32000;

/// How a request is decoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decode {
    /// Plain argmax.
    Greedy,
    /// Seeded nucleus sampling (top-p 0.9, temperature 0.8).
    TopP { seed: u64 },
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Decoding rule.
    pub decode: Decode,
    /// Served as SSE (`serve-shared` only).
    pub stream: bool,
    /// Due time in seconds after the window opens (open loop only).
    pub due_s: f64,
    /// Prompt starts with the shared system prompt.
    pub shared: bool,
}

impl Request {
    fn greedy(prompt: Vec<u32>, max_new: usize) -> Self {
        Request {
            prompt,
            max_new,
            decode: Decode::Greedy,
            stream: false,
            due_s: 0.0,
            shared: false,
        }
    }
}

/// Draws prompts whose first tokens are pairwise distinct, so no two
/// "unique" prompts ever share a radix-cache prefix.
struct PromptSource {
    rng: Rng,
    used_first: std::collections::HashSet<u32>,
}

impl PromptSource {
    fn new(seed: u64, salt: u64) -> Self {
        PromptSource {
            rng: Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            used_first: std::collections::HashSet::new(),
        }
    }

    fn token(&mut self) -> u32 {
        self.rng.u32_range(1, VOCAB)
    }

    fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.token()).collect()
    }

    fn unique(&mut self, n: usize) -> Vec<u32> {
        let mut p = self.tokens(n);
        while !self.used_first.insert(p[0]) {
            p[0] = self.token();
        }
        p
    }
}

/// `edge-chat`: request `i` of a run — a unique 16-token prompt, 128 greedy
/// tokens. Requests are drawn in order, so request `i` is the same whatever
/// the run length.
pub fn edge_chat(seed: u64, n: usize) -> Vec<Request> {
    let mut src = PromptSource::new(seed, 1);
    (0..n)
        .map(|_| Request::greedy(src.unique(16), 128))
        .collect()
}

/// `batch-prefill`: `n` batches of 8 unique 64-token prompts with 32 tokens
/// each; one sequence per batch (seed-chosen) samples with top-p, the rest
/// are greedy.
pub fn batch_prefill(seed: u64, n: usize) -> Vec<Vec<Request>> {
    let mut src = PromptSource::new(seed, 2);
    (0..n)
        .map(|_| {
            let sampled = src.rng.usize_below(8);
            (0..8)
                .map(|i| {
                    let mut r = Request::greedy(src.unique(64), 32);
                    if i == sampled {
                        r.decode = Decode::TopP {
                            seed: src.rng.next_u64() >> 12,
                        };
                    }
                    r
                })
                .collect()
        })
        .collect()
}

/// Shared system-prompt length of `serve-shared` (2.5 KV pages).
pub const SYSTEM_PROMPT: usize = 160;

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.usize_below(i + 1));
    }
}

/// `n` stratified draws from the integers `lo..=hi` (one per equal-mass
/// stratum), in seeded order.
fn stratified(n: usize, lo: usize, hi: usize, rng: &mut Rng) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut v: Vec<usize> = (0..n)
        .map(|k| lo + (((k as f64 + 0.5) / n as f64) * span) as usize)
        .collect();
    shuffle(&mut v, rng);
    v
}

/// `serve-shared`: `rate × seconds` requests on a stratified Poisson
/// schedule — the inter-arrival gaps are the exponential distribution's
/// quantiles at `rate`, in seeded order — so every seed sees the same
/// load and the same request mix, in a different order with different
/// tokens. The mix is a balanced design repeated every 20 requests: 70%
/// shared system prompt plus a unique 8–24-token suffix, 30% unique
/// 16–48-token prompts; crossed with half SSE / half JSON. SSE requests
/// decode greedily and JSON requests with seeded top-p, so half of all
/// requests sample while the streamed latency percentiles stay inside one
/// mode instead of straddling the greedy and top-p step times. Suffix,
/// prompt and output lengths (16–32 new tokens) are stratified over their
/// ranges.
pub fn serve_shared(seed: u64, rate: f64, seconds: f64) -> Vec<Request> {
    let mut src = PromptSource::new(seed, 3);
    let system = src.unique(SYSTEM_PROMPT);
    let n = ((rate * seconds).round() as usize).max(1);
    // Cell j of a 20-request block: j % 10 < 7 is shared, j < 10 is SSE.
    let mut cells: Vec<usize> = (0..n).map(|i| i % 20).collect();
    shuffle(&mut cells, &mut src.rng);
    let n_shared = cells.iter().filter(|&&j| j % 10 < 7).count();
    let mut suffix = stratified(n_shared, 8, 24, &mut src.rng).into_iter();
    let mut unique = stratified(n - n_shared, 16, 48, &mut src.rng).into_iter();
    let max_new = stratified(n, 16, 32, &mut src.rng);
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    shuffle(&mut gaps, &mut src.rng);
    let mut t = 0.0;
    cells
        .iter()
        .zip(max_new)
        .zip(gaps)
        .map(|((&j, max_new), gap)| {
            t += gap;
            let (shared, stream) = (j % 10 < 7, j < 10);
            let prompt = if shared {
                let mut p = system.clone();
                p.extend(src.tokens(suffix.next().expect("one suffix per shared request")));
                p
            } else {
                src.unique(unique.next().expect("one length per unique request"))
            };
            let decode = if !stream {
                Decode::TopP {
                    seed: src.rng.next_u64() >> 12,
                }
            } else {
                Decode::Greedy
            };
            Request {
                prompt,
                max_new,
                decode,
                stream,
                due_s: t,
                shared,
            }
        })
        .collect()
}

/// FNV-1a digest of token streams, in request order, so two commits can be
/// compared by one number.
pub fn digest<'a>(streams: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in streams {
        eat(s.len() as u64);
        for &t in s {
            eat(u64::from(t));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(edge_chat(5, 4), edge_chat(5, 4));
        assert_eq!(batch_prefill(5, 2), batch_prefill(5, 2));
        assert_eq!(serve_shared(5, 6.0, 10.0), serve_shared(5, 6.0, 10.0));
    }

    #[test]
    fn other_seed_other_inputs() {
        assert_ne!(edge_chat(5, 4), edge_chat(6, 4));
        assert_ne!(batch_prefill(5, 1), batch_prefill(6, 1));
        let (a, b) = (serve_shared(5, 6.0, 10.0), serve_shared(6, 6.0, 10.0));
        assert_ne!(a, b);
        let due = |r: &[Request]| r.iter().map(|q| q.due_s).collect::<Vec<_>>();
        assert_ne!(due(&a), due(&b), "arrival schedules must differ too");
    }

    #[test]
    fn prefix_of_longer_run_is_stable() {
        assert_eq!(edge_chat(9, 2)[..], edge_chat(9, 5)[..2]);
    }

    #[test]
    fn unique_prompts_never_share_a_first_token() {
        let reqs = edge_chat(1, 200);
        let firsts: std::collections::HashSet<u32> = reqs.iter().map(|r| r.prompt[0]).collect();
        assert_eq!(firsts.len(), reqs.len());
        let batches = batch_prefill(1, 3);
        assert!(batches
            .iter()
            .all(|b| b.len() == 8 && b.iter().filter(|r| r.decode != Decode::Greedy).count() == 1));
    }

    #[test]
    fn serve_mix_matches_its_definition() {
        let reqs = serve_shared(3, 4.0, 20.0);
        assert_eq!(reqs.len(), 80);
        let count = |f: &dyn Fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count();
        assert_eq!(count(&|r| r.shared), 56);
        assert_eq!(count(&|r| r.stream), 40);
        assert_eq!(count(&|r| r.decode != Decode::Greedy), 40);
        assert_eq!(count(&|r| r.stream && r.decode != Decode::Greedy), 0);
        assert_eq!(count(&|r| r.stream && r.shared), 28);
        let last = reqs.last().unwrap().due_s;
        assert!(
            (18.0..20.0).contains(&last),
            "schedule spans the window: {last}"
        );
        for r in &reqs {
            assert!((16..=32).contains(&r.max_new));
            if r.shared {
                assert_eq!(
                    r.prompt[..SYSTEM_PROMPT],
                    reqs[0..].iter().find(|q| q.shared).unwrap().prompt[..SYSTEM_PROMPT]
                );
                assert!((SYSTEM_PROMPT + 8..=SYSTEM_PROMPT + 24).contains(&r.prompt.len()));
            } else {
                assert!((16..=48).contains(&r.prompt.len()));
            }
        }
        assert!(reqs.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn other_seeds_keep_the_load_but_not_the_order() {
        let (a, b) = (serve_shared(1, 4.0, 20.0), serve_shared(2, 4.0, 20.0));
        let sorted = |r: &[Request], f: fn(&Request) -> usize| {
            let mut v: Vec<usize> = r.iter().map(f).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(&a, |q| q.prompt.len()),
            sorted(&b, |q| q.prompt.len())
        );
        assert_eq!(sorted(&a, |q| q.max_new), sorted(&b, |q| q.max_new));
        let span = |r: &[Request]| r.last().unwrap().due_s;
        assert!(
            (span(&a) - span(&b)).abs() < 1e-9,
            "same total schedule length"
        );
        assert_ne!(a[0].due_s, b[0].due_s);
    }

    #[test]
    fn digest_separates_streams() {
        let a: [&[u32]; 2] = [&[1, 2], &[3]];
        let b: [&[u32]; 2] = [&[1], &[2, 3]];
        assert_ne!(digest(a), digest(b));
        assert_eq!(digest(a), digest(a));
    }
}
