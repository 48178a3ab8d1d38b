//! `tmac_serve` — the serving daemon: loads (or synthesizes) a model and
//! exposes it over HTTP until SIGINT/SIGTERM triggers a graceful drain.
//!
//! ```text
//! tmac_convert --in m.gguf --out m.tmac     # once
//! tmac_serve --model m.tmac --addr 127.0.0.1:8080
//! curl -N localhost:8080/v1/completions -d '{"prompt":[1,2,3],"stream":true}'
//! ```
//!
//! Flags: `--model tiny|<path.tmac|.gguf>` (synthetic tiny model or a
//! container; containers resolve `--backend <registry name>`),
//! `--addr host:port` (default `127.0.0.1:8080`), `--threads N` (step-loop
//! ExecCtx threads), `--batch B` (KV slots), `--pending Q` (admission queue
//! bound; 0 = unbounded), `--mode auto|epoll|threads` (connection driver),
//! `--max-tokens N` (default when a request omits `max_tokens`),
//! `--deadline-ms D` (default deadline; 0 = none), `--kv f32|i8`,
//! `--trace-out DIR` (dump the in-memory span rings as Chrome-trace JSON
//! into `DIR` on every SIGUSR1 and once more when the drain completes;
//! load the files in Perfetto or `chrome://tracing`).
//!
//! On SIGINT or SIGTERM the server stops accepting, finishes every
//! in-flight sequence, then exits 0 (second signal: immediate abort).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use tmac_core::ExecCtx;
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{
    BackendKind, BackendRegistry, KvPrecision, LoadMode, Model, ModelConfig, WeightQuant,
};
use tmac_serve::{ConnMode, ServerConfig};

static SIGNALS: AtomicU32 = AtomicU32::new(0);
static TRACE_DUMPS: AtomicU32 = AtomicU32::new(0);

#[cfg(unix)]
fn install_signal_handlers() {
    use std::os::raw::c_int;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: c_int) {
        SIGNALS.fetch_add(1, Ordering::SeqCst);
    }
    extern "C" fn on_sigusr1(_sig: c_int) {
        TRACE_DUMPS.fetch_add(1, Ordering::SeqCst);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    const SIGUSR1: c_int = 10;
    // SAFETY: the handlers are async-signal-safe (one atomic add each) and
    // `extern "C"` with the signature `signal` expects.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGUSR1, on_sigusr1 as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Writes the current span rings to `dir/trace-<n>.json` (Chrome Trace
/// Event Format). Serving continues; the rings are not reset, so later
/// dumps are supersets until the per-thread buffers wrap.
fn dump_trace(dir: &str, n: u32) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("tmac_serve: cannot create --trace-out dir {dir:?}: {e}");
        return;
    }
    let path = format!("{dir}/trace-{n}.json");
    match std::fs::write(&path, tmac_trace::chrome_trace_json()) {
        Ok(()) => eprintln!("tmac_serve: wrote {path}"),
        Err(e) => eprintln!("tmac_serve: cannot write {path}: {e}"),
    }
}

fn main() {
    let model_name = tmac_eval::arg("model", "tiny");
    let addr = tmac_eval::arg("addr", "127.0.0.1:8080");
    let threads: usize = tmac_eval::arg("threads", "1").parse().expect("--threads");
    let max_batch: usize = tmac_eval::arg("batch", "4").parse().expect("--batch");
    let max_pending: usize = tmac_eval::arg("pending", "64").parse().expect("--pending");
    let default_max_tokens: usize = tmac_eval::arg("max-tokens", "16")
        .parse()
        .expect("--max-tokens");
    let default_deadline_ms: u64 = tmac_eval::arg("deadline-ms", "0")
        .parse()
        .expect("--deadline-ms");
    let mode = match tmac_eval::arg("mode", "auto").as_str() {
        "auto" => ConnMode::Auto,
        "epoll" => ConnMode::Epoll,
        "threads" => ConnMode::Threads,
        other => panic!("unknown --mode {other:?} (auto|epoll|threads)"),
    };
    let kv = match tmac_eval::arg("kv", "f32").as_str() {
        "f32" => KvPrecision::F32,
        "i8" => KvPrecision::I8,
        other => panic!("unknown --kv {other:?} (f32|i8)"),
    };
    let trace_out = tmac_eval::arg("trace-out", "");

    let from_file = ["tmac", "gguf"]
        .iter()
        .any(|ext| model_name.ends_with(&format!(".{ext}")));
    let mut model = if from_file {
        let backend = tmac_eval::arg("backend", "tmac");
        let builder = BackendRegistry::with_defaults()
            .get(&backend)
            .unwrap_or_else(|| panic!("unknown --backend {backend:?}"));
        let t0 = std::time::Instant::now();
        let model = Model::from_file(
            std::path::Path::new(&model_name),
            builder.as_ref(),
            LoadMode::Mmap,
        )
        .expect("load model container");
        eprintln!(
            "loaded {} from {model_name} in {:.3}s ({} backend)",
            model.cfg.name,
            t0.elapsed().as_secs_f64(),
            model.backend_label()
        );
        model
    } else {
        assert_eq!(
            model_name, "tiny",
            "--model must be tiny or a .tmac/.gguf path"
        );
        Model::synthetic(
            &ModelConfig::tiny().scaled(2, 96, 256),
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            7,
        )
        .expect("synthetic model")
    };
    model.cfg.kv_precision = kv;

    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            max_pending,
            ..SchedulerConfig::default()
        },
    );
    install_signal_handlers();
    let server = tmac_serve::start(
        sched,
        ExecCtx::new(threads),
        ServerConfig {
            addr,
            mode,
            default_max_tokens,
            default_deadline_ms,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    eprintln!(
        "tmac_serve listening on http://{} ({} slots, {} queue, {} thread(s))",
        server.addr(),
        max_batch,
        max_pending,
        threads
    );

    let mut dumps_seen = 0u32;
    while SIGNALS.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(100));
        // SIGUSR1: snapshot the trace without disturbing serving.
        let dumps = TRACE_DUMPS.load(Ordering::SeqCst);
        if dumps > dumps_seen && !trace_out.is_empty() {
            for n in dumps_seen..dumps {
                dump_trace(&trace_out, n);
            }
        }
        dumps_seen = dumps;
    }
    eprintln!("tmac_serve: draining (signal again to abort)...");
    server.drain();
    // Poll for a second signal while the drain completes.
    let abort = std::thread::spawn({
        let metrics = server.metrics();
        move || {
            while SIGNALS.load(Ordering::SeqCst) < 2 {
                std::thread::sleep(Duration::from_millis(50));
                // The drain is done once nothing is queued, active, or open.
                if metrics.queue_depth.get() == 0
                    && metrics.active_seqs.get() == 0
                    && metrics.connections.get() == 0
                {
                    return false;
                }
            }
            true
        }
    });
    if abort.join().unwrap_or(true) {
        eprintln!("tmac_serve: aborting");
        server.abort();
    } else {
        server.join();
    }
    // Final snapshot once all in-flight work has finished, so a plain
    // SIGTERM run still leaves a loadable trace behind.
    if !trace_out.is_empty() {
        dump_trace(&trace_out, dumps_seen);
    }
    eprintln!("tmac_serve: bye");
}
