//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run -p dspgemm-bench --release --bin repro -- <experiment> [options]
//!
//! experiments:
//!   table1 fig3 fig4 fig5a fig5b fig6 fig7 fig8a fig8b fig9 fig10 fig11 fig12
//!   ablation-redist ablation-bloom ablation-agg analytics overlap serve rebalance faults transport
//!   data        (= table1 fig3 fig4 fig5a fig5b fig6 fig7 fig8a fig8b)
//!   spgemm      (= fig9 fig10 fig11 fig12)
//!   ablations   (= the three ablations)
//!   all         (= everything)
//!
//! options:
//!   --divisor N       catalog scale-down divisor      (default 4096)
//!   --p N             simulated MPI ranks             (default 4, square)
//!   --batches N       batches per instance            (default 10)
//!   --instances N     catalog instances to run        (default 6, max 12)
//!   --seed N          master seed                     (default fixed)
//!   --batch-size N    per-rank dynamic update batch   (default 4096;
//!                     the overlap arms)
//!   --rebalance-threshold X   max/mean load imbalance above which the
//!                     adaptive arm of `rebalance` migrates (default 1.5)
//!   --rebalance-cooldown N    min epochs between migrations (default 2)
//!   --crash-batch N   batch at which the crash arm of `faults` kills a
//!                     rank (default 1; >= --batches disables the crash)
//!   --anchor-period N committed epochs between recovery anchors in
//!                     `faults` (default 2)
//!   --smoke           tiny configuration for CI
//!   --trace-out F     enable the span tracer; write a Chrome trace_event
//!                     JSON (chrome://tracing / Perfetto) covering every
//!                     experiment run, then schema-validate it
//! ```

use dspgemm_bench::experiments::{
    ablations, analytics, construction, faults, overlap, rebalance, serve, spgemm, table1,
    transport, updates,
};
use dspgemm_bench::Config;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig3|fig4|fig5a|fig5b|fig6|fig7|fig8a|fig8b|fig9|fig10|fig11|fig12|ablation-redist|ablation-bloom|ablation-agg|analytics|overlap|serve|rebalance|faults|transport|data|spgemm|ablations|all> [--divisor N] [--p N] [--batches N] [--instances N] [--seed N] [--batch-size N] [--rebalance-threshold X] [--rebalance-cooldown N] [--smoke] [--trace-out FILE]"
    );
    std::process::exit(2);
}

/// True when this process is a re-executed TCP rank child of the
/// `transport` experiment (feature `tcp-transport`): parent-only output is
/// suppressed and only the transport path runs — it routes the child to
/// its rank body, which exits the process.
fn tcp_child() -> bool {
    #[cfg(feature = "tcp-transport")]
    {
        dspgemm_mpi::tcp::is_child()
    }
    #[cfg(not(feature = "tcp-transport"))]
    {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut cfg = Config::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--divisor" => {
                cfg.divisor = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--p" => {
                cfg.p = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--batches" => {
                cfg.batches = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--instances" => {
                cfg.instances = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--seed" => {
                cfg.seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--batch-size" => {
                cfg.batch_size = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--rebalance-threshold" => {
                cfg.rebalance_threshold = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--rebalance-cooldown" => {
                cfg.rebalance_cooldown = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--crash-batch" => {
                cfg.crash_batch = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--anchor-period" => {
                cfg.anchor_period = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 1;
            }
            "--smoke" => {
                let keep = (
                    cfg.rebalance_threshold,
                    cfg.rebalance_cooldown,
                    cfg.crash_batch,
                    cfg.anchor_period,
                );
                cfg = Config::smoke();
                (
                    cfg.rebalance_threshold,
                    cfg.rebalance_cooldown,
                    cfg.crash_batch,
                    cfg.anchor_period,
                ) = keep;
            }
            "--trace-out" => {
                trace_out = Some(args.get(i + 1).map(Into::into).unwrap_or_else(|| usage()));
                i += 1;
            }
            other if !other.starts_with("--") => experiments.push(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if experiments.is_empty() {
        usage();
    }
    // Expand groups.
    let mut expanded = Vec::new();
    for e in experiments {
        match e.as_str() {
            "data" => expanded.extend(
                [
                    "table1", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b",
                ]
                .map(String::from),
            ),
            "spgemm" => expanded.extend(["fig9", "fig10", "fig11", "fig12"].map(String::from)),
            "ablations" => expanded
                .extend(["ablation-redist", "ablation-bloom", "ablation-agg"].map(String::from)),
            "all" => expanded.extend(
                [
                    "table1",
                    "fig3",
                    "fig4",
                    "fig5a",
                    "fig5b",
                    "fig6",
                    "fig7",
                    "fig8a",
                    "fig8b",
                    "fig9",
                    "fig10",
                    "fig11",
                    "fig12",
                    "ablation-redist",
                    "ablation-bloom",
                    "ablation-agg",
                    "analytics",
                ]
                .map(String::from),
            ),
            _ => expanded.push(e),
        }
    }
    if tcp_child() {
        expanded.retain(|e| e == "transport");
    }
    // One switch arms the whole observability layer: every span and
    // instant lands in the trace export.
    if trace_out.is_some() {
        dspgemm_obs::set_enabled(true);
    }
    if !tcp_child() {
        println!(
            "# dspgemm repro — divisor={} p={} batches={} instances={} seed={:#x}",
            cfg.divisor, cfg.p, cfg.batches, cfg.instances, cfg.seed
        );
    }
    for e in expanded {
        let started = std::time::Instant::now();
        let table = match e.as_str() {
            "table1" => table1::run(&cfg),
            "fig3" => construction::run(&cfg),
            "fig4" => updates::batch_size_sweep(&cfg, updates::Mode::Insert),
            "fig5a" => updates::batch_size_sweep(&cfg, updates::Mode::Update),
            "fig5b" => updates::batch_size_sweep(&cfg, updates::Mode::Delete),
            "fig6" => updates::fig6(&cfg),
            "fig7" => updates::fig7(&cfg),
            "fig8a" => updates::fig8(&cfg, false),
            "fig8b" => updates::fig8(&cfg, true),
            "fig9" => spgemm::fig9(&cfg),
            "fig10" => spgemm::fig10(&cfg),
            "fig11" => spgemm::fig11(&cfg),
            "fig12" => spgemm::fig12(&cfg),
            "analytics" => analytics::run(&cfg),
            "overlap" => overlap::run(&cfg),
            "rebalance" => rebalance::run(&cfg),
            "faults" => faults::run(&cfg),
            "transport" => {
                println!("{}\n", transport::run(&cfg));
                transport::codec_rates(&cfg)
            }
            "serve" => serve::run(&cfg),
            "ablation-redist" => ablations::redistribution(&cfg),
            "ablation-bloom" => ablations::bloom_filter(&cfg),
            "ablation-agg" => ablations::aggregation(&cfg),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        };
        println!("{table}");
        println!(
            "  (experiment wall time: {:.1} s)\n",
            started.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = &trace_out {
        dspgemm_obs::set_enabled(false);
        let events = dspgemm_obs::drain();
        if let Err(e) = dspgemm_obs::write_chrome_trace(path, &events) {
            eprintln!("error: writing trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        // Self-check the export: well-formed events, monotone
        // timestamps, matched B/E pairs.
        match dspgemm_obs::validate_chrome_trace_file(path) {
            Ok(s) => println!(
                "# trace: {} events ({} spans, {} instants, {:.1} ms) -> {}",
                s.events,
                s.spans,
                s.instants,
                s.max_ts_us / 1e3,
                path.display()
            ),
            Err(e) => {
                eprintln!("error: emitted trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
}
