//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run -p dspgemm-bench --release --bin repro -- <experiment> [options]
//!
//! experiments:
//!   table1 fig3 fig4 fig5a fig5b fig6 fig7 fig8a fig8b fig9 fig10 fig11 fig12
//!   ablation-redist ablation-bloom ablation-agg analytics overlap serve
//!   faults transport
//!   data        (= table1 fig3 fig4 fig5a fig5b fig6 fig7 fig8a fig8b)
//!   spgemm      (= fig9 fig10 fig11 fig12)
//!   ablations   (= the three ablations)
//!   all         (= data spgemm ablations analytics)
//!
//! options:
//!   --divisor N       catalog scale-down divisor      (default 4096)
//!   --p N             simulated MPI ranks             (default 4; a positive
//!                     perfect square)
//!   --batches N       batches per instance            (default 10)
//!   --instances N     catalog instances to run        (default 6, max 12)
//!   --seed N          master seed                     (default fixed)
//!   --batch-size N    per-rank dynamic update batch   (default 4096;
//!                     the overlap arms)
//!   --smoke           tiny configuration for CI; the base every other
//!                     flag applies to, wherever it stands
//!   --trace-out F     enable the span tracer; write a Chrome trace_event
//!                     JSON (chrome://tracing / Perfetto) covering every
//!                     experiment run, then schema-validate it
//! ```

use dspgemm_bench::experiments::{
    ablations, analytics, construction, faults, overlap, serve, spgemm, table1, transport, updates,
};
use dspgemm_bench::Config;
use std::path::PathBuf;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig3|fig4|fig5a|fig5b|fig6|fig7|fig8a|fig8b|fig9|fig10|fig11|fig12|ablation-redist|ablation-bloom|ablation-agg|analytics|overlap|serve|faults|transport|data|spgemm|ablations|all> [--divisor N] [--p N] [--batches N] [--instances N] [--seed N] [--batch-size N] [--smoke] [--trace-out FILE]"
    );
    std::process::exit(2);
}

const DATA: [&str; 9] = [
    "table1", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8a", "fig8b",
];
const SPGEMM: [&str; 4] = ["fig9", "fig10", "fig11", "fig12"];
const ABLATIONS: [&str; 3] = ["ablation-redist", "ablation-bloom", "ablation-agg"];

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    cfg: Config,
    /// Experiment names, groups expanded, in command-line order.
    experiments: Vec<String>,
    trace_out: Option<PathBuf>,
}

/// The value following `flag`, parsed.
fn value<T: FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

/// Parses the arguments after the program name. `--smoke` selects the base
/// configuration before any other flag applies, so flag order never matters.
/// Every experiment runs on a square process grid, so a `--p` that is not a
/// positive perfect square is an error here rather than a panic mid-run.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        Config::smoke()
    } else {
        Config::default()
    };
    let (mut experiments, mut trace_out) = (Vec::new(), None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--divisor" => cfg.divisor = value(arg, it.next())?,
            "--p" => cfg.p = value(arg, it.next())?,
            "--batches" => cfg.batches = value(arg, it.next())?,
            "--instances" => cfg.instances = value(arg, it.next())?,
            "--seed" => cfg.seed = value(arg, it.next())?,
            "--batch-size" => cfg.batch_size = value(arg, it.next())?,
            "--trace-out" => trace_out = Some(value(arg, it.next())?),
            "--smoke" => {}
            "data" => experiments.extend(DATA),
            "spgemm" => experiments.extend(SPGEMM),
            "ablations" => experiments.extend(ABLATIONS),
            "all" => experiments.extend([&DATA[..], &SPGEMM, &ABLATIONS, &["analytics"]].concat()),
            name if !name.starts_with("--") => experiments.push(name),
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    if experiments.is_empty() {
        return Err("no experiment given".into());
    }
    let q = cfg.p.isqrt();
    if cfg.p == 0 || q * q != cfg.p {
        return Err(format!("--p {} is not a positive perfect square", cfg.p));
    }
    Ok(Cli {
        cfg,
        experiments: experiments.into_iter().map(String::from).collect(),
        trace_out,
    })
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
    let Cli {
        cfg,
        mut experiments,
        trace_out,
    } = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    if tcp_child() {
        experiments.retain(|e| e == "transport");
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
    for e in experiments {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_order_does_not_change_the_config() {
        let cli = parse(&args("faults --seed 11 --smoke --p 9")).expect("valid");
        assert_eq!((cli.cfg.seed, cli.cfg.p), (11, 9));
        assert_eq!(cli.cfg.divisor, Config::smoke().divisor);
        for line in [
            "--smoke faults --seed 11 --p 9",
            "--p 9 --seed 11 faults --smoke",
            "--seed 11 --smoke --p 9 faults",
        ] {
            assert_eq!(parse(&args(line)).expect("valid"), cli, "{line}");
        }
        let full = "serve --divisor 8 --p 16 --batches 3 --instances 1 --seed 5 --batch-size 64 \
                    --trace-out t.json";
        let cli = parse(&args(full)).expect("valid");
        let want = Config {
            divisor: 8,
            p: 16,
            batches: 3,
            instances: 1,
            seed: 5,
            batch_size: 64,
        };
        assert_eq!(cli.cfg, want);
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for line in [
            "faults --bogus 3",
            "faults --p",
            "faults --p four",
            "faults --p 0",
            "faults --p 3",
            "faults --crash-batch 1",
            "--smoke",
            "",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} parsed");
        }
    }

    #[test]
    fn groups_expand_in_place() {
        let cli = parse(&args("faults all overlap")).expect("valid");
        let mut want = vec!["faults"];
        want.extend(DATA.iter().chain(&SPGEMM).chain(&ABLATIONS));
        want.extend(["analytics", "overlap"]);
        assert_eq!(cli.experiments, want);
    }
}
