//! The repository's benchmark: round latency, update rate and wire volume
//! through `DynSpGemm`, one workload per process.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload and
//! prints, as the last line of standard output, one JSON object with the
//! verdict and the metrics: the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`. See `benchmark/README.md`.

mod api;
mod calib;
mod driver;
mod input;
mod layers;
mod report;
mod stats;
mod workloads;

use driver::{rank_main, Plan};
use input::RANKS;
use layers::{Metric, Transport};
use report::RankReport;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{AlgInsert, GenMixed, Ingest, ServePublish, Workload};

/// A run is sized to stay under 40 s on a slow pass; past this it is hung.
const WATCHDOG: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    plan: Plan,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dspgemm-benchmark [--workload] ingest-tcp|alg-insert|gen-mixed|serve-publish \
         [--seed N] [--seconds S] [--trace 0|1 | --traced] [--trace-out FILE] [--smoke] [--corrupt]"
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        workload: String::new(),
        plan: Plan {
            seed: 1,
            seconds: driver::NOMINAL_SECONDS,
            trace: false,
            smoke: false,
            corrupt: false,
            setups: 3,
        },
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.plan.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.plan.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.plan.trace = value() == "1",
            "--traced" => args.plan.trace = true,
            "--trace-out" => args.trace_out = Some(value()),
            "--smoke" => args.plan.smoke = true,
            "--corrupt" => args.plan.corrupt = true,
            name if !name.starts_with('-') && args.workload.is_empty() => {
                args.workload = name.to_string()
            }
            _ => usage(),
        }
    }
    if !(1..=60).contains(&args.plan.seconds) {
        usage();
    }
    // `setup_s` is an end-to-end metric; only untraced full-size runs pay
    // for the repetitions behind its median.
    if args.plan.trace || args.plan.smoke {
        args.plan.setups = 1;
    }
    args
}

/// Exits a process whose ranks hang.
fn arm_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("dspgemm-benchmark: watchdog: no result after {WATCHDOG:?}");
        std::process::exit(3);
    });
}

/// Kills rank children a killed parent left behind: processes of this
/// binary that carry a rank in their environment and whose parent is not a
/// run of this binary.
fn sweep_leaked_children() {
    let (Ok(me), Ok(proc_dir)) = (std::env::current_exe(), std::fs::read_dir("/proc")) else {
        return;
    };
    let is_me = |pid: &str| std::fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|e| e == me);
    for entry in proc_dir.flatten() {
        let pid = entry.file_name().to_string_lossy().into_owned();
        if !pid.bytes().all(|b| b.is_ascii_digit()) || !is_me(&pid) {
            continue;
        }
        let is_rank = std::fs::read(format!("/proc/{pid}/environ")).is_ok_and(|env| {
            env.split(|b| *b == 0)
                .any(|kv| kv.starts_with(b"DSPGEMM_TCP_RANK="))
        });
        let parent = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|stat| {
                // pid (comm) state ppid ...; comm may hold spaces.
                let rest = stat.rsplit_once(") ")?.1.to_string();
                rest.split(' ').nth(1).map(str::to_string)
            });
        let orphan = parent.is_some_and(|ppid| !is_me(&ppid));
        if is_rank && orphan {
            eprintln!("dspgemm-benchmark: killing leaked rank process {pid}");
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
        }
    }
}

struct Outcome {
    reports: Vec<RankReport>,
    tcp: bool,
    transport: Transport,
}

fn run<W: Workload>(plan: &Plan) -> Outcome {
    // The parent of a TCP job needs no watchdog while the mesh runs: the
    // mesh deadline kills and reaps the children first.
    if !W::TCP || api::is_tcp_child() {
        arm_watchdog();
    }
    if W::TCP {
        let p = plan.clone();
        let (reports, frames) =
            api::run_tcp_world(RANKS, WATCHDOG, move |comm| rank_main::<W>(comm, &p));
        arm_watchdog();
        // The traced run repeats the untraced half on the simulator: the
        // ratio is what sockets and the codec cost this workload.
        let sim_batch_ms_p50 = if plan.trace {
            let sim = api::run_sim(RANKS, |comm| {
                let mut p = plan.clone();
                p.seconds = p.seconds.div_ceil(2);
                p.trace = false;
                rank_main::<W>(comm, &p)
            });
            stats::median(sim[0].series("round_ms"))
        } else {
            0.0
        };
        Outcome {
            reports,
            tcp: true,
            transport: Transport {
                frames: frames as f64,
                sim_batch_ms_p50,
            },
        }
    } else {
        Outcome {
            reports: api::run_sim(RANKS, |comm| rank_main::<W>(comm, plan)),
            tcp: false,
            transport: Transport::default(),
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = parse();
    let plan = &args.plan;
    // A rank child goes straight to its mesh; it never returns from `run`.
    if !api::is_tcp_child() {
        sweep_leaked_children();
    }
    let outcome = match args.workload.as_str() {
        Ingest::NAME => run::<Ingest>(plan),
        AlgInsert::NAME => run::<AlgInsert>(plan),
        GenMixed::NAME => run::<GenMixed>(plan),
        ServePublish::NAME => run::<ServePublish>(plan),
        _ => usage(),
    };
    let reports = &outcome.reports;

    let attempted =
        reports[0].series("round_ms").len() + reports[0].series("traced.round_ms").len();
    let failed_rounds: f64 = reports
        .iter()
        .map(|r| r.get("failed_rounds") + r.get("traced.failed_rounds"))
        .fold(0.0, f64::max);
    let oracle_ok = reports.iter().all(|r| r.get("oracle_ok") == 1.0);
    let failed = failed_rounds as u64 + u64::from(!oracle_ok);
    let correct = failed == 0;

    let metrics = if plan.trace {
        layers::per_layer(reports, &outcome.transport)
    } else {
        layers::end_to_end(reports, outcome.tcp)
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, layers::chrome_trace(reports)) {
            eprintln!("dspgemm-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // Every timing goes out with the number of samples behind it, and the
    // relative latency with the two clocks it is the ratio of.
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"ranks\": {RANKS}, \"cores\": {}, \
         \"rounds_attempted\": {attempted}, \"rounds_failed\": {failed}, \
         \"oracle_ok\": {oracle_ok}, \"batch_ms_p50\": {}, \"calib_ms_p50\": {}, \
         \"batch_samples\": {}, \"traced_batch_samples\": {}, \"setup_samples\": {}}}",
        args.workload,
        plan.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        stats::median(reports[0].series("round_ms")),
        stats::median(reports[0].series("calib_ms")),
        reports[0].series("round_ms").len(),
        reports[0].series("traced.round_ms").len(),
        reports[0].series("setup_s").len(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
