//! Turns the ranks' reports into the named metrics: the five end-to-end
//! numbers of an untraced run, the per-layer table of a traced one.
//!
//! Clocks are read on rank 0 (the rank that times the round); counts are
//! summed over the ranks.

use crate::report::{RankReport, Span, NAMES, NO_PARENT};
use crate::stats::{median, quantile};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn total(reports: &[RankReport], name: &str) -> f64 {
    reports.iter().map(|r| r.get(name)).sum()
}

/// `peak_rss_mb`: simulated ranks share one process, TCP ranks do not.
fn peak_rss_mib(reports: &[RankReport], tcp: bool) -> f64 {
    let kib = if tcp {
        total(reports, "vm_hwm_kib")
    } else {
        reports[0].get("vm_hwm_kib")
    };
    kib / 1024.0
}

/// The round latency the end-to-end gate is built on: each sampled round
/// over the calibration round that followed it, then the median. The shared
/// 2-vCPU host changes speed by up to 1.7 x for minutes at a time; across such
/// a change ten runs of one binary gave the plain median an interquartile
/// distance of 19-33 % of itself, the 10th percentile 16-42 %, this ratio
/// 3-7 % on the simulator workloads and 9-16 % on `ingest-tcp`.
fn relative_round_p50(rounds: &[f64], calib: &[f64]) -> f64 {
    assert_eq!(rounds.len(), calib.len(), "one calibration round per round");
    let rel: Vec<f64> = rounds.iter().zip(calib).map(|(r, c)| r / c).collect();
    median(&rel)
}

pub fn end_to_end(reports: &[RankReport], tcp: bool) -> Vec<Metric> {
    let r0 = &reports[0];
    let rounds = r0.series("round_ms");
    let batches = rounds.len() as f64;
    vec![
        m(
            "batch_rel_p50",
            "1",
            relative_round_p50(rounds, r0.series("calib_ms")),
        ),
        m("setup_s", "s", median(r0.series("setup_s"))),
        m("peak_rss_mb", "MiB", peak_rss_mib(reports, tcp)),
        m(
            "wire_bytes_per_batch",
            "B",
            total(reports, "bytes") / batches,
        ),
        m("wire_msgs_per_batch", "1", total(reports, "msgs") / batches),
    ]
}

/// Per traced round of one rank: summed self time by span name, plus what
/// the round's top-level spans and its probes add up to.
struct RoundTimes {
    self_ms: Vec<f64>,
    wall_ms: f64,
    top_level_ms: f64,
    probes_ms: f64,
}

impl RoundTimes {
    fn of(&self, name: &str) -> f64 {
        self.self_ms[NAMES.iter().position(|n| *n == name).expect("listed")]
    }

    /// The round without the stages that were run a second time to be seen.
    fn net_ms(&self) -> f64 {
        self.wall_ms - self.probes_ms
    }
}

fn is_probe(s: &Span) -> bool {
    s.name().starts_with("probe.")
}

fn round_times(spans: &[Span]) -> Vec<RoundTimes> {
    let mut self_ms: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            self_ms[s.parent as usize] -= s.ms();
        }
    }
    let mut rounds = Vec::new();
    for (id, round) in spans.iter().enumerate() {
        if round.name() != "round" {
            continue;
        }
        let mut rt = RoundTimes {
            self_ms: vec![0.0; NAMES.len()],
            wall_ms: round.ms(),
            top_level_ms: 0.0,
            probes_ms: 0.0,
        };
        for (i, s) in spans.iter().enumerate() {
            if s.round != round.round || i == id || s.name() == "round" {
                continue;
            }
            rt.self_ms[s.name as usize] += self_ms[i];
            if is_probe(s) {
                rt.probes_ms += s.ms();
            } else if s.parent == id as u32 {
                rt.top_level_ms += s.ms();
            }
        }
        rounds.push(rt);
    }
    rounds
}

fn p50(rounds: &[RoundTimes], f: impl Fn(&RoundTimes) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Median duration in ms over every span called `name`; 0 when the workload
/// never opens one.
fn span_ms_p50(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name() == name)
        .map(Span::ms)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// What only the parent of a TCP job knows.
#[derive(Default)]
pub struct Transport {
    /// Socket frames the whole job wrote.
    pub frames: f64,
    /// Round p50 of the same workload on the simulator, in ms.
    pub sim_batch_ms_p50: f64,
}

pub fn per_layer(reports: &[RankReport], transport: &Transport) -> Vec<Metric> {
    let r0 = &reports[0];
    let untraced = r0.series("round_ms");
    let traced = r0.series("traced.round_ms");
    let batches = untraced.len() as f64;
    let traced_batches = traced.len() as f64;
    let rounds = round_times(&r0.spans);
    let per_traced = |name: &str| total(reports, name) / traced_batches;

    let redistribute_ms = p50(&rounds, |r| r.of("probe.redistribute"));
    let build_ms = p50(&rounds, |r| r.of("update.build") + r.of("probe.prepare"));
    let apply_ms = p50(&rounds, |r| r.of("update.apply"));
    let publish = |r: &RoundTimes| r.of("probe.publish");
    let queries = |r: &RoundTimes| r.of("analytics.point_query") + r.of("analytics.topk");

    // Per-rank busy time between the fences, over the untraced rounds.
    let busy: Vec<&[f64]> = reports.iter().map(|r| r.series("busy_ms")).collect();
    let imbalance: Vec<f64> = (0..untraced.len())
        .map(|i| {
            let b: Vec<f64> = busy.iter().map(|s| s[i]).collect();
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            b.iter().cloned().fold(0.0, f64::max) / mean
        })
        .collect();
    let fence_wait: Vec<f64> = (0..untraced.len())
        .map(|i| untraced[i] - busy.iter().map(|s| s[i]).sum::<f64>() / busy.len() as f64)
        .collect();
    let exposed = total(reports, "exposed_ns");
    let overlapped = total(reports, "overlapped_ns");
    let ranks = reports.len() as f64;
    let flops = total(reports, "flops");

    vec![
        m(
            "graph.generate_s",
            "s",
            span_ms_p50(&r0.spans, "graph.generate") / 1e3,
        ),
        m(
            "distmat.construct_s",
            "s",
            span_ms_p50(&r0.spans, "distmat.construct") / 1e3,
        ),
        m(
            "summa.initial_s",
            "s",
            span_ms_p50(&r0.spans, "summa.initial") / 1e3,
        ),
        m(
            "summa.initial_flops",
            "count",
            total(reports, "summa.initial_flops"),
        ),
        m("redistribute.ms_p50", "ms", redistribute_ms),
        m(
            "redistribute.mtuples_per_s",
            "1/s",
            if redistribute_ms > 0.0 {
                per_traced("redistribute.tuples") / 1e6 / (redistribute_ms / 1e3)
            } else {
                0.0
            },
        ),
        m(
            "redistribute.bytes_per_batch",
            "B",
            per_traced("redistribute.bytes"),
        ),
        m(
            "redistribute.msgs_per_batch",
            "count",
            per_traced("redistribute.msgs"),
        ),
        m("update.build_ms_p50", "ms", build_ms),
        m("update.apply_ms_p50", "ms", apply_ms),
        m(
            "update.star_nnz_per_batch",
            "count",
            per_traced("update.star_nnz"),
        ),
        m(
            "update.round_share",
            "1",
            p50(&rounds, |r| {
                (r.of("probe.redistribute")
                    + r.of("update.build")
                    + r.of("probe.prepare")
                    + r.of("update.apply"))
                    / r.net_ms()
            }),
        ),
        m(
            "dyn_algebraic.apply_ms_p50",
            "ms",
            p50(&rounds, |r| r.of("dyn_algebraic.apply")),
        ),
        m(
            "dyn_algebraic.bcast_bytes_per_batch",
            "B",
            per_traced("dyn_algebraic.bcast_bytes"),
        ),
        m(
            "dyn_algebraic.reduce_bytes_per_batch",
            "B",
            per_traced("dyn_algebraic.reduce_bytes"),
        ),
        m(
            "dyn_general.apply_ms_p50",
            "ms",
            p50(&rounds, |r| r.of("dyn_general.apply")),
        ),
        m(
            "dyn_general.bytes_per_batch",
            "B",
            per_traced("dyn_general.bytes"),
        ),
        m("local_mm.flops_per_batch", "count", flops / batches),
        m(
            "local_mm.spgemm_mflops_per_s",
            "1/s",
            r0.get("local_mm.spgemm_mflops_per_s"),
        ),
        m(
            "local_mm.masked_mflops_per_s",
            "1/s",
            r0.get("local_mm.masked_mflops_per_s"),
        ),
        m(
            "dhb.insert_mtuples_per_s",
            "1/s",
            r0.get("dhb.insert_mtuples_per_s"),
        ),
        m(
            "dhb.to_csr_mnnz_per_s",
            "1/s",
            r0.get("dhb.to_csr_mnnz_per_s"),
        ),
        m(
            "sort.counting_sort_mtuples_per_s",
            "1/s",
            r0.get("sort.counting_sort_mtuples_per_s"),
        ),
        m("snapshot.publish_ms_p50", "ms", p50(&rounds, publish)),
        m(
            "snapshot.publish_share",
            "1",
            p50(&rounds, |r| publish(r) / r.net_ms()),
        ),
        m(
            "snapshot.publishes_per_batch",
            "count",
            r0.get("epochs") / batches,
        ),
        m(
            "snapshot.retained_epochs",
            "count",
            r0.get("snapshot.retained_epochs"),
        ),
        m(
            "snapshot.live_mb",
            "MiB",
            total(reports, "snapshot.live_bytes") / (1 << 20) as f64,
        ),
        m(
            "analytics.point_query_us_p50",
            "us",
            span_ms_p50(&r0.spans, "analytics.point_query") * 1e3,
        ),
        m(
            "analytics.topk_us_p50",
            "us",
            span_ms_p50(&r0.spans, "analytics.topk") * 1e3,
        ),
        m(
            "analytics.query_share",
            "1",
            p50(&rounds, |r| queries(r) / r.net_ms()),
        ),
        m(
            "mpisim.exposed_wait_ms_per_batch",
            "ms",
            exposed / 1e6 / ranks / batches,
        ),
        m(
            "mpisim.overlap_ratio",
            "1",
            if exposed + overlapped > 0.0 {
                overlapped / (exposed + overlapped)
            } else {
                0.0
            },
        ),
        m(
            "mpisim.alltoallv_floor_ms",
            "ms",
            r0.get("mpisim.alltoallv_floor_ms"),
        ),
        m(
            "mpisim.bcast_floor_ms",
            "ms",
            r0.get("mpisim.bcast_floor_ms"),
        ),
        // The job's frames are only known as a total; a batch's share of
        // them is its share of the job's messages.
        m(
            "mpisim.tcp_frames_per_batch",
            "count",
            if transport.frames > 0.0 {
                transport.frames * total(reports, "all_msgs") / total(reports, "job_msgs") / batches
            } else {
                0.0
            },
        ),
        m(
            "mpisim.tcp_overhead_ratio",
            "1",
            if transport.sim_batch_ms_p50 > 0.0 {
                median(untraced) / transport.sim_batch_ms_p50
            } else {
                0.0
            },
        ),
        m(
            "wire.encode_mb_per_s",
            "MB/s",
            r0.get("wire.encode_mb_per_s"),
        ),
        m(
            "wire.decode_mb_per_s",
            "MB/s",
            r0.get("wire.decode_mb_per_s"),
        ),
        m(
            "engine.batch_rel_p50",
            "1",
            relative_round_p50(untraced, r0.series("calib_ms")),
        ),
        m("engine.calib_ms_p50", "ms", median(r0.series("calib_ms"))),
        m(
            "engine.updates_per_s",
            "1/s",
            total(reports, "updates") / (untraced.iter().sum::<f64>() / 1e3),
        ),
        m("engine.batch_ms_p50", "ms", median(untraced)),
        m("engine.batch_ms_p95", "ms", quantile(untraced, 0.95)),
        m("engine.batch_samples", "count", batches),
        m("engine.rank_imbalance", "1", median(&imbalance)),
        m("engine.fence_wait_ms_p50", "ms", median(&fence_wait)),
        m(
            "engine.unattributed_share",
            "1",
            p50(&rounds, |r| (r.net_ms() - r.top_level_ms) / r.net_ms()),
        ),
        m(
            "trace.overhead_ratio",
            "1",
            median(traced) / median(untraced),
        ),
    ]
}

/// A chrome-trace (`chrome://tracing`, Perfetto) rendering of every rank's
/// spans: one thread per rank, the round number as the shared identifier.
pub fn chrome_trace(reports: &[RankReport]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (rank, rep) in reports.iter().enumerate() {
        for (id, s) in rep.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{rank},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"round\":{},\"span\":{id},\"parent\":{parent}}}}}",
                s.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round,
            ));
        }
    }
    out.push_str("\n]\n");
    out
}
