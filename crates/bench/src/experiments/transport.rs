//! Transport backend parity: the dynamic-SpGEMM batch stream on the
//! in-process simulator vs. real OS processes over the TCP mesh.
//!
//! The same SPMD program — construct `A`/`B` from an instance's edge
//! stream, run the initial SUMMA multiply, then drive a deterministic
//! sequence of algebraic update batches through [`DynSpGemm`], publishing
//! each epoch — runs once per backend at p ∈ {1, 4}:
//!
//! * **sim** — ranks are threads, messages move by pointer through
//!   channels (`dspgemm_mpi::run`); wire volume is metered logically.
//! * **tcp** — ranks are child processes of this binary (re-executed with
//!   the same argv) connected by a socket mesh; every remote payload
//!   round-trips through the length-prefixed wire codec.
//!
//! Hard invariants, asserted per world size:
//!
//! * the root-gathered final `C`, every rank's flop counter and the final
//!   epoch number are **bit-identical** across backends (updates use unit
//!   values, so `C` stays integer-valued in `f64` and the comparison is
//!   exact, not approximate), and so are the counters of every batch's
//!   [`BatchReport`](dspgemm_core::BatchReport), per rank and category;
//! * the logical wire volume (bytes and message counts, per rank per
//!   category) matches exactly — the TCP backend meters the same
//!   sender-side `WireSize` accounting as the simulator, so a divergence
//!   is a transport bug, not measurement noise;
//! * at p = 1 the TCP job writes **zero** socket frames: self-sends
//!   short-circuit through the local inbox exactly like the simulator.
//!
//! Without `--features tcp-transport` only the sim arm runs and the table
//! says how to enable the comparison.
//!
//! A second table, [`codec_rates`], times the `Dcsr` wire codec itself on the
//! two block shapes a batch ships — the volume those parity rows count is
//! only as cheap as the encoder, meter and decoder that produce it.

use crate::experiments::{
    batch_updates, edges_to_triples, prepare_instances, rank_slice, Prepared,
};
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::{DistMat, DynSpGemm, Grid};
use dspgemm_graph::Edge;
use dspgemm_mpi::{Comm, CommStats, RankCommStats};
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::{Dcsr, Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::{format_bytes, PhaseTimer};
use dspgemm_util::{decode_from_slice, encode_to_vec, WireSize};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one rank reports from a driven run: the root-gathered final `C`
/// (`Some` on rank 0), the local flop counter and the final epoch, then each
/// batch report's counters, timings zeroed. On the TCP backend this tuple
/// travels back over the control socket, so it must round-trip through the
/// wire codec — which it shares with the data mesh.
type TransportOutcome = (Option<Vec<Triple<f64>>>, (u64, u64), Vec<RankCommStats>);

/// The knobs both arms must agree on, derived from `cfg` once.
fn params(cfg: &Config, inst: &Prepared) -> (Index, u64, usize, u64) {
    (
        inst.n,
        cfg.batches.max(2) as u64,
        cfg.batch_size.min(512),
        cfg.seed,
    )
}

/// The SPMD body, identical on both backends: build, multiply, stream
/// update batches, publish, gather.
fn drive(
    n: Index,
    batches: u64,
    batch_size: usize,
    seed: u64,
    edges: &[Edge],
    comm: &Comm,
) -> TransportOutcome {
    let grid = Grid::new(comm);
    let me = comm.rank();
    let p = comm.size();
    let mut timer = PhaseTimer::new();
    let mine = edges_to_triples(&rank_slice(edges, me, p));
    let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
    let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
    let mut e = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
    let mut counters = Vec::new();
    for batch in 0..batches {
        let (a_ups, b_ups) = batch_updates(n, batch_size, seed, batch, me);
        let report = e.apply_algebraic(&grid, a_ups, b_ups);
        counters.push(RankCommStats {
            exposed_ns: 0,
            overlapped_ns: 0,
            ..report.comm
        });
        e.publish();
    }
    let final_c = e.c.gather_to_root(comm);
    let epoch = e.epoch().expect("published at least once");
    (final_c, (e.flops, epoch), counters)
}

/// The simulator arm.
fn sim_arm(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
) -> (Vec<TransportOutcome>, CommStats, Duration) {
    let (n, batches, batch_size, seed) = params(cfg, inst);
    let edges = &inst.edges;
    let started = Instant::now();
    let out = dspgemm_mpi::run(p, move |comm| {
        drive(n, batches, batch_size, seed, edges, comm)
    });
    (out.results, out.stats, started.elapsed())
}

/// The TCP arm: each rank is a re-executed child of this binary. In a
/// child process `run_tcp` never returns — the rank reports its outcome
/// over the control socket and exits inside the call.
#[cfg(feature = "tcp-transport")]
fn tcp_arm(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
    reexec: dspgemm_mpi::tcp::Reexec,
) -> (Vec<Option<TransportOutcome>>, CommStats, u64, Duration) {
    use dspgemm_mpi::tcp::{run_tcp, TcpConfig};
    let (n, batches, batch_size, seed) = params(cfg, inst);
    let edges = inst.edges.clone();
    let started = Instant::now();
    let out = run_tcp(reexec, TcpConfig::new(p), move |comm| {
        drive(n, batches, batch_size, seed, &edges, comm)
    });
    (out.results, out.stats, out.frames, started.elapsed())
}

/// Runs the TCP arm and asserts every cross-backend invariant against an
/// already-computed sim arm. Shared between [`run`] (re-entry via
/// [`Reexec::SameArgv`](dspgemm_mpi::tcp::Reexec)) and the test harness
/// (re-entry via a libtest `--exact` filter).
#[cfg(feature = "tcp-transport")]
fn tcp_parity(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
    reexec: dspgemm_mpi::tcp::Reexec,
    sim_results: &[TransportOutcome],
    sim_stats: &CommStats,
) -> (CommStats, u64, Duration) {
    let (tcp_results, tcp_stats, frames, tcp_wall) = tcp_arm(cfg, inst, p, reexec);
    let tcp_results: Vec<TransportOutcome> = tcp_results
        .into_iter()
        .map(|r| r.expect("every rank reports"))
        .collect();
    assert_eq!(
        tcp_results, sim_results,
        "p={p}: final C / flops / epoch / batch report counters diverged across backends"
    );
    assert_eq!(
        tcp_stats.volume(),
        sim_stats.volume(),
        "p={p}: logical wire volume diverged across backends"
    );
    if p == 1 {
        assert_eq!(frames, 0, "p=1 wrote socket frames (loopback regression)");
    } else {
        assert!(frames > 0, "p={p} ran without touching a socket");
    }
    (tcp_stats, frames, tcp_wall)
}

/// The `repro transport` table.
pub fn run(cfg: &Config) -> Table {
    let inst = &prepare_instances(cfg)[0];

    // A TCP rank process (this binary re-executed with the same argv)
    // routes straight to the one job it was spawned for; `run_tcp` exits
    // the process after reporting.
    #[cfg(feature = "tcp-transport")]
    if let Some(world) = dspgemm_mpi::tcp::child_world() {
        tcp_arm(cfg, inst, world, dspgemm_mpi::tcp::Reexec::SameArgv);
        unreachable!("run_tcp never returns in a child process");
    }

    let batches = cfg.batches.max(2);
    let mut t = Table::new(
        format!(
            "Transport backend parity: {} batches of dynamic updates on '{}', \
             sim threads vs. TCP processes, p in {{1, 4}}",
            batches, inst.name
        ),
        &[
            "backend",
            "p",
            "wall",
            "bytes",
            "messages",
            "socket frames",
            "final C",
        ],
    );

    for p in [1usize, 4] {
        let (sim_results, sim_stats, sim_wall) = sim_arm(cfg, inst, p);
        assert!(
            sim_results[0].0.is_some() && sim_results.iter().skip(1).all(|r| r.0.is_none()),
            "final C must be gathered to rank 0 only"
        );
        t.push_row(vec![
            "sim (threads + channels)".into(),
            p.to_string(),
            ms(sim_wall),
            format_bytes(sim_stats.total_bytes()),
            sim_stats.total_msgs().to_string(),
            "-".into(),
            "reference".into(),
        ]);

        #[cfg(feature = "tcp-transport")]
        {
            let (tcp_stats, frames, tcp_wall) = tcp_parity(
                cfg,
                inst,
                p,
                dspgemm_mpi::tcp::Reexec::SameArgv,
                &sim_results,
                &sim_stats,
            );
            t.push_row(vec![
                "tcp (processes + sockets)".into(),
                p.to_string(),
                ms(tcp_wall),
                format_bytes(tcp_stats.total_bytes()),
                tcp_stats.total_msgs().to_string(),
                frames.to_string(),
                "bit-identical".into(),
            ]);
        }
    }

    #[cfg(feature = "tcp-transport")]
    {
        t.note(
            "per world size, the root-gathered final C, per-rank flop counters, final epoch and \
             every batch report's counters are asserted bit-identical across backends, and the \
             logical wire volume (bytes and \
             message counts per rank per category) matches exactly — the TCP mesh meters the \
             same sender-side WireSize accounting as the simulator",
        );
        t.note(
            "p=1 is asserted to write zero socket frames: self-sends short-circuit through the \
             local inbox on both backends, without touching the wire codec",
        );
    }
    #[cfg(not(feature = "tcp-transport"))]
    t.note(
        "TCP arm skipped: rebuild with `--features tcp-transport` to run the same program on \
         real OS processes over a socket mesh and assert cross-backend parity",
    );
    t
}

/// Median wall time of `op` over a fixed number of runs.
fn median_time<R>(mut op: impl FnMut() -> R) -> Duration {
    let runs: Vec<Duration> = (0..15)
        .map(|_| {
            let started = Instant::now();
            black_box(op());
            started.elapsed()
        })
        .collect();
    crate::measure::quantile(runs, 0.5)
}

/// The `repro transport` codec table: metering (the encoder run into a byte
/// counter, which the simulator does on every send), encoding and decoding
/// one `Dcsr<f64>` of each shape an Algorithm-1 batch puts on the wire — a
/// star-shaped update block (one or two entries per stored row) and a
/// `C*`-shaped partial (thirty per row), both 8 192 columns wide. Rates are
/// per entry as well as per byte: a format change moves the bytes, so only
/// entries per second compares across formats.
pub fn codec_rates(cfg: &Config) -> Table {
    const WIDE: Index = 8192;
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC0DE);
    let mut draws = |count: usize, nrows: Index| -> Vec<Triple<f64>> {
        let mut coord = |bound: Index| rng.gen_range(bound as u64) as Index;
        (0..count)
            .map(|_| Triple::new(coord(nrows), coord(WIDE), 1.0))
            .collect()
    };
    let star = Dcsr::from_triples::<F64Plus>(8 * WIDE, WIDE, draws(60_000, 8 * WIDE));
    let partial: Vec<Triple<f64>> = (0..WIDE)
        .step_by(2)
        .flat_map(|row| {
            let cols = draws(30, 1);
            cols.into_iter()
                .map(move |t| Triple::new(row, t.col, t.val))
        })
        .collect();
    let partial = Dcsr::from_triples::<F64Plus>(WIDE, WIDE, partial);

    let mut t = Table::new(
        "Dcsr<f64> wire codec on the two block shapes of an Algorithm-1 batch, 8192 columns wide",
        &[
            "shape",
            "stored rows",
            "entries",
            "B/entry",
            "index B/entry",
            "meter Mentry/s",
            "encode MB/s",
            "decode MB/s",
            "encode Mentry/s",
            "decode Mentry/s",
        ],
    );
    for (shape, block) in [("star (A*, B*)", &star), ("partial (C*)", &partial)] {
        let bytes = encode_to_vec(block);
        assert_eq!(bytes.len() as u64, block.wire_bytes(), "meter != encoder");
        assert_eq!(decode_from_slice::<Dcsr<f64>>(&bytes).as_ref(), Ok(block));
        let entries = block.nnz() as f64;
        let per_s = |d: Duration, work: f64| work / d.as_secs_f64().max(1e-9) / 1e6;
        let meter = median_time(|| black_box(block).wire_bytes());
        let encode = median_time(|| encode_to_vec(black_box(block)));
        let decode = median_time(|| decode_from_slice::<Dcsr<f64>>(black_box(&bytes)));
        t.push_row(vec![
            shape.into(),
            block.nrows_stored().to_string(),
            block.nnz().to_string(),
            format!("{:.2}", bytes.len() as f64 / entries),
            format!("{:.2}", bytes.len() as f64 / entries - 8.0),
            format!("{:.0}", per_s(meter, entries)),
            format!("{:.0}", per_s(encode, bytes.len() as f64)),
            format!("{:.0}", per_s(decode, bytes.len() as f64)),
            format!("{:.0}", per_s(encode, entries)),
            format!("{:.0}", per_s(decode, entries)),
        ]);
    }
    t.note(
        "index B/entry is everything but the 8-byte value: header, stored-row and column bytes; \
         medians of 15 runs on one thread, decode includes validation",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> Config {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 2;
        cfg
    }

    /// The sim arms at smoke scale. Gated off under `tcp-transport`:
    /// [`run`] re-executes with the same argv, which inside a libtest
    /// binary would re-run the whole suite — the feature build covers the
    /// full table via `repro transport --smoke` instead, and the parity
    /// assertions via [`tcp_parity_at_smoke_scale`].
    #[cfg(not(feature = "tcp-transport"))]
    #[test]
    fn transport_smoke() {
        let t = run(&smoke_cfg());
        assert_eq!(t.rows.len(), 2);
    }

    /// Full cross-backend parity on the real workload — final `C`, flops,
    /// epoch and each batch report's counters per rank — re-entering the
    /// child processes through a libtest `--exact` filter.
    #[cfg(feature = "tcp-transport")]
    #[test]
    fn tcp_parity_at_smoke_scale() {
        use dspgemm_mpi::tcp::{test_path, Reexec};
        let cfg = smoke_cfg();
        let inst = &prepare_instances(&cfg)[0];
        for p in [1usize, 4] {
            // run_tcp first: in a child process it never returns. The
            // closure is p-independent, so a child entering through the
            // p=1 call site still runs its env-assigned world correctly.
            let reexec = Reexec::Test(test_path(module_path!(), "tcp_parity_at_smoke_scale"));
            let (tcp_results, tcp_stats, frames, _) = tcp_arm(&cfg, inst, p, reexec);
            let (sim_results, sim_stats, _) = sim_arm(&cfg, inst, p);
            let tcp_results: Vec<TransportOutcome> = tcp_results
                .into_iter()
                .map(|r| r.expect("every rank reports"))
                .collect();
            assert_eq!(tcp_results, sim_results, "p={p}: results diverged");
            // Every batch's counters were compared, and at p = 4 each one
            // has traffic to compare.
            for (_, _, counters) in &sim_results {
                assert_eq!(counters.len(), cfg.batches.max(2));
                assert!(p == 1 || counters.iter().all(|c| c.total_msgs() > 0));
            }
            assert_eq!(
                tcp_stats.volume(),
                sim_stats.volume(),
                "p={p}: volume diverged"
            );
            assert_eq!(
                frames == 0,
                p == 1,
                "p={p}: unexpected socket frame count {frames}"
            );
        }
    }
}
