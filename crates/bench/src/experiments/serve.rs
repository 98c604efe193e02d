//! Snapshot-isolated serving vs. the blocking baseline.
//!
//! The serving claim of the snapshot layer: a query stream interleaved with
//! update batches never waits for a batch to drain — queries pin the last
//! published epoch and read it immediately, at the price of a bounded stale
//! read (distance 1 while one batch is in flight). The blocking baseline
//! the pre-snapshot session was forced into serializes every query behind
//! the running batch: a query arriving mid-batch pays the remaining drain
//! time before its own service time.
//!
//! Both arms serve the *same* measured query service times (point lookups,
//! row top-k, a frozen view reading) over the same batch schedule; the
//! blocking arm adds the modeled remaining-drain wait for queries arriving
//! while a batch runs (arrivals spread uniformly over the batch window).
//! A laggard reader holds one old epoch for a few rounds, so the table's
//! retention columns show what an outstanding pin keeps alive.
//!
//! The report asserts nothing: that pinned answers stay bit-identical under
//! a running batch and that retention is bounded by the pins is
//! `tests/snapshot.rs`'s to show.

use crate::experiments::{prepare_instances, rank_slice, Prepared};
use crate::measure::{measured_collective, quantile};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_analytics::{
    AnalyticsSession, SessionSnapshot, TriangleCountView, TriangleReading, ViewId,
};
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::Grid;
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_graph::Edge;
use dspgemm_mpi::Comm;
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use std::time::Duration;

/// Per-rank update batch size (the hypersparse regime at proxy scale).
pub const SERVE_BATCH: usize = 32;

/// Point-lookup queries per round.
const POINT_QUERIES: usize = 10;

/// Row top-k queries per round.
const TOPK_QUERIES: usize = 4;

/// How many rounds a laggard reader holds its pinned epoch.
const LAGGARD_WINDOW: u64 = 3;

/// The fixed query set of one instance (identical on every rank).
struct QuerySet {
    pairs: Vec<(Index, Index)>,
    rows: Vec<Index>,
}

impl QuerySet {
    fn for_instance(inst: &Prepared) -> Self {
        let pairs: Vec<(Index, Index)> = inst.edges.iter().take(POINT_QUERIES).copied().collect();
        let rows: Vec<Index> = inst
            .edges
            .iter()
            .skip(POINT_QUERIES)
            .take(TOPK_QUERIES)
            .map(|&(u, _)| u)
            .collect();
        Self { pairs, rows }
    }

    /// Queries per pass (for the arrival model).
    fn len(&self) -> usize {
        self.pairs.len() + self.rows.len() + 1
    }

    /// Runs every query against one pinned epoch, recording each query's
    /// modeled end-to-end latency into `lat`. Collective.
    fn run(
        &self,
        comm: &Comm,
        grid: &Grid,
        snap: &SessionSnapshot<U64Plus>,
        tri: ViewId,
        lat: &mut Vec<Duration>,
    ) {
        for &(u, v) in &self.pairs {
            let (_, cost) = measured_collective(comm, || snap.product_entry(grid, u, v));
            lat.push(cost.modeled());
        }
        for &u in &self.rows {
            let (_, cost) =
                measured_collective(comm, || snap.product_row_topk(grid, u, 8, |&v| v as f64));
            lat.push(cost.modeled());
        }
        let (_, cost) = measured_collective(comm, || {
            snap.view_as::<TriangleReading>(tri)
                .map(TriangleReading::count)
        });
        lat.push(cost.modeled());
    }
}

/// One round's work: `(algebraic inserts, positions to delete)`.
type Round = (Vec<Triple<u64>>, Vec<(Index, Index)>);

/// Per-round work — alternating insert/expire, exercising Algorithm 1 and
/// Algorithm 2 under the query stream.
fn plan(edges: &[Edge], rank: usize, rounds: usize, seed: u64) -> Vec<Round> {
    let mut draws = ReplacementDraws::new(SERVE_BATCH, seed, rank);
    let mut inserted: Vec<Vec<Edge>> = Vec::new();
    let mut out = Vec::new();
    for round in 0..rounds {
        if round % 2 == 0 {
            let batch = draws.next_batch(edges);
            inserted.push(batch.clone());
            out.push((
                batch
                    .into_iter()
                    .map(|(u, v)| Triple::new(u, v, 1))
                    .collect(),
                Vec::new(),
            ));
        } else {
            out.push((Vec::new(), inserted[round / 2].clone()));
        }
    }
    out
}

/// Everything one rank measures across the rounds of one instance; the
/// latency samples are kept whole and their percentiles are exact.
struct ServeRun {
    snap_lat: Vec<Duration>,
    block_lat: Vec<Duration>,
    stale: Vec<u64>,
    retained_max: usize,
    live_bytes_max: usize,
}

fn serve_instance(cfg: &Config, inst: &Prepared) -> ServeRun {
    let n = inst.n;
    let (p, rounds, seed) = (cfg.p, cfg.batches.max(2), cfg.seed);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let base: Vec<Triple<u64>> = rank_slice(edges, comm.rank(), p)
            .into_iter()
            .map(|(u, v)| Triple::new(u, v, 1u64))
            .collect();
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, base);
        let tri = session.register(Box::new(TriangleCountView::new()));
        let queries = QuerySet::for_instance(inst);

        let schedule = plan(edges, comm.rank(), rounds, seed);
        let mut r = ServeRun {
            snap_lat: Vec::new(),
            block_lat: Vec::new(),
            stale: Vec::new(),
            retained_max: 0,
            live_bytes_max: 0,
        };
        let mut laggard = session.pin();
        for (round, (inserts, deletes)) in schedule.into_iter().enumerate() {
            // Pin the pre-batch epoch e.
            let pin = session.pin();

            // Apply the batch (epoch e + 1 commits at the end).
            let (_, batch_cost) = measured_collective(comm, || {
                if deletes.is_empty() {
                    session.insert_edges(inserts);
                } else {
                    let mut upd = GeneralUpdates::new();
                    upd.deletes = deletes;
                    session.apply_general(upd);
                }
            });
            let drain = batch_cost.modeled();

            // The interleaved query stream: arrivals spread uniformly over
            // the batch window. Snapshot arm: served from the pinned epoch
            // immediately. Blocking arm: the same service times behind the
            // remaining drain.
            let mut service = Vec::new();
            queries.run(comm, session.grid(), &pin, tri, &mut service);
            let q_count = queries.len();
            for (i, &svc) in service.iter().enumerate() {
                let arrival = (i as f64 + 0.5) / q_count as f64;
                r.snap_lat.push(svc);
                r.block_lat
                    .push(svc + Duration::from_secs_f64(drain.as_secs_f64() * (1.0 - arrival)));
                // Served epoch e while e + 1 was committing.
                r.stale.push(session.epoch() - pin.epoch());
            }

            // The laggard reader: holds its pin across a window of rounds,
            // accumulating stale distance and exercising retention.
            r.stale.push(session.epoch() - laggard.epoch());
            if (round as u64 + 1).is_multiple_of(LAGGARD_WINDOW) {
                laggard = session.pin();
            }

            // Retention: latest + pin + laggard are the only live epochs.
            drop(pin);
            let store = session.snapshots();
            r.retained_max = r.retained_max.max(store.retained());
            let mut seen = Vec::new();
            let live_bytes: usize = store
                .live()
                .iter()
                .map(|s| s.heap_bytes_unshared(&mut seen))
                .sum();
            r.live_bytes_max = r.live_bytes_max.max(live_bytes);
        }
        r
    });
    out.results.into_iter().next().expect("rank 0 result")
}

/// Interleaved query/update serving: snapshot-isolated vs. blocking query
/// latency (p50/p99), stale-read distance, and epoch retention.
pub fn run(cfg: &Config) -> Table {
    let mut table = Table::new(
        "Serve: snapshot-isolated queries vs. blocking baseline (per query, modeled)",
        &[
            "instance",
            "rounds",
            "q/round",
            "snap p50",
            "snap p99",
            "block p50",
            "block p99",
            "p99 speedup",
            "stale mean",
            "stale max",
            "retained max",
            "live KiB max",
        ],
    );
    let instances = prepare_instances(cfg);
    for inst in &instances {
        let r = serve_instance(cfg, inst);
        let stale_mean = r.stale.iter().sum::<u64>() as f64 / r.stale.len().max(1) as f64;
        let p99 = quantile(r.block_lat.clone(), 0.99).as_secs_f64()
            / quantile(r.snap_lat.clone(), 0.99).as_secs_f64().max(1e-9);
        table.push_row(vec![
            inst.name.into(),
            cfg.batches.max(2).to_string(),
            (POINT_QUERIES + TOPK_QUERIES + 1).to_string(),
            ms(quantile(r.snap_lat.clone(), 0.5)),
            ms(quantile(r.snap_lat.clone(), 0.99)),
            ms(quantile(r.block_lat.clone(), 0.5)),
            ms(quantile(r.block_lat.clone(), 0.99)),
            ratio(p99),
            format!("{stale_mean:.2}"),
            r.stale.iter().max().copied().unwrap_or(0).to_string(),
            r.retained_max.to_string(),
            format!("{:.1}", r.live_bytes_max as f64 / 1024.0),
        ]);
    }
    table.note(format!(
        "p = {}, |batch|/rank = {SERVE_BATCH}, alternating insert/expire rounds; \
         queries = {POINT_QUERIES} point lookups + {TOPK_QUERIES} row top-8 + 1 frozen view \
         reading per pass, arrivals uniform over the batch window",
        cfg.p,
    ));
    table.note(
        "snapshot arm serves the pinned epoch immediately (stale distance 1 while a batch \
         commits); blocking arm pays the remaining batch drain first; a laggard reader \
         re-pins every 3 rounds (stale distance up to 3, retention bounded by pins)",
    );
    table.note("percentiles exact: the sorted samples' entry at rank round((n - 1)·q)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke configuration keeps retention bounded by the outstanding
    /// pins and stale distance bounded by the laggard's window.
    #[test]
    fn serve_smoke_keeps_retention_bounded_by_pins() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let r = serve_instance(&cfg, inst);
        // Live epochs: latest + round pin + laggard pin at most.
        assert!(r.retained_max <= 3, "retained {} epochs", r.retained_max);
        // Every during-batch query saw exactly the one-batch stale distance;
        // the laggard saw at most its window.
        assert!(r.stale.iter().all(|&d| d <= LAGGARD_WINDOW));
        assert!(!r.snap_lat.is_empty());
        assert_eq!(r.snap_lat.len(), r.block_lat.len());
    }
}
