//! The SPMD body every rank runs: set-up (several times), fenced rounds,
//! kernel floors, oracle. One closed loop: the next round is submitted when
//! the previous round's closing fence returns.
//!
//! ```text
//!  rank 0   gen tuples | fence | t0 ---- workload calls ---- busy | fence | t1 | postcondition
//!  rank r   gen tuples | fence |    ---- workload calls ---- busy | fence |    | postcondition
//!                              '------------ round latency = t1 - t0 -----'
//! ```
//!
//! Ranks block on channels (or sockets) in the fences and never spin; a
//! rank's tuples are generated by that rank before the opening fence.

use crate::api::{self, Sent, Triple};
use crate::calib::Calib;
use crate::input::Ctx;
use crate::report::{RankReport, Tracer};
use crate::stats::{median, vm_hwm_kib};
use crate::workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Seconds a run of the nominal round counts is sized for on the reference
/// host; `--seconds` scales the counts from here.
pub const NOMINAL_SECONDS: u64 = 10;

/// Calibration rounds before the first sampled one: first touch of the table.
const CALIB_WARM: usize = 5;

#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 1`: one set-up, half the rounds untraced, half traced.
    pub trace: bool,
    /// Graph scale reduced by 2, ten sampled rounds.
    pub smoke: bool,
    /// Test hook: corrupt one entry before the oracle.
    pub corrupt: bool,
    /// Set-ups per run; their median is `setup_s`.
    pub setups: usize,
}

impl Plan {
    fn warm<W: Workload>(&self) -> usize {
        if self.smoke {
            2
        } else {
            W::WARM
        }
    }

    /// Sampled rounds: a fixed function of `--seconds`, never of the clock,
    /// so that two commits do the same work.
    pub fn sampled<W: Workload>(&self) -> usize {
        if self.smoke {
            10
        } else {
            (W::SAMPLED as u64 * self.seconds).div_ceil(NOMINAL_SECONDS) as usize
        }
    }
}

/// What the rounds of one window add up to on one rank.
#[derive(Default)]
struct Window {
    round_ms: Vec<f64>,
    /// The calibration round that followed each sampled round.
    calib_ms: Vec<f64>,
    busy_ms: Vec<f64>,
    sent: [u64; 5],
    updates: u64,
    failed: u64,
}

impl Window {
    fn book(&mut self, d: &Sent) {
        for (acc, x) in
            self.sent
                .iter_mut()
                .zip([d.bytes, d.msgs, d.all_msgs, d.exposed_ns, d.overlapped_ns])
        {
            *acc += x;
        }
    }

    fn into_report(self, prefix: &str, rep: &mut RankReport) {
        rep.put_series(&format!("{prefix}round_ms"), self.round_ms);
        rep.put_series(&format!("{prefix}calib_ms"), self.calib_ms);
        rep.put_series(&format!("{prefix}busy_ms"), self.busy_ms);
        for (name, x) in ["bytes", "msgs", "all_msgs", "exposed_ns", "overlapped_ns"]
            .iter()
            .zip(self.sent)
        {
            rep.put(&format!("{prefix}{name}"), x as f64);
        }
        rep.put(&format!("{prefix}updates"), self.updates as f64);
        rep.put(&format!("{prefix}failed_rounds"), self.failed as f64);
    }
}

/// One round: opening fence, `t0`, the workload's calls, closing fence, `t1`.
fn round<W: Workload>(
    w: &mut W,
    ctx: &Ctx<'_>,
    tr: &mut Tracer,
    traced: Option<&mut RankReport>,
    win: Option<&mut Window>,
) {
    let batch = w.next_batch(ctx);
    let updates = W::updates(&batch);
    api::barrier(ctx.comm);
    let before = api::sent(ctx.comm);
    let t0 = Instant::now();
    let open = tr.begin("round");
    match traced {
        Some(counts) => w.run_traced(ctx, batch, tr, counts),
        None => w.run(ctx, batch),
    }
    let busy = t0.elapsed();
    let sent = api::sent(ctx.comm).since(&before);
    tr.time("fence", || api::barrier(ctx.comm));
    let wall = t0.elapsed();
    tr.end(open);
    tr.round += 1;
    let ok = w.after_round(ctx);
    if let Some(win) = win {
        win.round_ms.push(wall.as_secs_f64() * 1e3);
        win.busy_ms.push(busy.as_secs_f64() * 1e3);
        win.book(&sent);
        win.updates += updates;
        win.failed += u64::from(!ok);
    }
}

pub fn rank_main<W: Workload>(comm: &api::Comm, plan: &Plan) -> RankReport {
    let ctx = Ctx::new(comm, plan.seed, plan.smoke);
    let mut tr = Tracer::default();
    let mut rep = RankReport::default();

    let mut setup_s = Vec::new();
    let mut initial_flops = 0;
    let mut state: Option<W> = None;
    for _ in 0..plan.setups {
        // Drop the previous state first: two copies would double the peak.
        drop(state.take());
        api::barrier(comm);
        let t = Instant::now();
        tr.on = true;
        let open = tr.begin("setup");
        let mut w = W::setup(&ctx, &mut tr);
        tr.on = false;
        initial_flops = w.flops();
        for _ in 0..plan.warm::<W>() {
            round(&mut w, &ctx, &mut tr, None, None);
        }
        api::barrier(comm);
        tr.end(open);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");
    rep.put_series("setup_s", setup_s);
    rep.put("summa.initial_flops", initial_flops as f64);

    let sampled = plan.sampled::<W>();
    let untraced = if plan.trace { sampled / 2 } else { sampled };
    let (flops, epochs) = (w.flops(), w.epochs());
    let mut calib = Calib::new(ctx.rank);
    for _ in 0..CALIB_WARM {
        calib.round(comm);
    }
    let mut win = Window::default();
    for _ in 0..untraced {
        round(&mut w, &ctx, &mut tr, None, Some(&mut win));
        win.calib_ms.push(calib.round(comm));
    }
    rep.put("flops", (w.flops() - flops) as f64);
    rep.put("epochs", (w.epochs() - epochs) as f64);
    // Before the oracle builds its reference product.
    rep.put("vm_hwm_kib", vm_hwm_kib());
    win.into_report("", &mut rep);

    if plan.trace {
        let mut win = Window::default();
        tr.on = true;
        for _ in 0..sampled - untraced {
            round(&mut w, &ctx, &mut tr, Some(&mut rep), Some(&mut win));
            win.calib_ms.push(calib.round(comm));
        }
        tr.on = false;
        win.into_report("traced.", &mut rep);
        floors(&ctx, &mut rep);
        w.layer_report(&ctx, &mut rep);
    }

    let verdict = w.verify(&ctx, plan.corrupt);
    rep.put("oracle_ok", f64::from(u8::from(verdict)));
    rep.put("job_msgs", api::sent(comm).all_msgs as f64);
    std::hint::black_box(calib.sink);
    rep.spans = tr.into_spans();
    rep
}

/// A pseudo-random tuple stream for the floors; content is irrelevant, size
/// and spread are what the kernels see.
fn floor_triples(count: usize, n: u32) -> Vec<Triple<f64>> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Triple::new((x >> 40) as u32 % n, (x >> 8) as u32 % n, 1.0)
        })
        .collect()
}

fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The kernel floor under every workload: fixed-size runs of the kernels a
/// batch bottoms out in. Local kernels run on rank 0 while the others wait
/// in a fence; the two collectives run on all ranks.
fn floors(ctx: &Ctx<'_>, rep: &mut RankReport) {
    const N: u32 = 1 << 16;
    const TUPLES: usize = 1 << 18;
    /// One rank's share of an `ingest-tcp` batch, per destination.
    const CHUNK: usize = 8_192;
    let comm = ctx.comm;
    if ctx.rank == 0 {
        let tuples = floor_triples(TUPLES, N);
        let m = TUPLES as f64 / 1e6;
        let s = timed(5, || {
            std::hint::black_box(api::dhb_insert(N, &tuples));
        });
        rep.put("dhb.insert_mtuples_per_s", m / s);
        let dhb = api::dhb_insert(N, &tuples);
        let mut nnz = 0;
        let s = timed(5, || nnz = api::dhb_to_csr(&dhb));
        rep.put("dhb.to_csr_mnnz_per_s", nnz as f64 / 1e6 / s);
        let s = timed(5, || {
            api::counting_sort(tuples.clone(), 2, N);
        });
        let clone_s = timed(5, || {
            std::hint::black_box(tuples.clone());
        });
        rep.put(
            "sort.counting_sort_mtuples_per_s",
            m / (s - clone_s).max(1e-9),
        );
        let mut bytes = Vec::new();
        let s = timed(5, || bytes = api::wire_encode(&tuples));
        let mb = bytes.len() as f64 / 1e6;
        rep.put("wire.encode_mb_per_s", mb / s);
        let s = timed(5, || {
            api::wire_decode(&bytes);
        });
        rep.put("wire.decode_mb_per_s", mb / s);
    }
    let chunk = floor_triples(CHUNK, N);
    let mut a2a = Vec::new();
    let payload = Arc::new(vec![7u64; CHUNK * 2]);
    let mut bc = Vec::new();
    for _ in 0..21 {
        let chunks = vec![chunk.clone(); comm.size()];
        api::barrier(comm);
        let t = Instant::now();
        api::alltoallv(comm, chunks);
        api::barrier(comm);
        a2a.push(t.elapsed().as_secs_f64() * 1e3);
        let root = (ctx.rank == 0).then(|| Arc::clone(&payload));
        let t = Instant::now();
        api::bcast(comm, 0, root);
        api::barrier(comm);
        bc.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.put("mpisim.alltoallv_floor_ms", median(&a2a));
    rep.put("mpisim.bcast_floor_ms", median(&bc));
}
