//! The pipelined round scheduler: communication/compute overlap for the
//! broadcast-multiply round structure shared by every SpGEMM path.
//!
//! SUMMA and the dynamic algorithms all run `√p` rounds of *broadcast a
//! panel, multiply it locally*. With blocking collectives the two steps
//! serialize: every rank idles through round `k`'s broadcast before touching
//! its kernel. The scheduler double-buffers instead — round `k + 1`'s
//! communication is **issued** (nonblocking) before round `k`'s compute, so
//! the panels of the next round are in flight while the current multiply
//! runs, and the wait at the top of round `k + 1` finds them (mostly)
//! already arrived. The memory cost is exactly one extra in-flight panel
//! set per operand (the `Flight` value held across the body).
//!
//! Pipelining changes *when* a collective is issued, never which: every
//! rank issues the same collectives in the same order with the same tags
//! and wire bytes, and folds the rounds in the same order, so results and
//! metered volume are those of a loop that broadcasts and waits round by
//! round (`tests/copy_elim.rs` holds `summa` to such a replica). Only the
//! exposed/overlapped split of communication *time* moves.

use dspgemm_mpi::Request;
use dspgemm_util::stats::PhaseTimer;

/// Runs `rounds` rounds of issue → complete → compute, each round's
/// communication issued one round ahead of its compute. `ctx` is the
/// caller's mutable round state (timer, accumulators, output blocks),
/// threaded through every callback so call sites keep plain `&mut` state
/// instead of interior-mutability cells.
///
/// * `issue(ctx, k)` starts round `k`'s communication and returns its
///   in-flight handle(s) — typically a tuple of [`Request`]s.
/// * `complete(ctx, k, flight)` waits for round `k`'s communication and
///   returns the ready operand(s).
/// * `body(ctx, k, ready)` is the local compute (multiply/merge/reduce) of
///   round `k`.
///
/// The call order is `issue(0), [complete(0), issue(1), body(0)],
/// [complete(1), issue(2), body(1)], …` — every rank issues the same
/// collectives in the same order (the SPMD contract), just one round ahead
/// of the compute.
pub fn run_rounds<Ctx, Flight, Ready>(
    ctx: &mut Ctx,
    rounds: usize,
    mut issue: impl FnMut(&mut Ctx, usize) -> Flight,
    mut complete: impl FnMut(&mut Ctx, usize, Flight) -> Ready,
    mut body: impl FnMut(&mut Ctx, usize, Ready),
) {
    if rounds == 0 {
        return;
    }
    let mut flight = Some(issue(ctx, 0));
    for k in 0..rounds {
        let ready = complete(ctx, k, flight.take().expect("round in flight"));
        if k + 1 < rounds {
            flight = Some(issue(ctx, k + 1));
        }
        let _sp = dspgemm_obs::span("round", "round").attr("round", k as u64);
        body(ctx, k, ready);
    }
}

/// Waits for a request and adds the time the rank sat blocked in the wait
/// to `phase`. The compute-hidden remainder of the request's window is no
/// phase's time — the compute phase that covered it already holds that
/// wall clock — and the meter records it per rank (`CommStats`).
pub fn await_into_phase<T: 'static>(
    req: Request<T>,
    timer: &mut PhaseTimer,
    phase: &'static str,
) -> T {
    let (value, timing) = req.wait_timed();
    timer.add(phase, timing.exposed);
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_schedule_issues_one_round_ahead() {
        // Flight/Ready are just the round index; the ctx is a plain
        // `&mut Vec` call-order log — no interior mutability needed.
        let mut log: Vec<String> = Vec::new();
        run_rounds(
            &mut log,
            3,
            |log, k| {
                log.push(format!("issue{k}"));
                k
            },
            |log, k, f| {
                assert_eq!(k, f);
                log.push(format!("complete{k}"));
                k
            },
            |log, k, r| {
                assert_eq!(k, r);
                log.push(format!("body{k}"));
                // When body k runs, round k+1 must already be issued.
                if k + 1 < 3 {
                    assert!(
                        log.contains(&format!("issue{}", k + 1)),
                        "round {} in flight",
                        k + 1
                    );
                }
            },
        );
        assert_eq!(
            log,
            vec![
                "issue0",
                "complete0",
                "issue1",
                "body0",
                "complete1",
                "issue2",
                "body1",
                "complete2",
                "body2"
            ]
        );
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        run_rounds(
            &mut (),
            0,
            |_, _| unreachable!("no rounds"),
            |_, _, f: ()| f,
            |_, _, _| unreachable!("no rounds"),
        );
    }
}
