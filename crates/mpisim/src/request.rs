//! Nonblocking requests and the per-rank progress engine.
//!
//! The paper's SpGEMM algorithms alternate broadcast/multiply rounds; with
//! only blocking collectives every rank idles through each round's
//! communication before touching its local kernel. This module adds the
//! `MPI_Isend`/`Irecv`/`Ibcast`-shaped layer that lets the execution layer
//! overlap: an operation is *issued* (sends go out, receives are
//! registered), the rank computes, and the operation is *completed* later
//! with [`Request::wait`] (or polled with [`Request::test`]).
//!
//! ## One receive path
//!
//! Every receive — `irecv`, each source of `ialltoallv`, a non-root's
//! `ibcast` and the blocking receives inside `recv` and the collectives —
//! is one [`Request`] built by one constructor. Each `(source,
//! communicator, tag)` part is taken from the endpoint buffer at issue, or
//! else registered as an *arrival action* in the rank's [`ProgressTable`];
//! the last part to arrive runs the request's `finish`, which fills its
//! slot. A blocking receive is that request plus `wait`.
//!
//! An arrival is buffered only when no action for its key is registered,
//! and the table fires the first action registered for a key, so receives
//! that share a key match in post order, as MPI requires.
//!
//! ## The progress engine
//!
//! Tree-shaped collectives need third-party forwarding: in a binomial
//! broadcast an interior rank must re-send its parent's payload to its
//! children, even if that rank is currently blocked in an unrelated
//! operation. A non-root's broadcast receive therefore has a `finish` that
//! forwards to its children, and **every** drain of the inbox — `wait`,
//! `test`, blocking receives, barriers, reductions — routes envelopes
//! through the table, running whatever action they complete. This mirrors
//! MPI's guarantee that progress happens inside MPI calls (there is no
//! asynchronous progress thread), and it makes the pipelined schedulers
//! deadlock-free: a rank blocked in a reduction still forwards the
//! broadcast panels of the next round flowing through it.
//!
//! ## Time attribution
//!
//! Every envelope is stamped with its send time — in-process transfer is
//! instantaneous, so that stamp is when the data became *available*. A
//! request's communication window is `availability - issue` (the sender
//! dependency it had to cover), split into *exposed* time (the rank sat
//! blocked in `wait`) and *overlapped* time (the remainder — covered by
//! local compute): `overlapped = max(0, (available - issue) - blocked)`.
//! Post-arrival compute is **not** communication and is never counted.
//! Both sides accumulate per rank in the meter ([`crate::CommStats`]).
//! Blocking receives record pure exposed time (nothing overlaps a receive
//! waited at issue), a blocking collective is its request waited at once,
//! and barrier synchronization waits are excluded
//! (skew, not communication) — so the delta of two snapshots quantifies
//! exactly how much communication a pipelined schedule hid, the
//! `repro overlap` report's metric.
//!
//! ## Completion contract
//!
//! Every request must be completed with `wait` (or driven to readiness with
//! `test`). Dropping an incomplete request first attempts a non-blocking
//! completion and then **panics** — never deadlocks — because an abandoned
//! in-flight collective would leave peers waiting forever.

use crate::fault::CommError;
use crate::message::{Envelope, Payload, Tag};
use crate::network::Endpoint;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One registered arrival action: when an envelope matching the key is
/// drained, the action runs (filling its receive's part, and forwarding
/// tree edges once the receive is whole) instead of the envelope being
/// buffered.
struct ProgressEntry {
    src_world: usize,
    comm_id: u64,
    tag: Tag,
    /// Runs on arrival with the payload and its availability stamp.
    action: Box<dyn FnOnce(Box<dyn Any + Send>, Instant)>,
}

/// The per-rank table of pending arrival actions. Shared (via `Rc`) by all
/// communicators and requests of one rank, exactly like the endpoint: a
/// blocking drain on the world communicator must advance a row-communicator
/// broadcast.
#[derive(Default)]
pub(crate) struct ProgressTable {
    entries: Vec<ProgressEntry>,
}

impl ProgressTable {
    /// Takes the *first* registered action for the key, so receives that
    /// share a key match in post order.
    fn take_matching(&mut self, src_world: usize, comm_id: u64, tag: Tag) -> Option<ProgressEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.src_world == src_world && e.comm_id == comm_id && e.tag == tag)?;
        Some(self.entries.remove(pos))
    }

    /// Drops every pending action. Part of a recovery epoch advance:
    /// actions registered by the aborted round must never fire on
    /// next-epoch traffic.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One rank's I/O handles: the endpoint plus the progress table. Cloned
/// (refcount) into every communicator and request of the rank.
pub(crate) struct RankIo {
    pub(crate) endpoint: Rc<RefCell<Endpoint>>,
    pub(crate) progress: Rc<RefCell<ProgressTable>>,
}

impl Clone for RankIo {
    fn clone(&self) -> Self {
        Self {
            endpoint: Rc::clone(&self.endpoint),
            progress: Rc::clone(&self.progress),
        }
    }
}

impl RankIo {
    pub(crate) fn new(endpoint: Endpoint) -> Self {
        Self {
            endpoint: Rc::new(RefCell::new(endpoint)),
            progress: Rc::new(RefCell::new(ProgressTable::default())),
        }
    }
}

/// Routes one drained envelope: runs the first matching progress action
/// (which may forward tree edges while no endpoint borrow is held), else
/// buffers it for a receive issued later.
fn route_envelope(io: &RankIo, env: Envelope) {
    // Drain screening already dropped stale-epoch traffic; an envelope from
    // a *future* epoch (a peer that finished recovering first) must wait in
    // the buffer — the actions registered here belong to the current epoch.
    if env.epoch != io.endpoint.borrow().recovery_epoch() {
        io.endpoint.borrow_mut().buffer(env);
        return;
    }
    let action = io
        .progress
        .borrow_mut()
        .take_matching(env.src_world, env.comm_id, env.tag);
    match action {
        Some(entry) => match env.payload {
            Payload::Value(v) => (entry.action)(v, env.sent_at),
            // `screen` at the drain sites already handled the markers.
            Payload::Poison | Payload::Failed { .. } => {
                unreachable!("markers are handled at drain")
            }
        },
        None => io.endpoint.borrow_mut().buffer(env),
    }
}

/// Drains every envelope currently in the inbox without blocking, routing
/// each through the progress engine (the non-blocking progress pump behind
/// [`Request::test`]).
fn pump(io: &RankIo) {
    loop {
        let env = io.endpoint.borrow_mut().try_next();
        match env {
            Some(e) => route_envelope(io, e),
            None => return,
        }
    }
}

/// Timing of one completed request: `window` is the communication window
/// issue→data-availability (the sender dependency the request had to
/// cover), `exposed` the part of it the rank spent blocked in *this*
/// request's `wait`, `overlapped` the part genuinely covered by local
/// work — the window minus **all** time the rank spent blocked on the
/// inbox during it (own wait or any other operation's), so blocked time is
/// never double-counted as hidden communication. Post-arrival compute is
/// outside the window and never counted as communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overlap {
    /// Wall time from issue until the (last) payload became available.
    pub window: Duration,
    /// Time the rank spent blocked waiting for this request.
    pub exposed: Duration,
    /// The compute-covered portion of the window.
    overlapped: Duration,
}

impl Overlap {
    /// The compute-hidden portion of the communication window.
    pub fn overlapped(&self) -> Duration {
        self.overlapped
    }
}

/// The rank's cumulative inbox-blocked nanoseconds (overlap bookkeeping).
fn io_blocked_ns(io: &RankIo) -> u64 {
    io.endpoint.borrow().blocked_ns_total()
}

/// Assembles a receive's value from its payloads in part order. It runs
/// once, on the last part's arrival, so a tree broadcast's `finish` also
/// forwards to the subtree children.
type Finish<T> = Box<dyn FnOnce(Vec<Box<dyn Any + Send>>) -> T>;

/// A receive's parts in flight, shared by the request and its parts'
/// arrival actions: the payloads in part order, the latest availability
/// stamp, the `finish` still to run and the slot it fills.
struct Arrivals<T> {
    payloads: Vec<Option<Box<dyn Any + Send>>>,
    latest: Option<Instant>,
    finish: Option<Finish<T>>,
    slot: Option<(T, Instant)>,
}

/// Files part `part` of a receive; the last part to arrive runs `finish`
/// and fills the slot, stamped with the latest arrival. No borrow is held
/// while `finish` runs (it may send).
fn arrive<T>(
    arrivals: &RefCell<Arrivals<T>>,
    part: usize,
    payload: Box<dyn Any + Send>,
    sent_at: Instant,
) {
    let (finish, payloads, latest) = {
        let mut a = arrivals.borrow_mut();
        a.payloads[part] = Some(payload);
        a.latest = a.latest.max(Some(sent_at));
        if a.payloads.iter().any(Option::is_none) {
            return;
        }
        let payloads = a.payloads.drain(..).map(|p| p.expect("every part arrived"));
        let payloads = payloads.collect();
        let finish = a.finish.take().expect("a receive finishes once");
        (finish, payloads, a.latest.expect("a part arrived"))
    };
    let value = finish(payloads);
    arrivals.borrow_mut().slot = Some((value, latest));
}

/// A handle to an in-flight nonblocking operation, returned by
/// [`crate::Comm::irecv`], [`crate::Comm::ibcast_shared`] and
/// [`crate::Comm::ialltoallv`].
///
/// Complete it with [`Request::wait`] (blocking) or drive it with
/// [`Request::test`] (non-blocking progress). Requests may be waited in any
/// order; arrivals are matched by `(source, communicator, tag)`, and
/// receives that share a key match in post order, as in MPI.
///
/// # Panics
/// Dropping a request that has not completed panics (after one final
/// non-blocking progress attempt): an abandoned in-flight collective would
/// otherwise deadlock peers. During unwinding the check is skipped so a
/// failing rank can poison the network cleanly.
pub struct Request<T: 'static> {
    io: RankIo,
    /// The receive's parts until the request completes; `None` once it has
    /// (or when it was ready at issue).
    arrivals: Option<Rc<RefCell<Arrivals<T>>>>,
    /// `(value, timing)` once completed and not yet consumed.
    result: Option<(T, Overlap)>,
    issued: Instant,
    /// The rank's cumulative inbox-blocked ns at issue (see
    /// `Endpoint::blocked_ns_total`).
    blocked_ns_at_issue: u64,
    blocked: Duration,
    /// Whether completion should be charged to the overlap meter (false for
    /// requests that were ready at issue, e.g. buffered sends and `p = 1`
    /// short-circuits, which have no communication window, and for blocking
    /// receives, which nothing overlaps).
    metered: bool,
    what: &'static str,
}

impl<T: 'static> Request<T> {
    pub(crate) fn ready(io: RankIo, value: T, what: &'static str) -> Self {
        Self {
            io,
            arrivals: None,
            result: Some((value, Overlap::default())),
            issued: Instant::now(),
            blocked_ns_at_issue: 0,
            blocked: Duration::ZERO,
            metered: false,
            what,
        }
    }

    /// The one receive: each `(source, comm, tag)` part is taken from the
    /// buffer now or else registered as an arrival action, and the last part
    /// to arrive runs `finish`, which fills the request's slot.
    pub(crate) fn recv(
        io: RankIo,
        parts: Vec<(usize, u64, Tag)>,
        finish: Finish<T>,
        what: &'static str,
    ) -> Self {
        let blocked_ns_at_issue = io_blocked_ns(&io);
        let issued = Instant::now();
        let arrivals = Rc::new(RefCell::new(Arrivals {
            payloads: parts.iter().map(|_| None).collect(),
            latest: None,
            finish: Some(finish),
            slot: None,
        }));
        for (part, (src_world, comm_id, tag)) in parts.into_iter().enumerate() {
            let buffered = io
                .endpoint
                .borrow_mut()
                .take_pending(src_world, comm_id, tag);
            match buffered {
                Some((payload, sent_at)) => arrive(&arrivals, part, payload, sent_at),
                None => {
                    let arrivals = Rc::clone(&arrivals);
                    io.progress.borrow_mut().entries.push(ProgressEntry {
                        src_world,
                        comm_id,
                        tag,
                        action: Box::new(move |payload, sent_at| {
                            arrive(&arrivals, part, payload, sent_at)
                        }),
                    });
                }
            }
        }
        Self {
            io,
            arrivals: Some(arrivals),
            result: None,
            issued,
            blocked_ns_at_issue,
            blocked: Duration::ZERO,
            metered: true,
            what,
        }
    }

    /// Moves a filled slot into `result`, recording overlap.
    /// `available_at` is when the (last) payload became available; the
    /// communication window ends there, so local work done after arrival is
    /// never misattributed as overlapped communication. The overlapped
    /// share further subtracts *all* time the rank spent blocked on the
    /// inbox since issue (its own wait or any other operation's — blocked
    /// is blocked, not compute); the subtraction is conservative, never
    /// inflating the hidden share.
    fn finalize(&mut self, value: T, available_at: Instant) {
        let window = available_at.saturating_duration_since(self.issued);
        let blocked_since_issue =
            Duration::from_nanos(io_blocked_ns(&self.io).saturating_sub(self.blocked_ns_at_issue));
        let timing = Overlap {
            window,
            exposed: self.blocked,
            overlapped: window.saturating_sub(blocked_since_issue),
        };
        if self.metered {
            self.io
                .endpoint
                .borrow()
                .record_overlapped_ns(timing.overlapped().as_nanos() as u64);
        }
        self.result = Some((value, timing));
    }

    /// Attempts completion without blocking: pumps the inbox once, then
    /// checks whether the last part has arrived.
    fn try_complete(&mut self) -> bool {
        let Some(arrivals) = &self.arrivals else {
            return true;
        };
        pump(&self.io);
        let filled = arrivals.borrow_mut().slot.take();
        match filled {
            Some((value, available_at)) => {
                self.arrivals = None;
                self.finalize(value, available_at);
                true
            }
            None => false,
        }
    }

    /// Blocks until the last part has arrived, then finalizes. With
    /// `expose`, blocked time is this request's exposed time and goes to
    /// the meter; without (barrier synchronization — skew, not
    /// communication) it is neither.
    fn complete_blocking(&mut self, expose: bool) {
        while !self.try_complete() {
            let (env, d) = self.io.endpoint.borrow_mut().blocking_next(expose);
            if expose {
                self.blocked += d;
            }
            route_envelope(&self.io, env);
        }
    }

    /// Takes the completed result, writing its time attribution onto the
    /// wait span: how long this wait was exposed, and how much of the
    /// communication window local compute covered (from the envelope
    /// availability stamps — see "Time attribution" above).
    fn take_result(&mut self, sp: &mut dspgemm_obs::Span) -> (T, Overlap) {
        let (value, timing) = self.result.take().expect("completed request has a result");
        if dspgemm_obs::enabled() {
            let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            sp.set_attr("window_ns", ns(timing.window));
            sp.set_attr("exposed_ns", ns(timing.exposed));
            sp.set_attr("overlapped_ns", ns(timing.overlapped()));
        }
        (value, timing)
    }

    /// Completes a receive waited as soon as it is issued — a blocking
    /// receive, inside its caller's span. Nothing overlaps it, so it records
    /// no overlapped time; `expose = false` keeps the wait out of the
    /// exposed meter as well (the barrier).
    pub(crate) fn wait_blocking(mut self, expose: bool) -> (T, Overlap) {
        self.metered = false;
        self.complete_blocking(expose);
        self.result.take().expect("completed request has a result")
    }

    /// Advances the progress engine and reports whether the request has
    /// completed. Never blocks. After `test` returns `true`, [`Request::wait`]
    /// returns immediately.
    pub fn test(&mut self) -> bool {
        self.try_complete()
    }

    /// Blocks until the operation completes and returns its value. Time
    /// spent blocked here is recorded as *exposed* communication time; the
    /// rest of the issue→availability window as *overlapped*.
    pub fn wait(self) -> T {
        self.wait_timed().0
    }

    /// Like [`Request::wait`], additionally returning the request's timing
    /// split (for per-phase attribution in `PhaseTimer`-style breakdowns).
    pub fn wait_timed(mut self) -> (T, Overlap) {
        let mut sp = dspgemm_obs::span("comm", self.what);
        self.complete_blocking(true);
        self.take_result(&mut sp)
    }

    /// Bounded-blocking completion: waits up to `timeout` for the
    /// operation, returning `Err(CommError::Timeout)` if it is still in
    /// flight when the deadline passes. The request stays alive and armed
    /// across a timeout — call `wait_deadline` again (or [`Request::wait`])
    /// to keep waiting — which is what lets recovery code distinguish a
    /// *slow* peer (later wait succeeds) from a *dead* one (the wait
    /// surfaces [`CommError::PeerFailed`] once the failure marker arrives).
    /// A timed-out wait counts toward the request's exposed time, as it
    /// does toward the meter's.
    ///
    /// On success the value is returned and the request is spent; a second
    /// call after `Ok` would find no result, so take `Ok` once.
    pub fn wait_deadline(&mut self, timeout: Duration) -> Result<(T, Overlap), CommError> {
        let mut sp = dspgemm_obs::span("comm", self.what);
        let deadline = Instant::now() + timeout;
        while !self.try_complete() {
            let drained = self
                .io
                .endpoint
                .borrow_mut()
                .blocking_next_deadline(true, Some(deadline));
            match drained {
                Ok((env, d)) => {
                    self.blocked += d;
                    route_envelope(&self.io, env);
                }
                Err(err) => {
                    if let CommError::Timeout { waited } = err {
                        self.blocked += waited;
                    }
                    sp.set_attr("timed_out", 1);
                    return Err(err);
                }
            }
        }
        Ok(self.take_result(&mut sp))
    }
}

impl<T: 'static> Drop for Request<T> {
    fn drop(&mut self) {
        // Unwinding (e.g. a peer's poison) must not double-panic.
        if std::thread::panicking() {
            return;
        }
        // One final deterministic, non-blocking completion attempt: a request
        // whose traffic already arrived completes and is discarded (a
        // completed one, its result possibly consumed, returns at once).
        if self.try_complete() {
            return;
        }
        panic!(
            "nonblocking {} request dropped before completion; call wait() (or drive test() to \
             readiness) on every request",
            self.what
        );
    }
}
