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
//! ## The progress engine
//!
//! Tree-shaped collectives need third-party forwarding: in a binomial
//! broadcast an interior rank must re-send its parent's payload to its
//! children, even if that rank is currently blocked in an unrelated
//! operation. Each rank therefore keeps a [`ProgressTable`] of pending
//! *arrival actions* (keyed by `(source, communicator, tag)`); **every**
//! drain of the inbox — blocking receives, `wait`, `test`, barriers,
//! reductions — routes non-matching envelopes through the table, running
//! forwarding actions as a side effect. This mirrors MPI's guarantee that
//! progress happens inside MPI calls (there is no asynchronous progress
//! thread), and it makes the pipelined schedulers deadlock-free: a rank
//! blocked in a reduction still forwards the broadcast panels of the next
//! round flowing through it.
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
//! Blocking receives record pure exposed time, a blocking collective is its
//! request waited at once, and barrier synchronization waits are excluded
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
/// drained, the action runs (forwarding tree edges, filling the request's
/// result slot) instead of the envelope being buffered.
pub(crate) struct ProgressEntry {
    pub(crate) src_world: usize,
    pub(crate) comm_id: u64,
    pub(crate) tag: Tag,
    /// Runs on arrival with the payload and its availability stamp.
    pub(crate) action: Box<dyn FnOnce(Box<dyn Any + Send>, Instant)>,
}

/// The per-rank table of pending arrival actions, plus the ledger of
/// posted nonblocking receives. Shared (via `Rc`) by all communicators and
/// requests of one rank, exactly like the endpoint: a blocking drain on the
/// world communicator must advance a row-communicator broadcast.
#[derive(Default)]
pub(crate) struct ProgressTable {
    entries: Vec<ProgressEntry>,
    /// Keys of outstanding posted receives (`irecv`/`ialltoallv` parts).
    /// Lazy buffer matching cannot honor MPI's posted-receive ordering for
    /// two receives with the *same* `(source, comm, tag)` key, so posting a
    /// duplicate — or issuing a blocking receive that would race a posted
    /// one — fails fast instead of silently delivering messages to the
    /// wrong request.
    posted: Vec<(usize, u64, Tag)>,
}

impl ProgressTable {
    fn take_matching(&mut self, src_world: usize, comm_id: u64, tag: Tag) -> Option<ProgressEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.src_world == src_world && e.comm_id == comm_id && e.tag == tag)?;
        Some(self.entries.remove(pos))
    }

    pub(crate) fn register(&mut self, entry: ProgressEntry) {
        self.entries.push(entry);
    }

    fn post_recv(&mut self, key: (usize, u64, Tag)) {
        assert!(
            !self.posted.contains(&key),
            "two outstanding nonblocking receives share (source {}, tag {:?}); matching order              would be wait-order, not post-order — use distinct tags",
            key.0,
            key.2
        );
        self.posted.push(key);
    }

    fn unpost_recv(&mut self, key: (usize, u64, Tag)) {
        if let Some(pos) = self.posted.iter().position(|k| *k == key) {
            self.posted.remove(pos);
        }
    }

    fn is_posted(&self, key: (usize, u64, Tag)) -> bool {
        self.posted.contains(&key)
    }

    /// Drops every pending action and posted-receive key. Part of a
    /// recovery epoch advance: actions registered by the aborted round
    /// must never fire on next-epoch traffic.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.posted.clear();
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

/// Routes one drained envelope: runs a matching progress action (which may
/// forward tree edges while no endpoint borrow is held), else buffers it
/// for a later direct receive.
pub(crate) fn route_envelope(io: &RankIo, env: Envelope) {
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

/// Blocking receive matching `(src_world, comm_id, tag)`, advancing the
/// progress engine on every non-matching arrival. Returns the payload, the
/// moment the sender made it available, and the time spent blocked on the
/// inbox. `expose` controls whether blocked time is metered as exposed
/// communication (false for pure-synchronization waits like barriers).
pub(crate) fn recv_match(
    io: &RankIo,
    src_world: usize,
    comm_id: u64,
    tag: Tag,
    expose: bool,
) -> (Box<dyn Any + Send>, Instant, Duration) {
    assert!(
        !io.progress.borrow().is_posted((src_world, comm_id, tag)),
        "blocking receive races a posted nonblocking receive for (source {src_world}, tag          {tag:?}); use distinct tags"
    );
    if let Some((v, sent_at)) = io
        .endpoint
        .borrow_mut()
        .take_pending(src_world, comm_id, tag)
    {
        return (v, sent_at, Duration::ZERO);
    }
    let mut blocked = Duration::ZERO;
    loop {
        let (env, d) = io.endpoint.borrow_mut().blocking_next(expose);
        blocked += d;
        let epoch = io.endpoint.borrow().recovery_epoch();
        if env.src_world == src_world
            && env.comm_id == comm_id
            && env.tag == tag
            && env.epoch == epoch
        {
            match env.payload {
                Payload::Value(v) => return (v, env.sent_at, blocked),
                // `blocking_next` already handles the markers.
                Payload::Poison | Payload::Failed { .. } => {
                    unreachable!("markers are handled at drain")
                }
            }
        }
        route_envelope(io, env);
    }
}

/// Drains every envelope currently in the inbox without blocking, routing
/// each through the progress engine (the non-blocking progress pump behind
/// [`Request::test`]).
pub(crate) fn pump(io: &RankIo) {
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

/// Assembles a composite request's value from its payloads in part order.
type Finish<T> = Box<dyn FnOnce(Vec<Box<dyn Any + Send>>) -> T>;

/// One pending direct receive of a composite request.
struct PartRecv {
    src_world: usize,
    comm_id: u64,
    tag: Tag,
    got: Option<(Box<dyn Any + Send>, Instant)>,
}

enum State<T> {
    /// Waiting on one or more direct receives; `finish` assembles the value
    /// from the payloads in part order.
    Parts {
        parts: Vec<PartRecv>,
        finish: Option<Finish<T>>,
    },
    /// Waiting on a progress action to fill the slot (tree collectives whose
    /// arrival also forwards to children); the instant is the payload's
    /// availability stamp.
    Slot(Rc<RefCell<Option<(T, Instant)>>>),
}

/// A handle to an in-flight nonblocking operation, returned by
/// [`crate::Comm::isend`], [`crate::Comm::irecv`],
/// [`crate::Comm::ibcast_shared`] and [`crate::Comm::ialltoallv`].
///
/// Complete it with [`Request::wait`] (blocking) or drive it with
/// [`Request::test`] (non-blocking progress). Requests may be waited in any
/// order; out-of-order arrivals are buffered and matched by
/// `(source, communicator, tag)`. Two receives concurrently outstanding
/// under the *same* key would match in wait-order rather than MPI's
/// post-order, so posting one panics at issue — use distinct tags.
///
/// # Panics
/// Dropping a request that has not completed panics (after one final
/// non-blocking progress attempt): an abandoned in-flight collective would
/// otherwise deadlock peers. During unwinding the check is skipped so a
/// failing rank can poison the network cleanly.
pub struct Request<T: 'static> {
    io: RankIo,
    state: Option<State<T>>,
    /// `(value, timing)` once completed and not yet consumed.
    result: Option<(T, Overlap)>,
    issued: Instant,
    /// The rank's cumulative inbox-blocked ns at issue (see
    /// `Endpoint::blocked_ns_total`).
    blocked_ns_at_issue: u64,
    blocked: Duration,
    /// Whether completion should be charged to the overlap meter (false for
    /// requests that were ready at issue, e.g. buffered sends and `p = 1`
    /// short-circuits, which have no communication window).
    metered: bool,
    what: &'static str,
}

impl<T: 'static> Request<T> {
    pub(crate) fn ready(io: RankIo, value: T, what: &'static str) -> Self {
        Self {
            io,
            state: None,
            result: Some((value, Overlap::default())),
            issued: Instant::now(),
            blocked_ns_at_issue: 0,
            blocked: Duration::ZERO,
            metered: false,
            what,
        }
    }

    pub(crate) fn from_parts(
        io: RankIo,
        parts: Vec<(usize, u64, Tag)>,
        finish: Finish<T>,
        what: &'static str,
    ) -> Self {
        let blocked_ns_at_issue = io_blocked_ns(&io);
        {
            let mut progress = io.progress.borrow_mut();
            for &key in &parts {
                progress.post_recv(key);
            }
        }
        Self {
            io,
            state: Some(State::Parts {
                parts: parts
                    .into_iter()
                    .map(|(src_world, comm_id, tag)| PartRecv {
                        src_world,
                        comm_id,
                        tag,
                        got: None,
                    })
                    .collect(),
                finish: Some(Box::new(finish)),
            }),
            result: None,
            issued: Instant::now(),
            blocked_ns_at_issue,
            blocked: Duration::ZERO,
            metered: true,
            what,
        }
    }

    pub(crate) fn from_slot(
        io: RankIo,
        slot: Rc<RefCell<Option<(T, Instant)>>>,
        what: &'static str,
    ) -> Self {
        let blocked_ns_at_issue = io_blocked_ns(&io);
        Self {
            io,
            state: Some(State::Slot(slot)),
            result: None,
            issued: Instant::now(),
            blocked_ns_at_issue,
            blocked: Duration::ZERO,
            metered: true,
            what,
        }
    }

    /// Moves an already-satisfied state into `result`, recording overlap.
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

    /// Attempts completion without blocking: first consumes any
    /// already-buffered arrivals, then pumps the inbox once.
    fn try_complete(&mut self) -> bool {
        if self.result.is_some() || self.state.is_none() {
            return true;
        }
        pump(&self.io);
        let state = self.state.take().expect("incomplete request has state");
        match state {
            State::Slot(slot) => {
                let filled = slot.borrow_mut().take();
                match filled {
                    Some((v, available_at)) => {
                        self.finalize(v, available_at);
                        true
                    }
                    None => {
                        self.state = Some(State::Slot(slot));
                        false
                    }
                }
            }
            State::Parts { mut parts, finish } => {
                let mut missing = 0usize;
                for part in parts.iter_mut() {
                    if part.got.is_none() {
                        part.got = self.io.endpoint.borrow_mut().take_pending(
                            part.src_world,
                            part.comm_id,
                            part.tag,
                        );
                        if part.got.is_none() {
                            missing += 1;
                        }
                    }
                }
                if missing == 0 {
                    {
                        let mut progress = self.io.progress.borrow_mut();
                        for part in &parts {
                            progress.unpost_recv((part.src_world, part.comm_id, part.tag));
                        }
                    }
                    // The window closes when the *last* payload arrived.
                    let available_at = parts
                        .iter()
                        .map(|p| p.got.as_ref().expect("all parts arrived").1)
                        .max()
                        .expect("composite request has at least one part");
                    let payloads = parts
                        .into_iter()
                        .map(|p| p.got.expect("all parts arrived").0)
                        .collect();
                    let finish = finish.expect("finish not yet consumed");
                    let value = finish(payloads);
                    self.finalize(value, available_at);
                    true
                } else {
                    self.state = Some(State::Parts { parts, finish });
                    false
                }
            }
        }
    }

    /// Blocks until every outstanding part has arrived, then finalizes.
    fn complete_blocking(&mut self) {
        if self.try_complete() {
            return;
        }
        loop {
            // Re-check cheap completion (a routed envelope may have filled
            // the slot / buffered a part).
            if self.try_complete() {
                return;
            }
            let (env, d) = self.io.endpoint.borrow_mut().blocking_next(true);
            self.blocked += d;
            route_envelope(&self.io, env);
        }
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
        // The wait span carries the request's full time attribution: how
        // long this wait was exposed, and how much of the communication
        // window local compute covered (from the envelope availability
        // stamps — see "Time attribution" above).
        let mut sp = dspgemm_obs::span("comm", self.what);
        self.complete_blocking();
        let (value, timing) = self.result.take().expect("completed request has a result");
        if dspgemm_obs::enabled() {
            let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            sp.set_attr("window_ns", ns(timing.window));
            sp.set_attr("exposed_ns", ns(timing.exposed));
            sp.set_attr("overlapped_ns", ns(timing.overlapped()));
        }
        (value, timing)
    }

    /// Bounded-blocking completion: waits up to `timeout` for the
    /// operation, returning `Err(CommError::Timeout)` if it is still in
    /// flight when the deadline passes. The request stays alive and armed
    /// across a timeout — call `wait_deadline` again (or [`Request::wait`])
    /// to keep waiting — which is what lets recovery code distinguish a
    /// *slow* peer (later wait succeeds) from a *dead* one (the wait
    /// surfaces [`CommError::PeerFailed`] once the failure marker arrives).
    ///
    /// On success the value is returned and the request is spent; a second
    /// call after `Ok` would find no result, so take `Ok` once.
    pub fn wait_deadline(&mut self, timeout: Duration) -> Result<(T, Overlap), CommError> {
        let mut sp = dspgemm_obs::span("comm", self.what);
        let deadline = Instant::now() + timeout;
        loop {
            if self.try_complete() {
                let (value, timing) = self.result.take().expect("completed request has a result");
                if dspgemm_obs::enabled() {
                    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                    sp.set_attr("window_ns", ns(timing.window));
                    sp.set_attr("exposed_ns", ns(timing.exposed));
                    sp.set_attr("overlapped_ns", ns(timing.overlapped()));
                }
                return Ok((value, timing));
            }
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
                    sp.set_attr("timed_out", 1);
                    return Err(err);
                }
            }
        }
    }
}

impl<T: 'static> Drop for Request<T> {
    fn drop(&mut self) {
        // Unwinding (e.g. a peer's poison) must not double-panic.
        if std::thread::panicking() {
            return;
        }
        // Completed (result possibly already consumed by `wait`).
        if self.state.is_none() {
            return;
        }
        // One final deterministic, non-blocking completion attempt: a request
        // whose traffic already arrived completes and is discarded.
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
