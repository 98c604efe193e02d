//! Rank endpoints: the inbox, metering, and fault machinery over a
//! [`Transport`].

use crate::fault::{CommError, FaultPlan};
use crate::message::{Envelope, Payload, Tag};
use crate::stats::{CommCategory, CommStats, Meter};
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dspgemm_util::hash::mix64;
use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state of a simulated cluster: `p` inboxes and the byte meter.
pub(crate) struct Network {
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Option<Receiver<Envelope>>>,
    meter: Arc<Meter>,
    plan: Arc<FaultPlan>,
}

impl Network {
    pub(crate) fn new_with_plan(p: usize, plan: FaultPlan) -> Self {
        assert!(p >= 1, "need at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        Self {
            senders,
            receivers,
            meter: Meter::new(p),
            plan: Arc::new(plan),
        }
    }

    /// Takes rank `r`'s endpoint (inbox receiver plus the channel-mesh
    /// transport). Each rank's endpoint can be taken exactly once.
    pub(crate) fn endpoint(&mut self, rank: usize) -> Endpoint {
        Endpoint::with_transport(
            rank,
            self.receivers[rank].take().expect("endpoint taken twice"),
            Transport::Local {
                peers: self.senders.clone(),
            },
            Arc::clone(&self.meter),
            Arc::clone(&self.plan),
        )
    }

    pub(crate) fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }
}

/// A single rank's connection to the network.
///
/// The endpoint only moves envelopes; *matching policy* (the one receive
/// path and its progress engine) lives in `request`, which drives the
/// primitives below so that every blocking drain can advance pending
/// collectives.
pub(crate) struct Endpoint {
    pub(crate) rank: usize,
    inbox: Receiver<Envelope>,
    transport: Transport,
    meter: Arc<Meter>,
    /// Messages received but not yet matched (out-of-order arrivals).
    pending: Vec<Envelope>,
    /// Cumulative nanoseconds this rank has spent blocked on the inbox
    /// (all waits, including barriers). The nonblocking layer samples it at
    /// request issue and completion so time blocked in *other* operations is
    /// never misattributed as compute-overlapped communication.
    blocked_ns: u64,
    /// The run's delay schedule (an empty plan outside `run_with_faults`).
    plan: Arc<FaultPlan>,
    /// Sends issued by this rank so far (the fault hook's operation index).
    /// `Cell`: `send_envelope` takes `&self` under shared `RefCell` borrows
    /// at every call site.
    sends: Cell<u64>,
    /// Crash before this (1-based) send index, if armed.
    crash_at: Cell<Option<u64>>,
    /// Whether this rank already simulated its crash (the replacement
    /// thread must not crash again on the same trigger).
    crashed: Cell<bool>,
    /// Current recovery epoch. Incremented by the recovery protocol;
    /// stamped on every outgoing envelope and matched exactly on receive.
    epoch: Cell<u64>,
    /// Peers whose `Failed` markers this rank has drained.
    failed: RefCell<Vec<usize>>,
    /// Marker-to-drain latency of the most recent failure detection.
    last_detect_ns: Cell<u64>,
}

impl Endpoint {
    /// Builds an endpoint from its receive inbox and outgoing transport.
    /// Used by [`Network::endpoint`] (channel mesh) and the TCP backend's
    /// per-process bootstrap.
    pub(crate) fn with_transport(
        rank: usize,
        inbox: Receiver<Envelope>,
        transport: Transport,
        meter: Arc<Meter>,
        plan: Arc<FaultPlan>,
    ) -> Endpoint {
        Endpoint {
            rank,
            inbox,
            transport,
            meter,
            pending: Vec::new(),
            blocked_ns: 0,
            plan,
            sends: Cell::new(0),
            crash_at: Cell::new(None),
            crashed: Cell::new(false),
            epoch: Cell::new(0),
            failed: RefCell::new(Vec::new()),
            last_detect_ns: Cell::new(0),
        }
    }

    /// Whether payloads to world rank `dst` must be wire-encoded before
    /// sending (true only for remote peers of a real-wire transport).
    #[inline]
    pub(crate) fn encodes_to(&self, dst_world: usize) -> bool {
        self.transport.encodes_to(dst_world)
    }

    /// Snapshot of the whole network's counters (benchmark instrumentation).
    pub(crate) fn stats_snapshot(&self) -> CommStats {
        self.meter.snapshot()
    }

    /// Records compute-hidden request lifetime for this rank (the
    /// nonblocking layer's overlap attribution).
    #[inline]
    pub(crate) fn record_overlapped_ns(&self, ns: u64) {
        self.meter.record_overlapped(self.rank, ns);
    }

    /// Cumulative nanoseconds this rank has spent blocked on the inbox.
    #[inline]
    pub(crate) fn blocked_ns_total(&self) -> u64 {
        self.blocked_ns
    }

    /// Current recovery epoch of this rank.
    #[inline]
    pub(crate) fn recovery_epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Marker-to-drain latency (ns) of the most recent failure detection.
    #[inline]
    pub(crate) fn last_detect_ns(&self) -> u64 {
        self.last_detect_ns.get()
    }

    /// Peers whose failure this rank has detected so far (drained markers).
    pub(crate) fn failed_ranks(&self) -> Vec<usize> {
        self.failed.borrow().clone()
    }

    /// Drains the detected-failure set (recovery protocols consume it once
    /// per incident so a later failure starts from a clean slate).
    pub(crate) fn take_failed_ranks(&self) -> Vec<usize> {
        std::mem::take(&mut *self.failed.borrow_mut())
    }

    /// Whether this rank's thread already simulated a crash.
    #[inline]
    pub(crate) fn has_crashed(&self) -> bool {
        self.crashed.get()
    }

    /// Arms a simulated crash `after` sends from now (1 = the very next
    /// send aborts). Re-arming clears a previous trigger.
    pub(crate) fn arm_crash(&self, after: u64) {
        assert!(after >= 1, "arm_crash is 1-based: 1 crashes the next send");
        self.crash_at.set(Some(self.sends.get() + after));
        self.crashed.set(false);
    }

    /// Disarms a pending simulated crash.
    pub(crate) fn disarm_crash(&self) {
        self.crash_at.set(None);
    }

    /// Enters the next recovery epoch: stale buffered envelopes (aborted
    /// rounds, failure markers) are purged and subsequent sends are stamped
    /// with the new epoch. Returns the new epoch.
    pub(crate) fn advance_epoch(&mut self) -> u64 {
        let e = self.epoch.get() + 1;
        self.epoch.set(e);
        self.pending
            .retain(|env| env.epoch >= e && matches!(env.payload, Payload::Value(_)));
        e
    }

    fn note_failed(&self, rank: usize) {
        let mut failed = self.failed.borrow_mut();
        if !failed.contains(&rank) {
            failed.push(rank);
        }
    }

    /// Fault hook run before every send. Order matters: an armed crash
    /// fires *before* the send is metered or delivered ("crash before the
    /// k-th send"), while a delay storm runs after the crash check but
    /// before delivery.
    fn inject_send_faults(&self) {
        let op = self.sends.get() + 1;
        self.sends.set(op);
        if let Some(at) = self.crash_at.get() {
            if op >= at && !self.crashed.get() {
                self.simulate_crash();
            }
        }
        if let Some(d) = self.plan.delay {
            let h = mix64(self.plan.seed ^ ((self.rank as u64) << 40) ^ op);
            if h.is_multiple_of(d.every) && d.max_micros > 0 {
                std::thread::sleep(Duration::from_micros((h >> 32) % d.max_micros));
            }
        }
    }

    /// Simulates this rank's crash: a `Failed` marker goes to every peer
    /// (so each survivor's next drain aborts its round recoverably) and the
    /// calling thread unwinds with [`CommError::Crashed`], which the
    /// harness can catch to rejoin as the replacement rank.
    fn simulate_crash(&self) -> ! {
        self.crashed.set(true);
        self.crash_at.set(None);
        let now = Instant::now();
        for dst in 0..self.transport.len() {
            if dst != self.rank {
                let _ = self.transport.deliver(
                    dst,
                    Envelope {
                        src_world: self.rank,
                        comm_id: 0,
                        tag: Tag(0),
                        epoch: self.epoch.get(),
                        payload: Payload::Failed { rank: self.rank },
                        sent_at: now,
                    },
                );
            }
        }
        dspgemm_obs::instant("comm", "simulated_crash", &[("rank", self.rank as u64)]);
        resume_unwind(Box::new(CommError::Crashed { rank: self.rank }))
    }

    /// Sends an envelope, attributing `bytes` to `category`.
    pub(crate) fn send_envelope(
        &self,
        dst_world: usize,
        comm_id: u64,
        tag: Tag,
        payload: Payload,
        category: CommCategory,
        bytes: u64,
    ) {
        self.inject_send_faults();
        self.meter.record(self.rank, category, bytes);
        let env = Envelope {
            src_world: self.rank,
            comm_id,
            tag,
            epoch: self.epoch.get(),
            payload,
            sent_at: Instant::now(),
        };
        if self.transport.deliver(dst_world, env).is_err() {
            // On the channel mesh a closed inbox only happens after a
            // poison-panic elsewhere — fail loudly. On a real wire a dead
            // peer process is a *detected failure*: surface the same typed
            // error the marker path raises so recovery handles both.
            if self.transport.encodes_to(dst_world) {
                self.note_failed(dst_world);
                dspgemm_obs::instant("comm", "peer_failed", &[("rank", dst_world as u64)]);
                resume_unwind(Box::new(CommError::PeerFailed { rank: dst_world }));
            }
            panic!("peer rank inbox closed (peer exited early)");
        }
    }

    /// Broadcasts a poison marker to every other rank (called on panic).
    pub(crate) fn poison_all(&self) {
        for dst in 0..self.transport.len() {
            if dst != self.rank {
                // Ignore unreachable peers; they may have already exited.
                let _ = self.transport.deliver(
                    dst,
                    Envelope {
                        src_world: self.rank,
                        comm_id: 0,
                        tag: Tag(0),
                        epoch: self.epoch.get(),
                        payload: Payload::Poison,
                        sent_at: Instant::now(),
                    },
                );
            }
        }
    }

    /// Screens a drained envelope: values from the current epoch pass,
    /// stale traffic (previous epochs — stragglers of an aborted round) is
    /// dropped, poison fails fast, and a current `Failed` marker aborts the
    /// round with a recoverable [`CommError::PeerFailed`].
    fn screen(&self, env: Envelope) -> Option<Envelope> {
        match env.payload {
            Payload::Poison => panic!("peer rank {} panicked", env.src_world),
            Payload::Failed { rank } => {
                self.note_failed(rank);
                if env.epoch < self.epoch.get() {
                    // A marker from an epoch this rank already recovered
                    // past: the incident was handled, drop it.
                    None
                } else {
                    let detect = env.sent_at.elapsed().as_nanos() as u64;
                    self.last_detect_ns.set(detect);
                    dspgemm_obs::instant(
                        "comm",
                        "peer_failed",
                        &[("rank", rank as u64), ("detect_ns", detect)],
                    );
                    resume_unwind(Box::new(CommError::PeerFailed { rank }))
                }
            }
            Payload::Value(_) => {
                if env.epoch < self.epoch.get() {
                    None
                } else {
                    Some(env)
                }
            }
        }
    }

    /// Takes the oldest buffered envelope matching `(src, comm, tag)` in
    /// the current epoch, if one arrived before its receive was issued.
    /// Returns the payload and the moment the sender made it available.
    pub(crate) fn take_pending(
        &mut self,
        src_world: usize,
        comm_id: u64,
        tag: Tag,
    ) -> Option<(Box<dyn std::any::Any + Send>, Instant)> {
        let epoch = self.epoch.get();
        let pos = self.pending.iter().position(|e| {
            e.src_world == src_world && e.comm_id == comm_id && e.tag == tag && e.epoch == epoch
        })?;
        let env = self.pending.remove(pos);
        match env.payload {
            Payload::Value(v) => Some((v, env.sent_at)),
            Payload::Poison => panic!("peer rank {src_world} panicked"),
            Payload::Failed { .. } => unreachable!("failure markers never match a receive"),
        }
    }

    /// Buffers an envelope that matched no registered arrival action
    /// (preserves MPI's non-overtaking guarantee per (source, comm, tag)).
    pub(crate) fn buffer(&mut self, env: Envelope) {
        self.pending.push(env);
    }

    /// Non-blocking poll of the inbox. Receipt of poison panics; a failure
    /// marker raises [`CommError::PeerFailed`]; stale-epoch traffic is
    /// dropped and polling continues.
    pub(crate) fn try_next(&mut self) -> Option<Envelope> {
        loop {
            let env = self.inbox.try_recv().ok()?;
            if let Some(env) = self.screen(env) {
                return Some(env);
            }
        }
    }

    /// Blocking receive of the next envelope, returning the time this rank
    /// spent blocked. With `record_exposed`, the blocked time is recorded
    /// into the meter as *exposed* communication time — callers pass `false`
    /// for pure-synchronization waits (barriers), whose skew is
    /// load-imbalance, not communication cost. Receipt of poison panics;
    /// a failure marker raises [`CommError::PeerFailed`].
    pub(crate) fn blocking_next(&mut self, record_exposed: bool) -> (Envelope, Duration) {
        match self.blocking_next_deadline(record_exposed, None) {
            Ok(v) => v,
            Err(_) => unreachable!("no deadline was set"),
        }
    }

    /// [`Endpoint::blocking_next`] with an optional deadline. Past the
    /// deadline, returns [`CommError::Timeout`] instead of an envelope; the
    /// inbox is untouched beyond what was already drained, so the caller
    /// can keep waiting later.
    pub(crate) fn blocking_next_deadline(
        &mut self,
        record_exposed: bool,
        deadline: Option<Instant>,
    ) -> Result<(Envelope, Duration), CommError> {
        let t = Instant::now();
        loop {
            let env = match deadline {
                None => self
                    .inbox
                    .recv()
                    .expect("network closed while waiting for message"),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    let got = if remaining.is_zero() {
                        Err(RecvTimeoutError::Timeout)
                    } else {
                        self.inbox.recv_timeout(remaining)
                    };
                    match got {
                        Ok(env) => env,
                        Err(RecvTimeoutError::Timeout) => {
                            let blocked = t.elapsed();
                            self.blocked_ns += blocked.as_nanos() as u64;
                            if record_exposed {
                                self.meter
                                    .record_exposed(self.rank, blocked.as_nanos() as u64);
                            }
                            return Err(CommError::Timeout { waited: blocked });
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            panic!("network closed while waiting for message")
                        }
                    }
                }
            };
            if let Some(env) = self.screen(env) {
                let blocked = t.elapsed();
                self.blocked_ns += blocked.as_nanos() as u64;
                if record_exposed {
                    self.meter
                        .record_exposed(self.rank, blocked.as_nanos() as u64);
                }
                return Ok((env, blocked));
            }
        }
    }
}
