//! Communicators: point-to-point messaging and collective operations.
//!
//! Each collective has one body. The broadcasts share one binomial tree
//! and the all-to-alls one exchange, both written in nonblocking form; the
//! blocking `bcast` / `alltoallv` are that form plus `wait`, so tags, tree
//! shape, send order and metering are the same whether a caller pipelines
//! or not. Every tree edge and ring step forwards `T::clone`; the `_shared`
//! forms are the instantiation at `Arc<T>`, where that clone is a refcount
//! increment and the pointee needs no `Clone` bound — the type proves they
//! never copy a payload. The only thing the network counts is [`crate::CommStats`].

use crate::message::{Payload, Tag};
use crate::network::Endpoint;
use crate::request::{RankIo, Request};
use crate::stats::CommCategory;
use dspgemm_util::hash::mix64;
use dspgemm_util::{decode_from_slice, WireBytes, WireDecode, WireSize};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

/// A communicator: an ordered group of ranks with isolated message matching,
/// point-to-point operations and collectives — the moral equivalent of an
/// `MPI_Comm`.
///
/// Communicators follow the MPI SPMD contract: all members must call the same
/// sequence of collective operations on a communicator. Point-to-point tags
/// live in a per-communicator namespace, so traffic on a row communicator can
/// never be confused with traffic on the world communicator.
///
/// `Comm` is intentionally **not** `Send`: it belongs to its rank's thread,
/// just as an `MPI_Comm` belongs to its process.
pub struct Comm {
    io: RankIo,
    /// World rank of each group member, indexed by group rank.
    members: Arc<[usize]>,
    /// This rank's position within `members`.
    my_rank: usize,
    comm_id: u64,
    /// Sequence number for collective calls (isolates back-to-back
    /// collectives from one another).
    coll_seq: Cell<u64>,
    /// Sequence number for `split` calls (derives child communicator ids).
    split_seq: Cell<u64>,
}

/// World communicator id. Children derive theirs deterministically.
const WORLD_COMM_ID: u64 = 0x5747_1d00_c0a1_e5ce;

impl Comm {
    /// Builds the world communicator for one rank (runtime-internal).
    pub(crate) fn world(endpoint: Endpoint, size: usize) -> Self {
        let rank = endpoint.rank;
        Comm {
            io: RankIo::new(endpoint),
            members: (0..size).collect::<Vec<_>>().into(),
            my_rank: rank,
            comm_id: WORLD_COMM_ID,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// This rank's position within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn next_coll_tag(&self, round: u64) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        Tag::internal((seq << 16) | round)
    }

    #[inline]
    fn coll_tag(base: Tag, round: u64) -> Tag {
        debug_assert!(round < (1 << 16));
        Tag(base.0 | round)
    }

    fn send_internal<T: Send + WireSize + 'static>(
        &self,
        dst: usize,
        tag: Tag,
        value: T,
        category: CommCategory,
        bytes: u64,
    ) {
        let dst_world = self.members[dst];
        let ep = self.io.endpoint.borrow();
        let payload = pack_payload(&ep, dst_world, value, bytes);
        ep.send_envelope(dst_world, self.comm_id, tag, payload, category, bytes);
    }

    /// The one receive: a request for one `T` from group rank `src` under
    /// `tag` (see `request`'s "One receive path").
    fn recv_request<T: Send + WireDecode + 'static>(
        &self,
        src: usize,
        tag: Tag,
        what: &'static str,
    ) -> Request<T> {
        Request::recv(
            self.io.clone(),
            vec![(self.members[src], self.comm_id, tag)],
            Box::new(move |mut payloads| {
                downcast_payload(payloads.pop().expect("one part"), src, tag)
            }),
            what,
        )
    }

    /// A collective's blocking receive step: `recv_request` plus `wait`,
    /// metered as exposed time and traced under the collective's span.
    fn recv_internal<T: Send + WireDecode + 'static>(&self, src: usize, tag: Tag) -> T {
        self.recv_request(src, tag, "recv").wait_blocking(true).0
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends `value` to group rank `dst` under user `tag`.
    ///
    /// Sends are buffered (never block); matching follows MPI semantics:
    /// non-overtaking per (source, tag).
    pub fn send<T: Send + WireSize + 'static>(&self, dst: usize, tag: u64, value: T) {
        let bytes = value.wire_bytes();
        let _sp = dspgemm_obs::span("comm", "send").attr("bytes", bytes);
        self.send_internal(dst, Tag::user(tag), value, CommCategory::P2p, bytes);
    }

    /// Blocking receive of a `T` from group rank `src` under user `tag`.
    pub fn recv<T: Send + WireDecode + 'static>(&self, src: usize, tag: u64) -> T {
        let mut sp = dspgemm_obs::span("comm", "recv");
        let (value, timing) = self
            .recv_request(src, Tag::user(tag), "recv")
            .wait_blocking(true);
        let exposed = timing.exposed.as_nanos();
        sp.set_attr("exposed_ns", u64::try_from(exposed).unwrap_or(u64::MAX));
        value
    }

    /// Combined send-to-`dst` / receive-from-`src` (deadlock-free, like
    /// `MPI_Sendrecv`). Used for Algorithm 2's `A^R` exchange, where
    /// process `(i, j)` swaps blocks with process `(j, i)`.
    ///
    /// Implemented in prepost-irecv form: the receive is posted before the
    /// send, so both directions of the exchange are in flight at once and
    /// the wait is pure arrival time.
    ///
    /// Like every point-to-point call it moves an `Arc<T>` as a handle: the
    /// payload is never copied in-process, and the meter charges the
    /// pointee's packed size ([`WireSize`] is transparent over `Arc`).
    pub fn sendrecv<T: Send + WireSize + 'static, U: Send + WireDecode + 'static>(
        &self,
        dst: usize,
        send_value: T,
        src: usize,
        tag: u64,
    ) -> U {
        let recv = self.irecv::<U>(src, tag);
        self.send(dst, tag, send_value);
        recv.wait()
    }

    // ------------------------------------------------------------------
    // Nonblocking operations
    // ------------------------------------------------------------------

    /// Nonblocking receive of a `T` from group rank `src` under user `tag`.
    /// Complete with [`Request::wait`]; poll with [`Request::test`].
    pub fn irecv<T: Send + WireDecode + 'static>(&self, src: usize, tag: u64) -> Request<T> {
        self.recv_request(src, Tag::user(tag), "irecv")
    }

    /// Nonblocking zero-copy broadcast: the binomial tree of [`Comm::bcast`]
    /// instantiated at `Arc<T>`, issued immediately and completed later.
    ///
    /// The root performs its tree sends at issue. A non-root issues the one
    /// receive, from its parent, with a `finish` that forwards: when the
    /// parent's envelope is drained — inside *any* blocking or polling call
    /// on this rank, not just this request's `wait` — the payload is
    /// forwarded to the subtree children and the request becomes ready.
    /// This is what lets a pipelined schedule keep round `k + 1`'s panels
    /// flowing while every rank is busy multiplying round `k`.
    pub fn ibcast_shared<T: Send + Sync + WireSize + WireDecode + 'static>(
        &self,
        root: usize,
        value: Option<Arc<T>>,
    ) -> Request<Arc<T>> {
        self.ibcast_with(root, value, "ibcast_shared")
    }

    /// The one binomial broadcast tree: each edge forwards `v.clone()`, so
    /// tags, edges, send order and metering are the same for every `T`.
    fn ibcast_with<T: Clone + Send + WireSize + WireDecode + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        what: &'static str,
    ) -> Request<T> {
        let p = self.size();
        // Single-rank short-circuit: no tag, no channel slot, no metering —
        // a 1×1 grid pays zero communication overhead.
        if p == 1 {
            let v = value.expect("root must supply the broadcast value");
            return Request::ready(self.io.clone(), v, what);
        }
        let tag = self.next_coll_tag(0);
        let vrank = (self.my_rank + p - root) % p;
        let (parent, children) = bcast_tree_shape(p, vrank);
        let child_worlds: Vec<usize> = children
            .iter()
            .map(|&cv| self.members[(cv + root) % p])
            .collect();
        let (io, comm_id) = (self.io.clone(), self.comm_id);
        // Sends `v` down this rank's tree edges: at issue on the root, on
        // the parent's arrival everywhere else.
        let forward = move |v: &T| {
            let ep = io.endpoint.borrow();
            for &dst_world in &child_worlds {
                let bytes = v.wire_bytes();
                let payload = pack_payload(&ep, dst_world, v.clone(), bytes);
                ep.send_envelope(dst_world, comm_id, tag, payload, CommCategory::Bcast, bytes);
            }
        };
        let Some(parent_vrank) = parent else {
            let v = value.expect("root must supply the broadcast value");
            forward(&v);
            return Request::ready(self.io.clone(), v, what);
        };
        assert!(value.is_none(), "non-root rank passed a broadcast value");
        let parent_rank = (parent_vrank + root) % p;
        Request::recv(
            self.io.clone(),
            vec![(self.members[parent_rank], self.comm_id, tag)],
            Box::new(move |mut payloads| {
                let v: T = downcast_payload(payloads.pop().expect("one part"), parent_rank, tag);
                forward(&v);
                v
            }),
            what,
        )
    }

    /// Nonblocking personalized all-to-all, the one exchange body
    /// ([`Comm::alltoallv`] is this call plus `wait`): `out[dst]` is sent to
    /// rank `dst` at issue (buffered; cannot deadlock), the `p - 1` receives
    /// complete at `wait`/`test` and come back indexed by source rank. The
    /// own chunk is moved through locally without touching the meter,
    /// matching MPI self-sends being free in practice.
    pub fn ialltoallv<T: Send + WireSize + WireDecode + 'static>(
        &self,
        mut out: Vec<Vec<T>>,
    ) -> Request<Vec<Vec<T>>> {
        let p = self.size();
        assert_eq!(out.len(), p, "alltoallv needs one chunk per destination");
        let tag = self.next_coll_tag(0);
        let own = std::mem::take(&mut out[self.my_rank]);
        for (dst, chunk_slot) in out.iter_mut().enumerate() {
            if dst != self.my_rank {
                let chunk = std::mem::take(chunk_slot);
                let bytes = chunk.wire_bytes();
                self.send_internal(dst, tag, chunk, CommCategory::Alltoall, bytes);
            }
        }
        if p == 1 {
            return Request::ready(self.io.clone(), vec![own], "ialltoallv");
        }
        let my_rank = self.my_rank;
        let srcs: Vec<usize> = (0..p).filter(|&s| s != my_rank).collect();
        let parts: Vec<(usize, u64, Tag)> = srcs
            .iter()
            .map(|&s| (self.members[s], self.comm_id, tag))
            .collect();
        Request::recv(
            self.io.clone(),
            parts,
            Box::new(move |payloads| {
                let mut result: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
                result[my_rank] = Some(own);
                for (src, boxed) in srcs.into_iter().zip(payloads) {
                    result[src] = Some(downcast_payload(boxed, src, tag));
                }
                result
                    .into_iter()
                    .map(|o| o.expect("chunk from every source"))
                    .collect()
            }),
            "ialltoallv",
        )
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Synchronizes all ranks (dissemination barrier, `O(log p)` rounds).
    pub fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let _sp = dspgemm_obs::span("comm", "barrier");
        let base = self.next_coll_tag(0);
        let mut k = 1usize;
        let mut round = 0u64;
        while k < p {
            let dst = (self.my_rank + k) % p;
            let src = (self.my_rank + p - k) % p;
            let tag = Self::coll_tag(base, round);
            self.send_internal(dst, tag, (), CommCategory::Barrier, 0);
            self.recv_request::<()>(src, tag, "barrier")
                .wait_blocking(false);
            k <<= 1;
            round += 1;
        }
    }

    /// Broadcasts a value from `root` to all ranks (binomial tree,
    /// `O(log p)` rounds). The root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value.
    ///
    /// The nonblocking tree plus `wait`, under the `comm/bcast` span (none
    /// on a single rank, where nothing is sent). Each tree edge forwards
    /// `value.clone()`; payload-sized values should use
    /// [`Comm::bcast_shared`], where that clone is a refcount increment.
    pub fn bcast<T: Clone + Send + WireSize + WireDecode + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> T {
        if self.size() == 1 {
            return value.expect("root must supply the broadcast value");
        }
        let mut sp = dspgemm_obs::span("comm", "bcast");
        let v = self.ibcast_with(root, value, "ibcast").wait();
        if dspgemm_obs::enabled() {
            sp.set_attr("bytes", v.wire_bytes());
        }
        v
    }

    /// Zero-copy broadcast: [`Comm::bcast`] instantiated at `Arc<T>`, so
    /// each tree edge moves one handle — a refcount increment, never a deep
    /// copy. `T` needs no `Clone` bound, which proves this call cannot copy
    /// the payload. The meter charges each edge the pointee's packed size
    /// ([`WireSize`] is transparent over `Arc`), the same volume a real
    /// MPI run sends; see `DESIGN.md` on what the simulator meters versus
    /// what it moves.
    pub fn bcast_shared<T: Send + Sync + WireSize + WireDecode + 'static>(
        &self,
        root: usize,
        value: Option<Arc<T>>,
    ) -> Arc<T> {
        self.bcast(root, value)
    }

    /// Gathers one value per rank at `root` (group-rank order). Returns
    /// `Some(values)` at the root, `None` elsewhere.
    pub fn gather<T: Send + WireSize + WireDecode + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Option<Vec<T>> {
        let _sp = dspgemm_obs::span("comm", "gather");
        let tag = self.next_coll_tag(0);
        if self.my_rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_internal(src, tag));
                }
            }
            Some(out.into_iter().map(|o| o.expect("gathered")).collect())
        } else {
            let bytes = value.wire_bytes();
            self.send_internal(root, tag, value, CommCategory::Gather, bytes);
            None
        }
    }

    /// Allgather: every rank contributes one value and receives the vector of
    /// all values in group-rank order (ring algorithm, `p - 1` rounds).
    ///
    /// Each ring round forwards `value.clone()`; payload-sized values should
    /// use [`Comm::allgather_shared`], where that clone is a refcount
    /// increment.
    pub fn allgather<T: Clone + Send + WireSize + WireDecode + 'static>(&self, value: T) -> Vec<T> {
        let p = self.size();
        let base = self.next_coll_tag(0);
        let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
        slots[self.my_rank] = Some(value);
        if p == 1 {
            return slots.into_iter().map(|o| o.expect("own value")).collect();
        }
        let mut sp = dspgemm_obs::span("comm", "allgather");
        let mut sent_bytes = 0u64;
        let right = (self.my_rank + 1) % p;
        let left = (self.my_rank + p - 1) % p;
        for r in 0..p - 1 {
            let tag = Self::coll_tag(base, r as u64);
            // Forward the value that originated at (rank - r), receive the one
            // that originated at (rank - r - 1).
            let send_origin = (self.my_rank + p - r) % p;
            let recv_origin = (self.my_rank + p - r - 1) % p;
            let v = slots[send_origin]
                .as_ref()
                .expect("value to forward")
                .clone();
            let bytes = v.wire_bytes();
            sent_bytes += bytes;
            self.send_internal(right, tag, v, CommCategory::Gather, bytes);
            slots[recv_origin] = Some(self.recv_internal(left, tag));
        }
        sp.set_attr("bytes", sent_bytes);
        slots
            .into_iter()
            .map(|o| o.expect("allgather slot"))
            .collect()
    }

    /// Zero-copy allgather: [`Comm::allgather`] instantiated at `Arc<T>`, so
    /// every ring step moves one handle — a refcount increment, never a deep
    /// copy. `T` needs no `Clone` bound, which proves this call cannot copy
    /// the payload; each step is metered at the pointee's packed size.
    pub fn allgather_shared<T: Send + Sync + WireSize + WireDecode + 'static>(
        &self,
        value: Arc<T>,
    ) -> Vec<Arc<T>> {
        self.allgather(value)
    }

    /// Personalized all-to-all: `out[dst]` is delivered to rank `dst`;
    /// returns the received chunks indexed by source rank.
    /// [`Comm::ialltoallv`] plus `wait`, under the `comm/alltoallv` span.
    pub fn alltoallv<T: Send + WireSize + WireDecode + 'static>(
        &self,
        out: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let mut sp = dspgemm_obs::span("comm", "alltoallv");
        if dspgemm_obs::enabled() {
            let sent = out
                .iter()
                .enumerate()
                .filter(|&(dst, _)| dst != self.my_rank);
            sp.set_attr("bytes", sent.map(|(_, chunk)| chunk.wire_bytes()).sum());
        }
        self.ialltoallv(out).wait()
    }

    /// Reduces values to `root` with a binary operator (binomial tree,
    /// `O(log p)` rounds). Returns `Some(total)` at the root, `None`
    /// elsewhere.
    ///
    /// `op` must be associative; the evaluation order is the binomial-tree
    /// order, so results on floats may differ from sequential summation. This
    /// is also the **sparse merge-reduction** primitive of Algorithm 1: with
    /// `op = merge-add over DCSR blocks` it implements the paper's
    /// "(log p)-round parallel reduction … for aggregation".
    pub fn reduce<T, F>(&self, root: usize, value: T, mut op: F) -> Option<T>
    where
        T: Send + WireSize + WireDecode + 'static,
        F: FnMut(T, T) -> T,
    {
        let p = self.size();
        let tag = self.next_coll_tag(0);
        if p == 1 {
            return Some(value);
        }
        let mut sp = dspgemm_obs::span("comm", "reduce");
        let vrank = (self.my_rank + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let peer_v = vrank | mask;
                if peer_v < p {
                    let src = (peer_v + root) % p;
                    let other: T = self.recv_internal(src, tag);
                    acc = op(acc, other);
                }
            } else {
                let peer_v = vrank & !mask;
                let dst = (peer_v + root) % p;
                let bytes = acc.wire_bytes();
                sp.set_attr("bytes", bytes);
                self.send_internal(dst, tag, acc, CommCategory::Reduce, bytes);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Folds `values`, one per group rank in rank order, with `op` in the
    /// bracket order [`Comm::reduce`] rooted at `root` evaluates: at step
    /// `mask = 1, 2, 4, …` every virtual rank `v = (rank − root) mod p`
    /// that is a multiple of `2·mask` takes `op(acc_v, acc_{v+mask})`. So a
    /// root that gathers the values and folds them here holds what the
    /// reduction would have delivered, bit for bit, also for an `op` that
    /// is not associative, such as float addition.
    ///
    /// # Panics
    /// Panics if `values` is empty or `root` is not one of its ranks.
    pub fn fold_in_reduce_order<T>(
        values: Vec<T>,
        root: usize,
        mut op: impl FnMut(T, T) -> T,
    ) -> T {
        let p = values.len();
        assert!(root < p, "root {root} of {p} values");
        let mut acc: Vec<Option<T>> = values.into_iter().map(Some).collect();
        acc.rotate_left(root);
        let mut mask = 1;
        while mask < p {
            for v in (0..p - mask).step_by(2 * mask) {
                let other = acc[v + mask].take().expect("subtree folded");
                let mine = acc[v].take().expect("own accumulator");
                acc[v] = Some(op(mine, other));
            }
            mask <<= 1;
        }
        acc[0].take().expect("the root's total")
    }

    /// Allreduce: reduce to rank 0, then [`Comm::bcast`] the result back.
    ///
    /// The uses of `allreduce` are O(1)-size control values (recovery
    /// agreement, global counts on request), not operand payloads. Vector
    /// aggregations (SpMV segments, the general algorithm's filter vector)
    /// use `reduce` + [`Comm::bcast_shared`].
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + WireSize + WireDecode + 'static,
        F: FnMut(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Splits the communicator into sub-communicators by `color`; ranks with
    /// equal color form a group ordered by `(key, old rank)`. Semantics of
    /// `MPI_Comm_split`. Used to build the row and column communicators of
    /// the 2D process grid.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);
        // Everyone learns everyone's (color, key).
        let all: Vec<(u64, u64)> = self.allgather((color, key));
        let mut group: Vec<(u64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == color)
            .map(|(old_rank, (_, k))| (*k, old_rank))
            .collect();
        group.sort_unstable();
        let members: Vec<usize> = group
            .iter()
            .map(|&(_, old_rank)| self.members[old_rank])
            .collect();
        let my_world = self.members[self.my_rank];
        let my_rank = members
            .iter()
            .position(|&w| w == my_world)
            .expect("caller must be in its own color group");
        // Deterministically agreed child id: same parent, same split call,
        // same color on every member.
        let comm_id = mix64(self.comm_id ^ mix64(split_seq).rotate_left(17) ^ mix64(color));
        Comm {
            io: self.io.clone(),
            members: members.into(),
            my_rank,
            comm_id,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// Poisons the network after a local panic so peers blocked in `recv`
    /// fail fast instead of deadlocking (runtime-internal).
    pub(crate) fn poison_network(&self) {
        self.io.endpoint.borrow().poison_all();
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery (see `crate::fault`)
    // ------------------------------------------------------------------

    /// Arms a simulated crash of *this* rank `after_sends` sends from now
    /// (1 = the very next send). On trigger the rank broadcasts `Failed`
    /// markers and unwinds with [`crate::CommError::Crashed`]; peers'
    /// drains surface [`crate::CommError::PeerFailed`]. Counted across all
    /// of this rank's communicators. Re-arming replaces a prior trigger.
    pub fn arm_crash(&self, after_sends: u64) {
        self.io.endpoint.borrow().arm_crash(after_sends);
    }

    /// Disarms a crash previously armed with [`Comm::arm_crash`] if it has
    /// not fired.
    pub fn disarm_crash(&self) {
        self.io.endpoint.borrow().disarm_crash();
    }

    /// Whether this rank's thread already simulated a crash (true on the
    /// thread that caught [`crate::CommError::Crashed`] and is rejoining
    /// as the replacement rank).
    pub fn has_crashed(&self) -> bool {
        self.io.endpoint.borrow().has_crashed()
    }

    /// Peers whose failure this rank has detected (drained `Failed`
    /// markers) since the last [`Comm::take_failed_ranks`].
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.io.endpoint.borrow().failed_ranks()
    }

    /// Drains the detected-failure set. Recovery protocols consume it once
    /// per incident so a later failure starts from a clean slate.
    pub fn take_failed_ranks(&self) -> Vec<usize> {
        self.io.endpoint.borrow().take_failed_ranks()
    }

    /// Marker-to-detection latency (ns) of this rank's most recent
    /// [`crate::CommError::PeerFailed`] — how long the failure marker sat
    /// in the inbox before a drain surfaced it.
    pub fn last_failure_detect_ns(&self) -> u64 {
        self.io.endpoint.borrow().last_detect_ns()
    }

    /// Current recovery epoch of this rank (0 until a recovery runs).
    pub fn recovery_epoch(&self) -> u64 {
        self.io.endpoint.borrow().recovery_epoch()
    }

    /// Advances this rank into the next recovery epoch after a detected
    /// failure: purges buffered traffic of aborted rounds, clears the
    /// progress engine (arrival actions registered by the aborted round
    /// must never fire again), and resets this communicator's
    /// collective sequence so post-recovery collectives match across ranks
    /// that aborted at different points. **Local**; every rank of the job
    /// must call it (followed by a barrier) before communicating again, and
    /// every *other* live communicator of this rank must be resynced with
    /// [`Comm::reset_collective_seq`]. Returns the new epoch.
    ///
    /// Epoch hygiene is what makes the resets safe: envelopes are stamped
    /// with the sender's epoch and matched epoch-exactly, so a straggler
    /// from the aborted round can never satisfy a post-recovery receive
    /// even though sequence numbers restart.
    pub fn advance_recovery_epoch(&self) -> u64 {
        let epoch = self.io.endpoint.borrow_mut().advance_epoch();
        self.io.progress.borrow_mut().clear();
        self.coll_seq.set(0);
        epoch
    }

    /// Resets this communicator's collective sequence number to zero.
    /// Companion of [`Comm::advance_recovery_epoch`] for the *other*
    /// communicators sharing the rank (e.g. a grid's row/column splits):
    /// ranks abort an in-flight round at different collective positions,
    /// so after an epoch advance every communicator restarts its sequence
    /// in lockstep. Split sequence numbers are deliberately *not* reset —
    /// communicator ids derived by future splits must stay unique.
    pub fn reset_collective_seq(&self) {
        self.coll_seq.set(0);
    }

    /// Snapshot of the *whole network's* communication counters — all ranks,
    /// all categories. Taken between synchronization points (e.g. around a
    /// barrier-fenced measurement region) the delta of two snapshots is the
    /// exact traffic of that region. Intended for benchmark instrumentation.
    pub fn comm_stats(&self) -> crate::stats::CommStats {
        self.io.endpoint.borrow().stats_snapshot()
    }

    /// Duplicates the communicator with an isolated tag namespace
    /// (`MPI_Comm_dup`): same group, new communicator id.
    pub fn dup(&self) -> Comm {
        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);
        let comm_id = mix64(self.comm_id ^ mix64(split_seq).rotate_left(29));
        Comm {
            io: self.io.clone(),
            members: Arc::clone(&self.members),
            my_rank: self.my_rank,
            comm_id,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }
}

/// Packs a value for delivery to `dst_world`: remote peers of a real-wire
/// transport get the wire-encoded bytes (one serialization per
/// destination, into a buffer presized from the metered `bytes` the send
/// path already computed — the encoding's exact length), everything else
/// moves the typed value by pointer — the simulator's zero-copy contract,
/// and the TCP backend's self-send short-circuit.
fn pack_payload<T: Send + WireSize + 'static>(
    ep: &Endpoint,
    dst_world: usize,
    value: T,
    bytes: u64,
) -> Payload {
    if ep.encodes_to(dst_world) {
        let mut buf = Vec::with_capacity(bytes as usize);
        value.wire_encode(&mut buf);
        debug_assert_eq!(buf.len() as u64, bytes, "metered size is the encoding's");
        Payload::Value(Box::new(WireBytes(buf)))
    } else {
        Payload::Value(Box::new(value))
    }
}

/// Downcasts a received payload, with the same diagnostic as the blocking
/// receive path on type mismatch. A payload that arrived over a real wire
/// is a [`WireBytes`] buffer instead of the typed value; it is decoded
/// here, at the matched receive — the one place the expected type is known.
fn downcast_payload<T: Send + WireDecode + 'static>(
    boxed: Box<dyn Any + Send>,
    src: usize,
    tag: Tag,
) -> T {
    match boxed.downcast::<T>() {
        Ok(v) => *v,
        Err(boxed) => match boxed.downcast::<WireBytes>() {
            Ok(bytes) => decode_from_slice::<T>(&bytes.0).unwrap_or_else(|e| {
                panic!(
                    "wire decode failed receiving from rank {src} tag {tag:?} as {}: {e}",
                    std::any::type_name::<T>()
                )
            }),
            Err(_) => panic!(
                "type mismatch receiving from rank {src} tag {tag:?}: expected {}",
                std::any::type_name::<T>()
            ),
        },
    }
}

/// Shape of the binomial broadcast tree at virtual rank `vrank` in a group
/// of `p`: the parent (None at the root) and the children in
/// decreasing-mask send order.
fn bcast_tree_shape(p: usize, vrank: usize) -> (Option<usize>, Vec<usize>) {
    let mut mask = 1usize;
    let mut parent = None;
    while mask < p {
        if vrank & mask != 0 {
            parent = Some(vrank - mask);
            break;
        }
        mask <<= 1;
    }
    let mut children = Vec::new();
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            children.push(vrank + mask);
        }
        mask >>= 1;
    }
    (parent, children)
}
