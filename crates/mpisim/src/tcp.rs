//! Real TCP transport: ranks as OS processes over a localhost socket mesh
//! (feature `tcp-transport`).
//!
//! The simulator runs ranks as threads that move payloads by pointer. This
//! backend runs the *same* communicator layer — tag/communicator matching,
//! epochs, the nonblocking progress engine — with ranks as separate OS
//! processes exchanging length-prefixed frames over localhost TCP. Payloads
//! cross the wire through the [`dspgemm_util::WireEncode`] /
//! [`dspgemm_util::WireDecode`] codec, serialized once per destination at
//! the typed layer ([`dspgemm_util::WireBytes`]) and decoded at the matched
//! receive.
//!
//! ## Topology
//! One duplex connection per unordered rank pair: rank `r` listens, dials
//! every rank `s < r` (announcing itself with a `HELLO` frame), and accepts
//! from every rank `s > r`. Dialing before accepting cannot deadlock: the
//! kernel completes handshakes into the listener backlog without an
//! `accept` call. Per-peer reader threads parse frames into envelopes
//! and feed the rank's ordinary channel inbox, so everything above
//! [`crate::Comm`]'s transport seam is byte-for-byte the simulator's code.
//!
//! ## Bootstrap
//! [`run_tcp`] is `fork`-free and `unsafe`-free: the parent re-executes its
//! own binary (`std::env::current_exe`) once per rank with the rank
//! identity in environment variables, and a localhost *control* socket
//! carries the address exchange and the final results. A test re-executes
//! itself filtered to exactly one test name ([`Reexec::Test`]); a
//! deterministic CLI re-executes its own argv ([`Reexec::SameArgv`]).
//!
//! ## Failure detection
//! A killed peer closes its sockets; each survivor's reader thread sees the
//! broken stream and synthesizes a failure marker, which the screening
//! logic raises as [`crate::CommError::PeerFailed`] from whatever blocking
//! drain or [`crate::Request::wait_deadline`] poll the rank is in — the
//! same typed error the simulator's fault injection produces. Writes to a
//! dead peer surface the same way.
//!
//! ## Metering
//! Bytes are metered on the sender at the *logical*
//! [`WireSize`](dspgemm_util::WireSize) cost,
//! exactly like the simulator — wire-volume parity across backends holds by
//! construction, and the parity suite asserts it.

use crate::comm::Comm;
use crate::fault::FaultPlan;
use crate::message::{Envelope, Payload, Tag};
use crate::network::Endpoint;
use crate::stats::{CommStats, Meter, RankCommStats};
use crate::transport::{PeerGone, Transport};
use crossbeam::channel::{unbounded, Sender};
use dspgemm_util::{decode_from_slice, encode_to_vec, WireBytes, WireDecode, WireEncode};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable carrying the child's world rank.
const ENV_RANK: &str = "DSPGEMM_TCP_RANK";
/// Environment variable carrying the world size.
const ENV_WORLD: &str = "DSPGEMM_TCP_WORLD";
/// Environment variable carrying the parent's control-socket address.
const ENV_CONTROL: &str = "DSPGEMM_TCP_CONTROL";
/// Environment variable carrying the failure-detection deadline in ms.
const ENV_DETECT_MS: &str = "DSPGEMM_TCP_DETECT_MS";

/// Frame kinds on the data mesh. A frame is `kind: u8` followed by
/// kind-specific fields; all integers little-endian via the wire codec.
mod frame {
    /// Mesh handshake: `rank: u64`. First frame on a dialed connection.
    pub const HELLO: u8 = 1;
    /// A message envelope: `comm_id: u64, tag: u64, epoch: u64,
    /// len: u64, payload: [u8; len]`.
    pub const VALUE: u8 = 2;
    /// Sender panicked: `epoch: u64`. Receivers fail fast.
    pub const POISON: u8 = 3;
    /// Simulated-crash marker: `epoch: u64, rank: u64`.
    pub const FAILED: u8 = 4;
    /// Orderly goodbye: no fields. The reader thread exits without
    /// synthesizing a failure.
    pub const FIN: u8 = 5;
}

/// Returns `true` when this process is a [`run_tcp`] child (rank process).
///
/// A program using [`Reexec::SameArgv`] must call [`run_tcp`] on the same
/// code path in the child as in the parent; this lets it skip any
/// parent-only setup (argument parsing side effects, banner printing).
pub fn is_child() -> bool {
    std::env::var_os(ENV_RANK).is_some()
}

/// World size this child process was spawned for, or `None` in a parent.
///
/// A [`Reexec::SameArgv`] program that launches TCP jobs at several world
/// sizes uses this to route a child to the matching [`run_tcp`] call site
/// (and skip the others — each child belongs to exactly one job).
pub fn child_world() -> Option<usize> {
    std::env::var(ENV_WORLD).ok()?.parse().ok()
}

/// The failure-detection budget [`run_tcp`] was configured with, readable
/// from rank code on both backends' child processes (falls back to the
/// default when unset, e.g. under the simulator).
pub fn detect_deadline() -> Duration {
    std::env::var(ENV_DETECT_MS)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_DETECT)
}

/// Builds the libtest `--exact` filter for a test function: the test's
/// module path *within the test crate* plus the function name.
///
/// `module_path!()` inside an integration test includes the crate name as
/// its first segment, which libtest filters do not use — this strips it.
pub fn test_path(module_path: &str, fn_name: &str) -> String {
    match module_path.split_once("::") {
        Some((_, rest)) => format!("{rest}::{fn_name}"),
        None => fn_name.to_string(),
    }
}

/// How a [`run_tcp`] child process re-enters the calling code.
#[derive(Debug, Clone)]
pub enum Reexec {
    /// Re-execute the current test binary filtered (`--exact`) to the one
    /// named test, which must call [`run_tcp`] *before* any other
    /// side-effecting work (the child exits inside the call). Build the
    /// path with [`test_path`]`(module_path!(), "test_fn_name")`.
    Test(String),
    /// Re-execute the current binary with the same arguments. The program
    /// must be deterministic in its argv and reach the same [`run_tcp`]
    /// call site; use [`is_child`] to skip parent-only side effects.
    SameArgv,
}

const DEFAULT_DEADLINE: Duration = Duration::from_secs(120);
const DEFAULT_DETECT: Duration = Duration::from_secs(5);

/// Configuration for a [`run_tcp`] job.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Number of ranks (child processes).
    pub p: usize,
    /// Overall parent-side deadline: bootstrap plus the full job. Past it
    /// the parent kills all children and panics (deadlock watchdog).
    pub deadline: Duration,
    /// Failure-detection budget advertised to ranks via [`detect_deadline`]
    /// (for `wait_deadline` loops in recovery code).
    pub detect: Duration,
    /// When `true`, a child that dies without reporting a result yields
    /// `None` in [`TcpOutput::results`] instead of panicking the parent —
    /// for tests that kill ranks on purpose.
    pub expect_failures: bool,
}

impl TcpConfig {
    /// Defaults for `p` ranks: 120 s job deadline, 5 s detection budget,
    /// failures fatal.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            deadline: DEFAULT_DEADLINE,
            detect: DEFAULT_DETECT,
            expect_failures: false,
        }
    }

    /// Tolerate ranks dying without a result (see
    /// [`TcpConfig::expect_failures`]).
    pub fn expect_failures(mut self) -> Self {
        self.expect_failures = true;
        self
    }
}

/// Result of a [`run_tcp`] job.
#[derive(Debug)]
pub struct TcpOutput<R> {
    /// Per-rank return values; `None` for ranks that died without
    /// reporting (only with [`TcpConfig::expect_failures`]).
    pub results: Vec<Option<R>>,
    /// Merged communication counters: rank `r`'s row comes from rank `r`'s
    /// own process. Ranks that died contribute an empty row.
    pub stats: CommStats,
    /// Total frames written to the data mesh across all ranks. Zero for
    /// `p = 1`: a rank's sends to itself short-circuit through its local
    /// inbox and never touch a socket.
    pub frames: u64,
    /// Total bytes written as `VALUE` frame payloads across all ranks: the
    /// encoded messages themselves, without frame headers. Equals the
    /// metered [`CommStats::total_bytes`] of a job without self-sends, since
    /// the meter is the encoder run into a counter.
    pub payload_bytes: u64,
}

// ---------------------------------------------------------------------------
// The link: outgoing half of a rank process's connection to the mesh.
// ---------------------------------------------------------------------------

/// Outgoing half of a TCP rank's world: a loopback channel to its own inbox
/// plus one stream per remote peer.
pub(crate) struct TcpLink {
    rank: usize,
    /// Self-sends bypass the sockets entirely (same zero-copy pointer move
    /// as the simulator).
    loopback: Sender<Envelope>,
    /// Write halves, indexed by world rank; `None` at `self.rank`.
    peers: Vec<Option<TcpStream>>,
    /// Data-mesh frames written by this process (socket-touching sends).
    frames: Arc<AtomicU64>,
    /// Bytes of those frames that are `VALUE` payload.
    payload_bytes: Arc<AtomicU64>,
}

impl TcpLink {
    /// World size.
    pub(crate) fn world(&self) -> usize {
        self.peers.len()
    }

    /// Whether `dst` is this rank itself (loopback, never encoded).
    pub(crate) fn is_self(&self, dst: usize) -> bool {
        dst == self.rank
    }

    /// Delivers an envelope: loopback for self, a `VALUE`/`POISON`/`FAILED`
    /// frame for remote peers. A broken stream (peer process dead) reports
    /// [`PeerGone`]. The frame's header and the encoded body go to the
    /// socket as two writes, so the body is never copied behind a header.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) -> Result<(), PeerGone> {
        if self.is_self(dst) {
            return self.loopback.send(env).map_err(|_| PeerGone);
        }
        let mut head = Vec::with_capacity(1 + 4 * 8);
        let body = match env.payload {
            Payload::Value(boxed) => {
                let bytes = boxed
                    .downcast::<WireBytes>()
                    .expect("internal: un-encoded payload reached the wire transport");
                head.push(frame::VALUE);
                env.comm_id.wire_encode(&mut head);
                env.tag.0.wire_encode(&mut head);
                env.epoch.wire_encode(&mut head);
                (bytes.0.len() as u64).wire_encode(&mut head);
                self.payload_bytes
                    .fetch_add(bytes.0.len() as u64, Ordering::Relaxed);
                bytes.0
            }
            Payload::Poison => {
                head.push(frame::POISON);
                env.epoch.wire_encode(&mut head);
                Vec::new()
            }
            Payload::Failed { rank } => {
                head.push(frame::FAILED);
                env.epoch.wire_encode(&mut head);
                (rank as u64).wire_encode(&mut head);
                Vec::new()
            }
        };
        let mut stream = self.peers[dst].as_ref().ok_or(PeerGone)?;
        self.frames.fetch_add(1, Ordering::Relaxed);
        stream
            .write_all(&head)
            .and_then(|()| stream.write_all(&body))
            .map_err(|_| PeerGone)
    }
}

/// Sends an orderly `FIN` on each stream so peer reader threads exit
/// without synthesizing failures. Errors are ignored (a peer may have
/// finished first and closed).
fn send_fins(streams: &[TcpStream]) {
    for mut stream in streams {
        let _ = stream.write_all(&[frame::FIN]);
    }
}

// ---------------------------------------------------------------------------
// Stream-level codec helpers (control channel and mesh reader).
// ---------------------------------------------------------------------------

/// Longest body a length prefix may announce, on the control channel and on
/// the mesh alike: a corrupt or hostile prefix is an error, not an
/// allocation.
const MAX_BODY_LEN: u64 = 1 << 32;

/// Reads `N` consecutive little-endian `u64` header fields with one read.
fn read_words<const N: usize>(stream: &mut impl Read) -> std::io::Result<[u64; N]> {
    let mut raw = [[0u8; 8]; N];
    stream.read_exact(raw.as_flattened_mut())?;
    Ok(raw.map(u64::from_le_bytes))
}

/// Reads the `len`-byte body a frame header announced.
fn read_body(stream: &mut impl Read, len: u64) -> std::io::Result<Vec<u8>> {
    if len > MAX_BODY_LEN {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame length implausible",
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one length-prefixed control message: the prefix, then the body.
fn ctrl_send<T: WireEncode>(stream: &mut TcpStream, msg: &T) -> std::io::Result<()> {
    let body = encode_to_vec(msg);
    stream.write_all(&(body.len() as u64).to_le_bytes())?;
    stream.write_all(&body)
}

/// Reads one length-prefixed control message.
fn ctrl_recv<T: WireDecode>(stream: &mut TcpStream) -> std::io::Result<T> {
    let [len] = read_words(stream)?;
    let body = read_body(stream, len)?;
    decode_from_slice::<T>(&body)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

// ---------------------------------------------------------------------------
// Reader threads: sockets -> the rank's ordinary channel inbox.
// ---------------------------------------------------------------------------

/// Parses the next frame of `peer`'s stream into an envelope; `None` is the
/// orderly `FIN`. A short read, an unknown frame kind and an implausible
/// payload length are all errors.
fn read_frame(peer: usize, stream: &mut impl Read) -> std::io::Result<Option<Envelope>> {
    let mut kind = [0u8; 1];
    stream.read_exact(&mut kind)?;
    let (comm_id, tag, epoch, payload) = match kind[0] {
        frame::FIN => return Ok(None),
        frame::VALUE => {
            let [comm_id, tag, epoch, len] = read_words(stream)?;
            let body = read_body(stream, len)?;
            let payload = Payload::Value(Box::new(WireBytes(body)));
            (comm_id, tag, epoch, payload)
        }
        frame::POISON => {
            let [epoch] = read_words(stream)?;
            (0, 0, epoch, Payload::Poison)
        }
        frame::FAILED => {
            let [epoch, rank] = read_words(stream)?;
            let rank = rank as usize;
            (0, 0, epoch, Payload::Failed { rank })
        }
        _ => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "unknown frame kind",
            ))
        }
    };
    Ok(Some(Envelope {
        src_world: peer,
        comm_id,
        tag: Tag(tag),
        epoch,
        payload,
        sent_at: Instant::now(),
    }))
}

/// Parses frames from `peer`'s stream into the inbox until `FIN`, EOF, or a
/// malformed frame. An unclean end synthesizes a `Failed { rank: peer }`
/// marker stamped with `epoch = u64::MAX` so it can never be screened out as
/// stale — the survivors' typed [`crate::CommError::PeerFailed`] signal.
fn reader_loop(peer: usize, mut stream: TcpStream, inbox: Sender<Envelope>) {
    loop {
        let env = match read_frame(peer, &mut stream) {
            Ok(Some(env)) => env,
            Ok(None) => return,
            Err(_) => {
                let _ = inbox.send(Envelope {
                    src_world: peer,
                    comm_id: 0,
                    tag: Tag(0),
                    epoch: u64::MAX,
                    payload: Payload::Failed { rank: peer },
                    sent_at: Instant::now(),
                });
                return;
            }
        };
        if inbox.send(env).is_err() {
            // Rank thread finished; drain quietly until FIN/EOF.
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Child-side bootstrap.
// ---------------------------------------------------------------------------

/// Rank-thread stack, matching the simulator's default (local SpGEMM builds
/// large temporary rows).
const CHILD_STACK: usize = 16 << 20;

/// Exit code of a child whose rank function panicked.
const CHILD_PANIC_EXIT: i32 = 101;

fn child_main<R, F>(f: F) -> !
where
    R: Send + WireEncode + 'static,
    F: FnOnce(&Comm) -> R + Send + 'static,
{
    let rank: usize = std::env::var(ENV_RANK)
        .expect("child env")
        .parse()
        .expect("child rank");
    let p: usize = std::env::var(ENV_WORLD)
        .expect("child env")
        .parse()
        .expect("child world");
    let control_addr = std::env::var(ENV_CONTROL).expect("child env");

    // Register with the parent: our world rank and mesh listener address.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let mesh_addr = listener.local_addr().expect("mesh addr").to_string();
    let mut control = TcpStream::connect(&control_addr).expect("connect control");
    ctrl_send(&mut control, &(rank as u64, mesh_addr)).expect("send hello");
    let addrs: Vec<String> = ctrl_recv(&mut control).expect("recv address book");
    assert_eq!(addrs.len(), p, "address book size");

    // Build the mesh: dial lower ranks (kernel backlog absorbs the
    // handshake even before they accept), then accept higher ranks.
    let mut conns: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    for (s, addr) in addrs.iter().enumerate().take(rank) {
        let mut stream = TcpStream::connect(addr).expect("dial peer");
        let mut hello = vec![frame::HELLO];
        (rank as u64).wire_encode(&mut hello);
        stream.write_all(&hello).expect("send mesh hello");
        conns[s] = Some(stream);
    }
    for _ in rank + 1..p {
        let (mut stream, _) = listener.accept().expect("accept peer");
        let mut kind = [0u8; 1];
        stream.read_exact(&mut kind).expect("read mesh hello");
        assert_eq!(kind[0], frame::HELLO, "mesh handshake");
        let [peer] = read_words(&mut stream).expect("read peer rank");
        let peer = peer as usize;
        assert!(peer > rank && peer < p, "mesh handshake rank");
        assert!(conns[peer].is_none(), "duplicate mesh connection");
        conns[peer] = Some(stream);
    }
    drop(listener);

    // Wire the inbox: one reader thread per peer feeding the same channel
    // the simulator's Endpoint drains.
    let (tx, rx) = unbounded::<Envelope>();
    for (peer, conn) in conns.iter().enumerate() {
        if let Some(stream) = conn {
            stream.set_nodelay(true).expect("nodelay");
            let read_half = stream.try_clone().expect("clone stream");
            let inbox = tx.clone();
            std::thread::Builder::new()
                .name(format!("tcp-reader-{peer}"))
                .spawn(move || reader_loop(peer, read_half, inbox))
                .expect("spawn reader");
        }
    }

    // Write-half clones for the orderly goodbye after the rank function
    // returns (the link itself moves into the rank thread). FIN ordering
    // is safe: frames on the same socket are kernel-ordered across
    // duplicated descriptors, and all data writes complete before join.
    let fin_streams: Vec<TcpStream> = conns
        .iter()
        .flatten()
        .map(|s| s.try_clone().expect("clone stream"))
        .collect();

    let meter = Meter::new(p);
    let frames = Arc::new(AtomicU64::new(0));
    let payload_bytes = Arc::new(AtomicU64::new(0));
    let link = TcpLink {
        rank,
        loopback: tx,
        peers: conns,
        frames: Arc::clone(&frames),
        payload_bytes: Arc::clone(&payload_bytes),
    };

    // Run the rank function on a roomy stack, exactly like a simulator
    // rank thread.
    let meter_for_rank = Arc::clone(&meter);
    let outcome = std::thread::Builder::new()
        .name(format!("rank-{rank}"))
        .stack_size(CHILD_STACK)
        .spawn(move || {
            dspgemm_obs::set_thread_rank(rank);
            let endpoint = Endpoint::with_transport(
                rank,
                rx,
                Transport::Tcp(link),
                meter_for_rank,
                Arc::new(FaultPlan::default()),
            );
            let comm = Comm::world(endpoint, p);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm)));
            if outcome.is_err() {
                // Poison peers so their next drain fails fast, mirroring
                // the simulator's panic behaviour.
                comm.poison_network();
            }
            dspgemm_obs::flush_thread();
            outcome
        })
        .expect("spawn rank thread")
        .join()
        .expect("rank thread join");

    match outcome {
        Ok(result) => {
            send_fins(&fin_streams);
            let sent = (
                frames.load(Ordering::Relaxed),
                payload_bytes.load(Ordering::Relaxed),
            );
            let payload = (result, meter.snapshot(), sent);
            ctrl_send(&mut control, &payload).expect("report result");
            // Flush before exiting; `exit` skips destructors.
            let _ = control.flush();
            std::process::exit(0);
        }
        Err(_) => {
            eprintln!("tcp rank {rank}: rank function panicked");
            std::process::exit(CHILD_PANIC_EXIT);
        }
    }
}

// ---------------------------------------------------------------------------
// Parent-side orchestration.
// ---------------------------------------------------------------------------

/// Kills any still-running children when dropped (watchdog cleanup: no
/// orphan rank processes survive a panicking parent).
struct KillGuard {
    children: Vec<Option<Child>>,
}

impl KillGuard {
    fn reap(&mut self, rank: usize) -> Option<Child> {
        self.children[rank].take()
    }
}

impl Drop for KillGuard {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_child(reexec: &Reexec, rank: usize, cfg: &TcpConfig, control_addr: &str) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    match reexec {
        Reexec::Test(path) => {
            cmd.args([path.as_str(), "--exact", "--nocapture", "--test-threads=1"]);
        }
        Reexec::SameArgv => {
            cmd.args(std::env::args().skip(1));
        }
    }
    cmd.env(ENV_RANK, rank.to_string())
        .env(ENV_WORLD, cfg.p.to_string())
        .env(ENV_CONTROL, control_addr)
        .env(ENV_DETECT_MS, cfg.detect.as_millis().to_string())
        .stdin(Stdio::null());
    cmd.spawn().expect("spawn rank process")
}

/// Runs `f` as an SPMD program on `cfg.p` ranks, each a real OS process,
/// over the TCP mesh. Returns per-rank results, merged communication
/// counters, and the total data-mesh frame count.
///
/// In a **child** process (see [`Reexec`]) this function never returns: it
/// runs `f` for its rank and exits. Call it before any side-effecting
/// parent work, or guard with [`is_child`].
///
/// # Panics
/// Panics if bootstrap or any rank fails (unless
/// [`TcpConfig::expect_failures`]), or past [`TcpConfig::deadline`]. All
/// children are killed on the way out.
pub fn run_tcp<R, F>(reexec: Reexec, cfg: TcpConfig, f: F) -> TcpOutput<R>
where
    R: Send + WireEncode + WireDecode + 'static,
    F: FnOnce(&Comm) -> R + Send + 'static,
{
    assert!(cfg.p >= 1, "need at least one rank");
    if is_child() {
        child_main(f);
    }

    let deadline = Instant::now() + cfg.deadline;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind control listener");
    listener.set_nonblocking(true).expect("nonblocking control");
    let control_addr = listener.local_addr().expect("control addr").to_string();

    let mut guard = KillGuard {
        children: (0..cfg.p)
            .map(|r| Some(spawn_child(&reexec, r, &cfg, &control_addr)))
            .collect(),
    };

    // Phase 1: collect hellos. Nonblocking accept so we can watch both the
    // deadline and early child deaths.
    let mut controls: Vec<Option<TcpStream>> = (0..cfg.p).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); cfg.p];
    let mut pending = cfg.p;
    while pending > 0 {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).expect("blocking control");
                let (rank, addr): (u64, String) = ctrl_recv(&mut stream).expect("recv hello");
                let rank = rank as usize;
                assert!(rank < cfg.p && controls[rank].is_none(), "hello rank");
                addrs[rank] = addr;
                controls[rank] = Some(stream);
                pending -= 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                assert!(
                    Instant::now() < deadline,
                    "deadline waiting for rank hellos ({pending} missing)"
                );
                for (rank, slot) in guard.children.iter_mut().enumerate() {
                    if let Some(child) = slot {
                        if let Some(status) = child.try_wait().expect("try_wait") {
                            panic!("rank {rank} exited during bootstrap: {status}");
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("control accept failed: {e}"),
        }
    }
    drop(listener);

    // Phase 2: publish the address book; ranks build the mesh and run.
    for stream in controls.iter_mut().flatten() {
        ctrl_send(stream, &addrs).expect("send address book");
    }

    // Phase 3: collect results. A clean child reports (result, stats,
    // (frames, payload bytes)) and exits 0; a dead child's control stream
    // just ends.
    let mut results: Vec<Option<R>> = (0..cfg.p).map(|_| None).collect();
    let mut per_rank: Vec<RankCommStats> = vec![RankCommStats::default(); cfg.p];
    let (mut frames, mut payload_bytes) = (0u64, 0u64);
    for rank in 0..cfg.p {
        let mut stream = controls[rank].take().expect("control stream");
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(
            !remaining.is_zero(),
            "deadline before rank {rank}'s result arrived"
        );
        stream
            .set_read_timeout(Some(remaining))
            .expect("read timeout");
        match ctrl_recv::<(R, CommStats, (u64, u64))>(&mut stream) {
            Ok((result, stats, (child_frames, child_payload))) => {
                assert_eq!(stats.per_rank.len(), cfg.p, "stats shape from rank {rank}");
                results[rank] = Some(result);
                per_rank[rank] = stats.per_rank[rank].clone();
                frames += child_frames;
                payload_bytes += child_payload;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("deadline waiting for rank {rank}'s result (possible deadlock)");
            }
            Err(e) => {
                assert!(
                    cfg.expect_failures,
                    "rank {rank} died without reporting: {e}"
                );
            }
        }
        if let Some(mut child) = guard.reap(rank) {
            if results[rank].is_some() {
                let status = child.wait().expect("child wait");
                assert!(status.success(), "rank {rank} reported but exited {status}");
            } else {
                // Died or still dying; make sure it is gone.
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    TcpOutput {
        results,
        stats: CommStats { per_rank },
        frames,
        payload_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::Receiver;
    use dspgemm_sparse::{Dcsr, Triple};

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    /// Rank 0's link whose only remote peer (world rank 1) is `write_end`,
    /// and the receiving side of its loopback.
    fn link_over(write_end: TcpStream) -> (TcpLink, Receiver<Envelope>) {
        let (loop_tx, loop_rx) = unbounded();
        let link = TcpLink {
            rank: 0,
            loopback: loop_tx,
            peers: vec![None, Some(write_end)],
            frames: Arc::new(AtomicU64::new(0)),
            payload_bytes: Arc::new(AtomicU64::new(0)),
        };
        (link, loop_rx)
    }

    /// A link whose only remote peer (world rank 1) is the write end of a
    /// local socket pair, with a reader thread parsing the other end.
    fn link_and_reader() -> (TcpLink, Receiver<Envelope>, std::thread::JoinHandle<()>) {
        let (write_end, read_end) = socket_pair();
        let (tx, rx) = unbounded();
        let reader = std::thread::spawn(move || reader_loop(1, read_end, tx));
        (link_over(write_end).0, rx, reader)
    }

    fn value_env(comm_id: u64, tag: u64, epoch: u64, body: Vec<u8>) -> Envelope {
        Envelope {
            src_world: 0,
            comm_id,
            tag: Tag(tag),
            epoch,
            payload: Payload::Value(Box::new(WireBytes(body))),
            sent_at: Instant::now(),
        }
    }

    #[test]
    fn value_frames_roundtrip_max_header_values() {
        let (link, rx, reader) = link_and_reader();
        // The envelope header's extremes: max comm id, max user-visible and
        // reserved-range tags, max epoch, empty and non-trivial payloads.
        let cases = [
            (u64::MAX, u64::MAX, u64::MAX, vec![]),
            (0, 0, 0, vec![0xAB; 3]),
            (
                1,
                Tag::RESERVED_BASE,
                u64::MAX - 1,
                (0..=255).collect::<Vec<u8>>(),
            ),
        ];
        for (comm_id, tag, epoch, body) in cases.iter().cloned() {
            link.deliver(1, value_env(comm_id, tag, epoch, body.clone()))
                .expect("deliver");
            let env = rx.recv_timeout(Duration::from_secs(10)).expect("frame");
            assert_eq!(env.src_world, 1, "reader stamps the peer rank");
            assert_eq!(env.comm_id, comm_id);
            assert_eq!(env.tag, Tag(tag));
            assert_eq!(env.epoch, epoch);
            match env.payload {
                Payload::Value(boxed) => {
                    assert_eq!(boxed.downcast::<WireBytes>().expect("bytes").0, body);
                }
                _ => panic!("expected a value payload"),
            }
        }
        assert_eq!(link.frames.load(Ordering::Relaxed), cases.len() as u64);
        assert_eq!(link.payload_bytes.load(Ordering::Relaxed), 3 + 256);
        send_fins(&[link.peers[1].as_ref().unwrap().try_clone().unwrap()]);
        reader.join().expect("reader exits on FIN");
    }

    #[test]
    fn poison_and_failed_frames_roundtrip() {
        let (link, rx, reader) = link_and_reader();
        link.deliver(
            1,
            Envelope {
                src_world: 0,
                comm_id: 0,
                tag: Tag(0),
                epoch: u64::MAX,
                payload: Payload::Poison,
                sent_at: Instant::now(),
            },
        )
        .expect("deliver poison");
        let env = rx.recv_timeout(Duration::from_secs(10)).expect("frame");
        assert!(matches!(env.payload, Payload::Poison));
        assert_eq!(env.epoch, u64::MAX);

        link.deliver(
            1,
            Envelope {
                src_world: 0,
                comm_id: 0,
                tag: Tag(0),
                epoch: 3,
                payload: Payload::Failed { rank: 7 },
                sent_at: Instant::now(),
            },
        )
        .expect("deliver failed marker");
        let env = rx.recv_timeout(Duration::from_secs(10)).expect("frame");
        assert!(matches!(env.payload, Payload::Failed { rank: 7 }));
        assert_eq!(env.epoch, 3);
        drop(link);
        reader.join().expect("reader exits on EOF");
    }

    #[test]
    fn eof_without_fin_synthesizes_unscreenable_failure() {
        let (link, rx, reader) = link_and_reader();
        drop(link); // Closes the write end with no FIN: an unclean death.
        let env = rx.recv_timeout(Duration::from_secs(10)).expect("marker");
        assert!(matches!(env.payload, Payload::Failed { rank: 1 }));
        // Epoch u64::MAX: survives epoch screening at any recovery depth.
        assert_eq!(env.epoch, u64::MAX);
        reader.join().expect("reader exits");
    }

    /// A hypersparse block as a batch ships it: varint index structure,
    /// fixed-width values.
    fn sample_block() -> Dcsr<f64> {
        let entries =
            (0..40u32).map(|i| Triple::new(i / 3 * 1000, i % 3 * 200 + i, 0.5 + f64::from(i)));
        Dcsr::from_sorted_triples(1 << 20, 1 << 10, &entries.collect::<Vec<_>>())
    }

    /// A stream as fragmented as one can legally be: one byte per `read`,
    /// and an `Interrupted` error before each.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupted: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupted = !self.interrupted;
            if self.interrupted {
                return Err(ErrorKind::Interrupted.into());
            }
            match (self.bytes.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.bytes = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// What `read_frame` made of one frame: comm id, tag, epoch and the
    /// payload — a value's bytes, or which marker (`Failed`'s rank).
    type Parsed = (u64, u64, u64, Result<Vec<u8>, Option<usize>>);

    /// Everything `read_frame` parses out of `stream` up to its `FIN`.
    fn frames_of(mut stream: impl Read) -> Vec<Parsed> {
        let mut frames = Vec::new();
        while let Some(env) = read_frame(1, &mut stream).expect("a well-formed stream") {
            assert_eq!(env.src_world, 1, "reader stamps the peer rank");
            let payload = match env.payload {
                Payload::Value(boxed) => Ok(boxed.downcast::<WireBytes>().expect("bytes").0),
                Payload::Poison => Err(None),
                Payload::Failed { rank } => Err(Some(rank)),
            };
            frames.push((env.comm_id, env.tag.0, env.epoch, payload));
        }
        frames
    }

    /// `read_frame` sees the same envelopes however the kernel fragments the
    /// stream: every frame kind, written by the real sender, read whole and
    /// read a byte at a time with an interrupt between bytes.
    #[test]
    fn fragmented_reads_parse_like_whole_ones() {
        let (write_end, mut read_end) = socket_pair();
        let (link, _loopback) = link_over(write_end);
        let block = sample_block();
        let marker = |epoch, payload| Envelope {
            payload,
            ..value_env(0, 0, epoch, vec![])
        };
        link.deliver(1, value_env(3, 4, 5, encode_to_vec(&block)))
            .expect("value");
        link.deliver(1, marker(u64::MAX, Payload::Poison))
            .expect("poison");
        link.deliver(1, value_env(u64::MAX, Tag::RESERVED_BASE, 0, vec![]))
            .expect("empty value");
        link.deliver(1, marker(6, Payload::Failed { rank: 2 }))
            .expect("failed");
        send_fins(&[link.peers[1].as_ref().unwrap().try_clone().unwrap()]);
        drop(link);
        let mut bytes = Vec::new();
        read_end
            .read_to_end(&mut bytes)
            .expect("the written stream");

        let whole = frames_of(&bytes[..]);
        let kinds: Vec<bool> = whole.iter().map(|frame| frame.3.is_ok()).collect();
        assert_eq!(kinds, [true, false, true, false]);
        let trickled = frames_of(Trickle {
            bytes: &bytes,
            interrupted: false,
        });
        assert_eq!(trickled, whole);
        let body = trickled[0].3.as_ref().expect("the block's frame");
        assert_eq!(decode_from_slice::<Dcsr<f64>>(body), Ok(block));
    }

    /// A frame the reader cannot parse is a failed peer, never a panic, a
    /// hang or an allocation sized by the frame's own claims.
    #[test]
    fn malformed_frames_synthesize_the_failure_marker() {
        let header = |words: &[u64]| -> Vec<u8> {
            let mut bytes = vec![frame::VALUE];
            for w in words {
                w.wire_encode(&mut bytes);
            }
            bytes
        };
        let block = encode_to_vec(&sample_block());
        // (bytes on the stream, whether the writer then hangs up)
        let cases = [
            // A length prefix no frame can have; the stream stays open, so
            // only the cap can end the read.
            (header(&[7, 8, 9, u64::MAX]), false),
            (header(&[7, 8, 9, MAX_BODY_LEN + 1]), false),
            // The stream ends inside the fixed header, and inside the body.
            (header(&[7, 8]), true),
            (header(&[7, 8, 9, 4]), true),
            // … and inside a varint of the payload: the length prefix
            // promised the whole block, the stream stops one byte into the
            // two-byte row gap of its second row.
            (
                [header(&[7, 8, 9, block.len() as u64]), block[..20].to_vec()].concat(),
                true,
            ),
            (vec![0xEE], false),
        ];
        for (bytes, hang_up) in cases {
            let (mut write_end, read_end) = socket_pair();
            let (tx, rx) = unbounded();
            let reader = std::thread::spawn(move || reader_loop(1, read_end, tx));
            write_end.write_all(&bytes).expect("write");
            if hang_up {
                write_end
                    .shutdown(std::net::Shutdown::Write)
                    .expect("shutdown");
            }
            let env = rx.recv_timeout(Duration::from_secs(10)).expect("marker");
            assert!(matches!(env.payload, Payload::Failed { rank: 1 }));
            assert_eq!(env.epoch, u64::MAX);
            reader.join().expect("reader exits after the marker");
            assert!(rx.try_recv().is_err(), "nothing follows the marker");
        }
    }

    #[test]
    fn deliver_to_dead_peer_reports_peer_gone() {
        let (link, rx, reader) = link_and_reader();
        // Close the inbox, then push one frame: the reader parses it, fails
        // to enqueue, and exits — closing the read end of the socket.
        drop(rx);
        link.deliver(1, value_env(0, 0, 0, vec![9])).expect("first");
        reader.join().expect("reader");
        // The read end is fully closed; the kernel needs a write (or two,
        // for a buffered first) to observe the reset.
        let mut gone = false;
        for i in 0..100 {
            if link.deliver(1, value_env(0, 0, 0, vec![i])).is_err() {
                gone = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(gone, "writes to a dead peer never failed");
    }

    #[test]
    fn loopback_delivery_skips_sockets_and_codec() {
        let (write_end, _read_end) = socket_pair();
        let (link, loop_rx) = link_over(write_end);
        assert!(!link.is_self(1));
        assert!(link.is_self(0));
        // A *typed* (never encoded) payload to self must arrive intact.
        link.deliver(
            0,
            Envelope {
                src_world: 0,
                comm_id: 5,
                tag: Tag(6),
                epoch: 0,
                payload: Payload::Value(Box::new(vec![1u64, 2, 3])),
                sent_at: Instant::now(),
            },
        )
        .expect("loopback");
        let env = loop_rx.recv_timeout(Duration::from_secs(10)).expect("env");
        match env.payload {
            Payload::Value(boxed) => {
                assert_eq!(*boxed.downcast::<Vec<u64>>().expect("typed"), vec![1, 2, 3]);
            }
            _ => panic!("expected a value payload"),
        }
        assert_eq!(link.frames.load(Ordering::Relaxed), 0, "loopback framed");
    }
}
