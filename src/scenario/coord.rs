//! Live work-stealing sweep coordination: a driver that leases small
//! cell ranges of the `(seed × agent × deviation)` grid to worker
//! processes over a newline-delimited JSON socket protocol, survives
//! worker loss, and merges results byte-identically to the monolithic
//! sweep.
//!
//! PR 7's static strides ([`ShardSpec`]) partition the grid up front, so
//! one slow or dead shard job stalls the whole sweep. The coordinator
//! replaces the *scheduling* — workers pull leases dynamically, lost
//! leases are re-issued — while keeping the *results* pinned by the same
//! byte-identity discipline: per-cell seeds ([`cell_seed`]) depend only
//! on `(seed, agent, deviation)`, so the merged [`SweepReport`]
//! fingerprint is identical to [`Scenario::sweep`] regardless of worker
//! count, scheduling order, or injected failures.
//!
//! # Protocol (`specfaith-coord-v1`)
//!
//! One JSON object per line ([`Frame`]), over a Unix or TCP socket
//! ([`CoordAddr`]). Worker → coordinator:
//!
//! - `hello` — the worker's name plus its full grid manifest
//!   ([`GridManifest`]: instance label, instance fingerprint, seeds,
//!   agents, deviations). A manifest that disagrees with the
//!   coordinator's is refused with `reject`, mirroring
//!   [`MergeError::ManifestMismatch`].
//! - `baselines` — every seed's honest-baseline utility vector, sent
//!   once after `welcome`. Workers must agree bit-identically or the
//!   run fails with [`MergeError::BaselineConflict`].
//! - `ready` — a pull request for work.
//! - `heartbeat` — extends a held lease's deadline.
//! - `result` — a completed lease's cells, [`FragmentCell`]-shaped.
//!
//! Coordinator → worker: `welcome`, `reject`, `lease` (lease id + cell
//! indices), `idle` (no eligible work right now — retry), `done`,
//! `abort`.
//!
//! # Leases, loss, and reissue
//!
//! The grid is cut into contiguous ranges of
//! [`CoordConfig::lease_cells`] cells. A lease is *outstanding* from
//! grant until its `result` arrives; it is re-queued (and the reissue
//! counter bumped) when its worker's connection drops, when a line
//! fails to parse, or when its deadline — [`CoordConfig::lease_timeout`]
//! past the grant or the last `heartbeat` — expires. Re-queued leases
//! back off exponentially from [`CoordConfig::retry_backoff`]; a lease
//! re-queued [`CoordConfig::max_attempts`] times fails the run
//! ([`CoordError::RetriesExhausted`]).
//!
//! Because results are content-addressed by grid index, a late result
//! from a worker whose lease was already reissued is harmless: a
//! bit-identical duplicate cell is tolerated (and counted in
//! [`CoordStats::duplicate_results`]); a *conflicting* duplicate fails
//! the run with [`MergeError::DuplicateCell`], exactly as the offline
//! merge would.
//!
//! # Fault injection
//!
//! [`FaultPlan`] makes the failure paths deterministic and testable:
//! kill or hang a worker after `k` evaluated cells, slow every cell,
//! and delay / duplicate / corrupt the `n`-th result line. The
//! integration battery (`tests/coordinator.rs`) pins each path to the
//! same merged fingerprint as the monolithic sweep.
//!
//! The filesystem spool flow (`sweep_bench --shard` fragments merged by
//! `--merge`) remains the fallback when no live socket between hosts is
//! available.
//!
//! [`cell_seed`]: super::sweep::cell_seed
//! [`Scenario::sweep`]: super::Scenario::sweep

use super::report::SweepReport;
use super::shard::{
    get, instance_fingerprint, json_string, spec_from_json, spec_to_json, FragmentCell, Json,
    MergeError, ShardSpec, ShardTiming, SweepFragment,
};
use super::sweep::{deviation_grid, evaluate, evaluate_baseline, Catalog};
use super::Scenario;
use specfaith_core::equilibrium::DeviationSpec;
use specfaith_core::money::Money;
use specfaith_graph::cache::CacheScope;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The wire-format tag every `hello` frame carries.
pub const COORD_FORMAT: &str = "specfaith-coord-v1";

/// How often blocked reads wake up to reap expired leases and check for
/// completion or a fatal error.
const TICK: Duration = Duration::from_millis(50);

/// How long a worker waits for the coordinator to answer one of its own
/// frames before giving up.
const WORKER_FRAME_TIMEOUT: Duration = Duration::from_secs(300);

/// How long the coordinator waits for a worker's `hello` after accept.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard cap on one buffered protocol line — anything longer is a
/// protocol violation, not a legitimate frame.
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Addresses and transport.

/// Where a coordinator listens / a worker connects: `unix:<path>` or
/// `tcp:<host>:<port>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordAddr {
    /// A Unix-domain socket path (same-host deployments; CI default).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7744`. Bind with port `0` to let
    /// the OS pick; [`CoordListener::local_addr`] reports the result.
    Tcp(String),
}

impl CoordAddr {
    /// Parses `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(text: &str) -> Result<CoordAddr, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address needs a socket path".to_string());
            }
            Ok(CoordAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: address needs host:port".to_string());
            }
            Ok(CoordAddr::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "address {text:?} must start with \"unix:\" or \"tcp:\""
            ))
        }
    }
}

impl fmt::Display for CoordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            CoordAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One accepted or dialed protocol connection.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn connect(addr: &CoordAddr) -> io::Result<Conn> {
        match addr {
            CoordAddr::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
            #[cfg(unix)]
            CoordAddr::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            #[cfg(not(unix))]
            CoordAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            )),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(stream) => stream.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.flush(),
        }
    }
}

/// The coordinator's listening socket. Binding a [`CoordAddr::Unix`]
/// path removes any stale socket file first and unlinks it again on
/// drop.
pub struct CoordListener {
    inner: ListenerInner,
    addr: CoordAddr,
}

enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl CoordListener {
    /// Binds `addr`.
    pub fn bind(addr: &CoordAddr) -> io::Result<CoordListener> {
        match addr {
            CoordAddr::Tcp(text) => {
                let listener = TcpListener::bind(text.as_str())?;
                let addr = CoordAddr::Tcp(listener.local_addr()?.to_string());
                Ok(CoordListener {
                    inner: ListenerInner::Tcp(listener),
                    addr,
                })
            }
            #[cfg(unix)]
            CoordAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok(CoordListener {
                    inner: ListenerInner::Unix(listener),
                    addr: addr.clone(),
                })
            }
            #[cfg(not(unix))]
            CoordAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            )),
        }
    }

    /// The bound address — with the OS-assigned port resolved when the
    /// bind address used port `0`.
    pub fn local_addr(&self) -> &CoordAddr {
        &self.addr
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match &self.inner {
            ListenerInner::Tcp(listener) => listener.set_nonblocking(nonblocking),
            #[cfg(unix)]
            ListenerInner::Unix(listener) => listener.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match &self.inner {
            ListenerInner::Tcp(listener) => listener.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            ListenerInner::Unix(listener) => {
                listener.accept().map(|(stream, _)| Conn::Unix(stream))
            }
        }
    }
}

impl Drop for CoordListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let CoordAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Timeout-aware line reader: accumulates raw reads and hands back
/// complete `\n`-terminated lines, surviving reads that time out
/// mid-line (a plain `BufRead::read_line` would lose the partial line).
struct LineReader {
    conn: Conn,
    buf: Vec<u8>,
    queue: VecDeque<String>,
}

enum ReadEvent {
    /// One complete line, `\n` (and any trailing `\r`) stripped.
    Line(String),
    /// The read timed out with no complete line — a scheduling tick.
    Tick,
    /// The peer closed the connection.
    Eof,
}

impl LineReader {
    fn new(conn: Conn) -> LineReader {
        LineReader {
            conn,
            buf: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    fn next(&mut self) -> io::Result<ReadEvent> {
        if let Some(line) = self.queue.pop_front() {
            return Ok(ReadEvent::Line(line));
        }
        let mut chunk = [0u8; 4096];
        match self.conn.read(&mut chunk) {
            Ok(0) => Ok(ReadEvent::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                if self.buf.len() > MAX_LINE_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "protocol line exceeds the size cap",
                    ));
                }
                while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                    let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                    line.pop(); // the \n
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    // Lossy: garbled bytes become a line Frame::parse
                    // rejects, rather than a reader error.
                    self.queue
                        .push_back(String::from_utf8_lossy(&line).into_owned());
                }
                match self.queue.pop_front() {
                    Some(line) => Ok(ReadEvent::Line(line)),
                    None => Ok(ReadEvent::Tick),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(ReadEvent::Tick)
            }
            Err(e) => Err(e),
        }
    }
}

fn send_frame(conn: &mut Conn, frame: &Frame) -> io::Result<()> {
    send_line(conn, &frame.to_line())
}

fn send_line(conn: &mut Conn, line: &str) -> io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
}

// ---------------------------------------------------------------------------
// Manifest.

/// The identity of one sweep grid: everything a fragment manifest
/// carries short of shard geometry. The coordinator refuses workers
/// whose manifest disagrees (`reject`), the live equivalent of
/// [`MergeError::ManifestMismatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct GridManifest {
    /// Caller-chosen grid label (e.g. `"sweep-n64-i2004-s7-quick-ideal"`).
    pub instance: String,
    /// Opaque hash of the scenario's topology, costs, traffic, and
    /// mechanism — see [`SweepFragment::instance_fingerprint`].
    pub instance_fingerprint: String,
    /// The swept seeds, in sweep order.
    pub seeds: Vec<u64>,
    /// The swept agents (topology indices), in sweep order.
    pub agents: Vec<usize>,
    /// The catalog's deviation specs, in catalog order.
    pub deviations: Vec<DeviationSpec>,
}

impl GridManifest {
    /// The manifest of the full-agent grid of `scenario × seeds ×
    /// catalog`.
    pub fn new(scenario: &Scenario, seeds: &[u64], catalog: &Catalog, instance: &str) -> Self {
        let agents: Vec<usize> = (0..scenario.num_nodes()).collect();
        GridManifest::sampled(scenario, seeds, catalog, &agents, instance)
    }

    /// The manifest of the grid restricted to deviations by `agents` —
    /// the coordinated counterpart of [`Scenario::sweep_sampled`].
    ///
    /// # Panics
    ///
    /// Panics if an agent index is out of range or listed twice.
    ///
    /// [`Scenario::sweep_sampled`]: super::Scenario::sweep_sampled
    pub fn sampled(
        scenario: &Scenario,
        seeds: &[u64],
        catalog: &Catalog,
        agents: &[usize],
        instance: &str,
    ) -> Self {
        let n = scenario.num_nodes();
        assert!(
            agents.iter().all(|&agent| agent < n),
            "sampled agents must be topology indices"
        );
        assert!(
            (1..agents.len()).all(|i| !agents[..i].contains(&agents[i])),
            "sampled agents must be distinct"
        );
        GridManifest {
            instance: instance.to_string(),
            instance_fingerprint: instance_fingerprint(scenario),
            seeds: seeds.to_vec(),
            agents: agents.to_vec(),
            deviations: catalog.specs(),
        }
    }

    /// Total cells of this grid.
    pub fn grid_cells(&self) -> usize {
        self.seeds.len() * self.agents.len() * self.deviations.len()
    }

    /// First field on which `other` disagrees with `self`, if any.
    fn mismatch(&self, other: &GridManifest) -> Option<String> {
        if self.instance != other.instance {
            return Some(format!(
                "instance {:?} vs coordinator's {:?}",
                other.instance, self.instance
            ));
        }
        if self.instance_fingerprint != other.instance_fingerprint {
            return Some(format!(
                "instance_fingerprint {} vs coordinator's {}",
                other.instance_fingerprint, self.instance_fingerprint
            ));
        }
        if self.seeds != other.seeds {
            return Some(format!(
                "seeds {:?} vs coordinator's {:?}",
                other.seeds, self.seeds
            ));
        }
        if self.agents != other.agents {
            return Some(format!(
                "agents {:?} vs coordinator's {:?}",
                other.agents, self.agents
            ));
        }
        if self.deviations != other.deviations {
            return Some("deviation catalogs disagree".to_string());
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Frames.

/// One line of the `specfaith-coord-v1` protocol. See the module docs
/// for the frame flow.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → coordinator: identification plus the worker's grid
    /// manifest, validated against the coordinator's.
    Hello {
        /// The worker's self-chosen display name.
        worker: String,
        /// The grid the worker believes it is sweeping.
        manifest: GridManifest,
    },
    /// Coordinator → worker: the manifest matched; work may begin.
    Welcome {
        /// Total cells of the grid, informational.
        grid_cells: usize,
    },
    /// Coordinator → worker: the `hello` was refused; the connection
    /// closes after this frame.
    Reject {
        /// Why — e.g. a manifest mismatch.
        reason: String,
    },
    /// Worker → coordinator: every seed's honest-baseline utilities.
    Baselines {
        /// Seconds the worker spent on the baselines.
        secs: f64,
        /// Per swept seed, the honest utility vector.
        baselines: Vec<(u64, Vec<Money>)>,
    },
    /// Worker → coordinator: give me work.
    Ready,
    /// Coordinator → worker: a granted lease.
    Lease {
        /// Lease id, echoed in `heartbeat` and `result`.
        lease: u64,
        /// The global grid indices to evaluate.
        cells: Vec<usize>,
    },
    /// Coordinator → worker: no eligible work right now (outstanding
    /// leases elsewhere, or back-off pending) — ask again.
    Idle {
        /// Suggested retry delay in milliseconds.
        retry_ms: u64,
    },
    /// Worker → coordinator: still computing the named lease.
    Heartbeat {
        /// The held lease id.
        lease: u64,
    },
    /// Worker → coordinator: a completed lease's cells.
    Result {
        /// The completed lease id.
        lease: u64,
        /// Seconds spent evaluating this lease.
        secs: f64,
        /// The evaluated cells, with global grid indices.
        cells: Vec<FragmentCell>,
    },
    /// Coordinator → worker: the grid is complete; disconnect.
    Done,
    /// Coordinator → worker: the run failed; disconnect.
    Abort {
        /// The fatal error, rendered.
        reason: String,
    },
}

impl Frame {
    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Frame::Hello { worker, manifest } => format!(
                "{{\"frame\": \"hello\", \"format\": {}, \"worker\": {}, \"instance\": {}, \
                 \"instance_fingerprint\": {}, \"seeds\": [{}], \"agents\": [{}], \
                 \"deviations\": [{}]}}",
                json_string(COORD_FORMAT),
                json_string(worker),
                json_string(&manifest.instance),
                json_string(&manifest.instance_fingerprint),
                join(manifest.seeds.iter().map(u64::to_string)),
                join(manifest.agents.iter().map(usize::to_string)),
                join(manifest.deviations.iter().map(spec_to_json)),
            ),
            Frame::Welcome { grid_cells } => {
                format!("{{\"frame\": \"welcome\", \"grid_cells\": {grid_cells}}}")
            }
            Frame::Reject { reason } => {
                format!(
                    "{{\"frame\": \"reject\", \"reason\": {}}}",
                    json_string(reason)
                )
            }
            Frame::Baselines { secs, baselines } => format!(
                "{{\"frame\": \"baselines\", \"secs\": {secs:.3}, \"baselines\": [{}]}}",
                join(baselines.iter().map(|(seed, utilities)| format!(
                    "{{\"seed\": {seed}, \"utilities\": [{}]}}",
                    join(utilities.iter().map(|m| m.value().to_string()))
                ))),
            ),
            Frame::Ready => "{\"frame\": \"ready\"}".to_string(),
            Frame::Lease { lease, cells } => format!(
                "{{\"frame\": \"lease\", \"lease\": {lease}, \"cells\": [{}]}}",
                join(cells.iter().map(usize::to_string)),
            ),
            Frame::Idle { retry_ms } => {
                format!("{{\"frame\": \"idle\", \"retry_ms\": {retry_ms}}}")
            }
            Frame::Heartbeat { lease } => {
                format!("{{\"frame\": \"heartbeat\", \"lease\": {lease}}}")
            }
            Frame::Result { lease, secs, cells } => format!(
                "{{\"frame\": \"result\", \"lease\": {lease}, \"secs\": {secs:.3}, \
                 \"cells\": [{}]}}",
                join(cells.iter().map(cell_to_json)),
            ),
            Frame::Done => "{\"frame\": \"done\"}".to_string(),
            Frame::Abort { reason } => {
                format!(
                    "{{\"frame\": \"abort\", \"reason\": {}}}",
                    json_string(reason)
                )
            }
        }
    }

    /// Parses one protocol line. Tolerates unknown keys; any structural
    /// defect is an error, never a panic.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let value = Json::parse(line)?;
        let top = value.as_object("frame")?;
        let kind = get(top, "frame")?.as_str("frame")?;
        match kind {
            "hello" => {
                let format = get(top, "format")?.as_str("format")?;
                if format != COORD_FORMAT {
                    return Err(format!(
                        "protocol format {format:?} is not {COORD_FORMAT:?}"
                    ));
                }
                Ok(Frame::Hello {
                    worker: get(top, "worker")?.as_str("worker")?.to_string(),
                    manifest: GridManifest {
                        instance: get(top, "instance")?.as_str("instance")?.to_string(),
                        instance_fingerprint: get(top, "instance_fingerprint")?
                            .as_str("instance_fingerprint")?
                            .to_string(),
                        seeds: get(top, "seeds")?
                            .as_array("seeds")?
                            .iter()
                            .map(|v| v.as_u64("seed"))
                            .collect::<Result<Vec<_>, _>>()?,
                        agents: get(top, "agents")?
                            .as_array("agents")?
                            .iter()
                            .map(|v| v.as_usize("agent"))
                            .collect::<Result<Vec<_>, _>>()?,
                        deviations: get(top, "deviations")?
                            .as_array("deviations")?
                            .iter()
                            .map(spec_from_json)
                            .collect::<Result<Vec<_>, _>>()?,
                    },
                })
            }
            "welcome" => Ok(Frame::Welcome {
                grid_cells: get(top, "grid_cells")?.as_usize("grid_cells")?,
            }),
            "reject" => Ok(Frame::Reject {
                reason: get(top, "reason")?.as_str("reason")?.to_string(),
            }),
            "baselines" => Ok(Frame::Baselines {
                secs: get(top, "secs")?.as_f64("secs")?,
                baselines: get(top, "baselines")?
                    .as_array("baselines")?
                    .iter()
                    .map(|v| {
                        let obj = v.as_object("baseline")?;
                        let seed = get(obj, "seed")?.as_u64("baseline.seed")?;
                        let utilities = get(obj, "utilities")?
                            .as_array("baseline.utilities")?
                            .iter()
                            .map(|v| Ok(Money::new(v.as_i64("utility")?)))
                            .collect::<Result<Vec<_>, String>>()?;
                        Ok((seed, utilities))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            "ready" => Ok(Frame::Ready),
            "lease" => Ok(Frame::Lease {
                lease: get(top, "lease")?.as_u64("lease")?,
                cells: get(top, "cells")?
                    .as_array("cells")?
                    .iter()
                    .map(|v| v.as_usize("lease cell"))
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "idle" => Ok(Frame::Idle {
                retry_ms: get(top, "retry_ms")?.as_u64("retry_ms")?,
            }),
            "heartbeat" => Ok(Frame::Heartbeat {
                lease: get(top, "lease")?.as_u64("lease")?,
            }),
            "result" => Ok(Frame::Result {
                lease: get(top, "lease")?.as_u64("lease")?,
                secs: get(top, "secs")?.as_f64("secs")?,
                cells: get(top, "cells")?
                    .as_array("cells")?
                    .iter()
                    .map(cell_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "done" => Ok(Frame::Done),
            "abort" => Ok(Frame::Abort {
                reason: get(top, "reason")?.as_str("reason")?.to_string(),
            }),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }
}

fn cell_to_json(cell: &FragmentCell) -> String {
    format!(
        "{{\"index\": {}, \"seed\": {}, \"agent\": {}, \"deviation\": {}, \
         \"deviant_utility\": {}, \"detected\": {}}}",
        cell.index,
        cell.seed,
        cell.agent,
        cell.deviation,
        cell.deviant_utility.value(),
        cell.detected
    )
}

fn cell_from_json(value: &Json) -> Result<FragmentCell, String> {
    let obj = value.as_object("cell")?;
    Ok(FragmentCell {
        index: get(obj, "index")?.as_usize("cell.index")?,
        seed: get(obj, "seed")?.as_u64("cell.seed")?,
        agent: get(obj, "agent")?.as_usize("cell.agent")?,
        deviation: get(obj, "deviation")?.as_usize("cell.deviation")?,
        deviant_utility: Money::new(get(obj, "deviant_utility")?.as_i64("cell.deviant_utility")?),
        detected: get(obj, "detected")?.as_bool("cell.detected")?,
    })
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------------------------
// Configuration, errors, stats.

/// Tuning knobs of one coordinated run. [`CoordConfig::default`] suits
/// the quick CI grid; tests shrink the timeouts.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Cells per lease (contiguous grid ranges). Smaller leases steal
    /// better; larger leases amortize protocol overhead.
    pub lease_cells: usize,
    /// How long a lease may go without a `result` or `heartbeat` before
    /// it is presumed lost and re-queued.
    pub lease_timeout: Duration,
    /// How many times one lease may be granted before the run fails
    /// with [`CoordError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Base back-off before a re-queued lease is eligible again;
    /// doubles per attempt (capped at 32×).
    pub retry_backoff: Duration,
    /// How long the coordinator tolerates having no connected workers
    /// (including before the first connects) before failing with
    /// [`CoordError::NoWorkers`].
    pub idle_timeout: Duration,
    /// After completion, how long to wait for a silent worker's next
    /// frame before closing its connection.
    pub linger: Duration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            lease_cells: 8,
            lease_timeout: Duration::from_secs(30),
            max_attempts: 5,
            retry_backoff: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(120),
            linger: Duration::from_secs(10),
        }
    }
}

/// Why a coordinated run failed.
#[derive(Debug)]
pub enum CoordError {
    /// Socket setup or transport failure.
    Io(String),
    /// A merge-semantics violation — the same typed errors the offline
    /// [`SweepFragment::merge`] raises (baseline conflicts, conflicting
    /// duplicate cells, malformed coordinates, …).
    Merge(MergeError),
    /// One lease was granted [`CoordConfig::max_attempts`] times
    /// without a surviving result.
    RetriesExhausted {
        /// Grant count at failure.
        attempts: u32,
        /// The poisoned lease's cell indices.
        cells: Vec<usize>,
    },
    /// No worker stayed connected for [`CoordConfig::idle_timeout`].
    NoWorkers {
        /// How long the coordinator waited.
        waited: Duration,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Io(detail) => write!(f, "coordination I/O error: {detail}"),
            CoordError::Merge(e) => write!(f, "{e}"),
            CoordError::RetriesExhausted { attempts, cells } => write!(
                f,
                "lease over cells {cells:?} failed {attempts} grants — retries exhausted"
            ),
            CoordError::NoWorkers { waited } => {
                write!(f, "no workers connected for {:.1}s", waited.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for CoordError {}

/// Per-worker execution summary, the live counterpart of
/// [`ShardTiming`]-based shard skew rows.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// The worker's self-chosen name (from `hello`).
    pub name: String,
    /// Leases this worker completed.
    pub leases: u64,
    /// Cells this worker evaluated (including any whose lease had
    /// already been reissued — work done, not cells credited).
    pub cells: usize,
    /// Seconds the worker reported across its `result` frames.
    pub secs: f64,
    /// Seconds the worker reported for its baseline phase.
    pub baseline_secs: f64,
}

/// Counters and per-worker rows of one coordinated run.
#[derive(Clone, Debug, Default)]
pub struct CoordStats {
    /// Total cells of the grid.
    pub grid_cells: usize,
    /// Lease grants, including re-grants.
    pub leases_issued: u64,
    /// Leases re-queued after a death, timeout, or protocol violation.
    pub leases_reissued: u64,
    /// Bit-identical duplicate cells tolerated (late results of
    /// reissued leases, or an injected duplicate frame).
    pub duplicate_results: u64,
    /// Lines that failed to parse; each costs its sender the
    /// connection.
    pub corrupt_lines: u64,
    /// Per-worker rows, sorted by name.
    pub workers: Vec<WorkerStats>,
}

impl CoordStats {
    /// A one-line-per-worker skew table, shaped like
    /// [`SweepFragment::skew_summary`].
    pub fn skew_summary(&self) -> String {
        let mut lines = String::new();
        let mut rates: Vec<f64> = Vec::new();
        for worker in &self.workers {
            let rate = if worker.cells > 0 && worker.secs > 0.0 {
                Some(worker.cells as f64 / worker.secs)
            } else {
                None
            };
            if let Some(rate) = rate {
                rates.push(rate);
            }
            lines.push_str(&format!(
                "  worker {}: {} cells over {} leases in {:.3}s ({}; baseline {:.3}s)\n",
                worker.name,
                worker.cells,
                worker.leases,
                worker.secs,
                match rate {
                    Some(rate) => format!("{rate:.2} cells/s"),
                    None => "idle".to_string(),
                },
                worker.baseline_secs,
            ));
        }
        let skew = match (
            rates.iter().cloned().reduce(f64::max),
            rates.iter().cloned().reduce(f64::min),
        ) {
            (Some(max), Some(min)) if min > 0.0 => format!("{:.2}", max / min),
            _ => "n/a".to_string(),
        };
        lines.push_str(&format!("  throughput skew (max/min): {skew}\n"));
        lines
    }
}

/// A successful coordinated run: the merged report (byte-identical to
/// the monolithic sweep), its fingerprint, and the run's stats.
#[derive(Clone, Debug)]
pub struct CoordOutcome {
    /// The merged sweep report.
    pub report: SweepReport,
    /// `report.fingerprint()`, precomputed.
    pub fingerprint: String,
    /// Scheduling and fault counters.
    pub stats: CoordStats,
}

// ---------------------------------------------------------------------------
// Coordinator state machine.

/// A lease waiting in the queue.
struct QueuedLease {
    cells: Vec<usize>,
    attempts: u32,
    not_before: Instant,
}

/// A granted lease awaiting its result.
struct Outstanding {
    cells: Vec<usize>,
    attempts: u32,
    conn_id: u64,
    deadline: Instant,
}

struct CoordState {
    queue: VecDeque<QueuedLease>,
    outstanding: HashMap<u64, Outstanding>,
    next_lease: u64,
    slots: Vec<Option<FragmentCell>>,
    remaining: usize,
    baselines: Option<Vec<(u64, Vec<Money>)>>,
    connected: usize,
    idle_since: Option<Instant>,
    stats: CoordStats,
    fatal: Option<CoordError>,
}

impl CoordState {
    fn complete(&self) -> bool {
        self.remaining == 0 && self.baselines.is_some()
    }

    fn finished(&self) -> bool {
        self.complete() || self.fatal.is_some()
    }

    fn set_fatal(&mut self, error: CoordError) {
        if self.fatal.is_none() {
            self.fatal = Some(error);
        }
    }

    fn fatal_reason(&self) -> Option<String> {
        self.fatal.as_ref().map(|e| e.to_string())
    }

    fn worker_mut(&mut self, name: &str) -> &mut WorkerStats {
        if let Some(pos) = self.stats.workers.iter().position(|w| w.name == name) {
            return &mut self.stats.workers[pos];
        }
        self.stats.workers.push(WorkerStats {
            name: name.to_string(),
            ..WorkerStats::default()
        });
        self.stats.workers.last_mut().expect("just pushed")
    }
}

struct Shared {
    manifest: GridManifest,
    config: CoordConfig,
    state: Mutex<CoordState>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-queues one reclaimed lease with back-off, or fails the run
    /// when its attempts are exhausted.
    fn requeue(&self, st: &mut CoordState, lease: Outstanding) {
        let attempts = lease.attempts + 1;
        st.stats.leases_reissued += 1;
        if attempts >= self.config.max_attempts {
            st.set_fatal(CoordError::RetriesExhausted {
                attempts,
                cells: lease.cells.clone(),
            });
            return;
        }
        let backoff = self
            .config
            .retry_backoff
            .saturating_mul(1u32 << attempts.saturating_sub(1).min(5));
        st.queue.push_back(QueuedLease {
            cells: lease.cells,
            attempts,
            not_before: Instant::now() + backoff,
        });
    }

    /// Reclaims every outstanding lease whose deadline has passed.
    fn reap(&self, st: &mut CoordState) {
        let now = Instant::now();
        let expired: Vec<u64> = st
            .outstanding
            .iter()
            .filter(|(_, lease)| lease.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if let Some(lease) = st.outstanding.remove(&id) {
                self.requeue(st, lease);
            }
        }
    }

    /// A connection ended (EOF, error, or protocol violation): reclaim
    /// its outstanding leases and update the idle clock.
    fn drop_conn(&self, conn_id: u64) {
        let mut st = self.lock();
        let lost: Vec<u64> = st
            .outstanding
            .iter()
            .filter(|(_, lease)| lease.conn_id == conn_id)
            .map(|(&id, _)| id)
            .collect();
        for id in lost {
            if let Some(lease) = st.outstanding.remove(&id) {
                self.requeue(&mut st, lease);
            }
        }
        st.connected = st.connected.saturating_sub(1);
        if st.connected == 0 {
            st.idle_since = Some(Instant::now());
        }
    }

    /// Grants the first eligible queued lease to `conn_id`, if any.
    fn take_lease(&self, st: &mut CoordState, conn_id: u64) -> Option<(u64, Vec<usize>)> {
        let now = Instant::now();
        let pos = st.queue.iter().position(|lease| lease.not_before <= now)?;
        let lease = st.queue.remove(pos).expect("position just found");
        let id = st.next_lease;
        st.next_lease += 1;
        st.stats.leases_issued += 1;
        st.outstanding.insert(
            id,
            Outstanding {
                cells: lease.cells.clone(),
                attempts: lease.attempts,
                conn_id,
                deadline: now + self.config.lease_timeout,
            },
        );
        Some((id, lease.cells))
    }

    /// Validates and places one result frame's cells. Any violation
    /// sets the fatal error and reports it back as `Err`.
    fn accept_result(
        &self,
        st: &mut CoordState,
        worker: &str,
        lease: u64,
        secs: f64,
        cells: Vec<FragmentCell>,
    ) -> Result<(), ()> {
        let agents = self.manifest.agents.len();
        let deviations = self.manifest.deviations.len();
        let total = st.slots.len();
        for cell in &cells {
            if cell.index >= total {
                st.set_fatal(CoordError::Merge(MergeError::MalformedCell {
                    detail: format!("cell index {} outside the {total}-cell grid", cell.index),
                }));
                return Err(());
            }
            let seed_index = cell.index / (agents * deviations);
            let agent_pos = (cell.index / deviations) % agents;
            let deviation = cell.index % deviations;
            let expected = (
                self.manifest.seeds[seed_index],
                self.manifest.agents[agent_pos],
                deviation,
            );
            if (cell.seed, cell.agent, cell.deviation) != expected {
                st.set_fatal(CoordError::Merge(MergeError::MalformedCell {
                    detail: format!(
                        "cell {} claims (seed {}, agent {}, deviation {}), \
                         grid index implies (seed {}, agent {}, deviation {})",
                        cell.index,
                        cell.seed,
                        cell.agent,
                        cell.deviation,
                        expected.0,
                        expected.1,
                        expected.2
                    ),
                }));
                return Err(());
            }
        }
        let evaluated = cells.len();
        for cell in cells {
            match &st.slots[cell.index] {
                Some(existing) if *existing == cell => st.stats.duplicate_results += 1,
                Some(_) => {
                    st.set_fatal(CoordError::Merge(MergeError::DuplicateCell {
                        index: cell.index,
                    }));
                    return Err(());
                }
                None => {
                    let index = cell.index;
                    st.slots[index] = Some(cell);
                    st.remaining -= 1;
                }
            }
        }
        if st.outstanding.remove(&lease).is_some() {
            st.worker_mut(worker).leases += 1;
        }
        let row = st.worker_mut(worker);
        row.cells += evaluated;
        row.secs += secs;
        if st.remaining == 0 && st.baselines.is_none() {
            st.set_fatal(CoordError::Io(
                "grid complete but no worker supplied baselines".to_string(),
            ));
            return Err(());
        }
        Ok(())
    }

    /// Validates one baselines frame against the manifest and any
    /// previously accepted set.
    fn accept_baselines(
        &self,
        st: &mut CoordState,
        worker: &str,
        secs: f64,
        baselines: Vec<(u64, Vec<Money>)>,
    ) -> Result<(), ()> {
        if baselines.len() != self.manifest.seeds.len()
            || baselines
                .iter()
                .map(|(seed, _)| *seed)
                .ne(self.manifest.seeds.iter().copied())
        {
            st.set_fatal(CoordError::Merge(MergeError::ManifestMismatch {
                detail: format!(
                    "worker {worker} baselines cover seeds {:?}, expected {:?}",
                    baselines.iter().map(|(seed, _)| *seed).collect::<Vec<_>>(),
                    self.manifest.seeds
                ),
            }));
            return Err(());
        }
        match &st.baselines {
            None => st.baselines = Some(baselines),
            Some(existing) => {
                for ((seed, utilities), (_, reference)) in baselines.iter().zip(existing) {
                    if utilities != reference {
                        st.set_fatal(CoordError::Merge(MergeError::BaselineConflict {
                            seed: *seed,
                        }));
                        return Err(());
                    }
                }
            }
        }
        st.worker_mut(worker).baseline_secs += secs;
        Ok(())
    }
}

/// The lease-issuing driver of one coordinated sweep. Construct with
/// [`Coordinator::new`] (full-agent grid) or [`Coordinator::sampled`],
/// bind a [`CoordListener`], and call [`Coordinator::serve`]; point any
/// number of [`run_worker`] processes (or threads) at the listener's
/// address.
pub struct Coordinator {
    manifest: GridManifest,
    config: CoordConfig,
}

impl Coordinator {
    /// A coordinator for the full-agent grid of
    /// `scenario × seeds × catalog`, labelled `instance`.
    pub fn new(
        scenario: &Scenario,
        seeds: &[u64],
        catalog: &Catalog,
        instance: &str,
        config: CoordConfig,
    ) -> Self {
        Coordinator {
            manifest: GridManifest::new(scenario, seeds, catalog, instance),
            config,
        }
    }

    /// A coordinator for the grid restricted to deviations by `agents`.
    ///
    /// # Panics
    ///
    /// Panics if an agent index is out of range or listed twice.
    pub fn sampled(
        scenario: &Scenario,
        seeds: &[u64],
        catalog: &Catalog,
        agents: &[usize],
        instance: &str,
        config: CoordConfig,
    ) -> Self {
        Coordinator {
            manifest: GridManifest::sampled(scenario, seeds, catalog, agents, instance),
            config,
        }
    }

    /// The grid manifest workers must match.
    pub fn manifest(&self) -> &GridManifest {
        &self.manifest
    }

    /// Runs the coordination loop on `listener` until the grid is
    /// complete or the run fails, then merges through
    /// [`SweepFragment::merge`] and fingerprints the report.
    pub fn serve(&self, listener: CoordListener) -> Result<CoordOutcome, CoordError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| CoordError::Io(e.to_string()))?;
        let total = self.manifest.grid_cells();
        let lease_cells = self.config.lease_cells.max(1);
        let queue: VecDeque<QueuedLease> = (0..total)
            .step_by(lease_cells)
            .map(|start| QueuedLease {
                cells: (start..(start + lease_cells).min(total)).collect(),
                attempts: 0,
                not_before: Instant::now(),
            })
            .collect();
        let shared = Arc::new(Shared {
            manifest: self.manifest.clone(),
            config: self.config.clone(),
            state: Mutex::new(CoordState {
                queue,
                outstanding: HashMap::new(),
                next_lease: 0,
                slots: vec![None; total],
                remaining: total,
                baselines: None,
                connected: 0,
                idle_since: Some(Instant::now()),
                stats: CoordStats {
                    grid_cells: total,
                    ..CoordStats::default()
                },
                fatal: None,
            }),
        });

        let mut handles = Vec::new();
        let mut next_conn_id: u64 = 0;
        loop {
            {
                let mut st = shared.lock();
                shared.reap(&mut st);
                if st.finished() {
                    break;
                }
                if let Some(idle_since) = st.idle_since {
                    if idle_since.elapsed() >= self.config.idle_timeout {
                        st.set_fatal(CoordError::NoWorkers {
                            waited: idle_since.elapsed(),
                        });
                        break;
                    }
                }
            }
            match listener.accept() {
                Ok(conn) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    let shared = Arc::clone(&shared);
                    handles.push(thread::spawn(move || handle_conn(conn, conn_id, shared)));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    thread::sleep(Duration::from_millis(15));
                }
                Err(e) => {
                    shared.lock().set_fatal(CoordError::Io(e.to_string()));
                    break;
                }
            }
        }
        drop(listener);
        for handle in handles {
            let _ = handle.join();
        }

        let mut st = shared.lock();
        if let Some(fatal) = st.fatal.take() {
            return Err(fatal);
        }
        let cells: Vec<FragmentCell> = std::mem::take(&mut st.slots)
            .into_iter()
            .flatten()
            .collect();
        let baselines = st.baselines.take().expect("complete() implies baselines");
        let mut stats = std::mem::take(&mut st.stats);
        drop(st);
        stats.workers.sort_by(|a, b| a.name.cmp(&b.name));
        let fragment = SweepFragment {
            shard: ShardSpec::new(0, 1),
            instance: self.manifest.instance.clone(),
            instance_fingerprint: self.manifest.instance_fingerprint.clone(),
            seeds: self.manifest.seeds.clone(),
            agents: self.manifest.agents.clone(),
            deviations: self.manifest.deviations.clone(),
            baselines,
            cells,
            timing: ShardTiming {
                baseline_secs: stats.workers.iter().map(|w| w.baseline_secs).sum(),
                cells_secs: stats.workers.iter().map(|w| w.secs).sum(),
            },
        };
        let report = SweepFragment::merge(&[fragment]).map_err(CoordError::Merge)?;
        let fingerprint = report.fingerprint();
        Ok(CoordOutcome {
            report,
            fingerprint,
            stats,
        })
    }
}

/// One worker connection's server-side loop.
fn handle_conn(conn: Conn, conn_id: u64, shared: Arc<Shared>) {
    if conn.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let mut writer = match conn.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = LineReader::new(conn);

    // Phase 1: hello, validated against the coordinator's manifest.
    let hello_deadline = Instant::now() + HELLO_TIMEOUT;
    let line = loop {
        match reader.next() {
            Ok(ReadEvent::Line(line)) => break line,
            Ok(ReadEvent::Tick) => {
                if Instant::now() >= hello_deadline || shared.lock().fatal.is_some() {
                    return;
                }
            }
            Ok(ReadEvent::Eof) | Err(_) => return,
        }
    };
    let (worker, manifest) = match Frame::parse(&line) {
        Ok(Frame::Hello { worker, manifest }) => (worker, manifest),
        _ => {
            let _ = send_frame(
                &mut writer,
                &Frame::Reject {
                    reason: "expected a hello frame".to_string(),
                },
            );
            return;
        }
    };
    if let Some(detail) = shared.manifest.mismatch(&manifest) {
        let _ = send_frame(&mut writer, &Frame::Reject { reason: detail });
        return;
    }
    {
        let mut st = shared.lock();
        st.connected += 1;
        st.idle_since = None;
        st.worker_mut(&worker);
    }
    let grid_cells = shared.manifest.grid_cells();
    if send_frame(&mut writer, &Frame::Welcome { grid_cells }).is_err() {
        shared.drop_conn(conn_id);
        return;
    }

    // Phase 2: the pull loop.
    let mut linger_since: Option<Instant> = None;
    loop {
        let event = match reader.next() {
            Ok(event) => event,
            Err(_) => {
                shared.drop_conn(conn_id);
                return;
            }
        };
        match event {
            ReadEvent::Eof => {
                shared.drop_conn(conn_id);
                return;
            }
            ReadEvent::Tick => {
                let mut st = shared.lock();
                shared.reap(&mut st);
                if let Some(reason) = st.fatal_reason() {
                    drop(st);
                    let _ = send_frame(&mut writer, &Frame::Abort { reason });
                    shared.drop_conn(conn_id);
                    return;
                }
                if st.complete() {
                    match linger_since {
                        None => linger_since = Some(Instant::now()),
                        Some(since) if since.elapsed() >= shared.config.linger => {
                            drop(st);
                            let _ = send_frame(&mut writer, &Frame::Done);
                            shared.drop_conn(conn_id);
                            return;
                        }
                        Some(_) => {}
                    }
                }
            }
            ReadEvent::Line(line) => {
                linger_since = None;
                let frame = match Frame::parse(&line) {
                    Ok(frame) => frame,
                    Err(_) => {
                        // A garbled line costs the sender its
                        // connection; its leases are re-queued.
                        shared.lock().stats.corrupt_lines += 1;
                        shared.drop_conn(conn_id);
                        return;
                    }
                };
                let mut st = shared.lock();
                if let Some(reason) = st.fatal_reason() {
                    drop(st);
                    let _ = send_frame(&mut writer, &Frame::Abort { reason });
                    shared.drop_conn(conn_id);
                    return;
                }
                match frame {
                    Frame::Ready => {
                        if st.complete() {
                            drop(st);
                            let _ = send_frame(&mut writer, &Frame::Done);
                            shared.drop_conn(conn_id);
                            return;
                        }
                        let granted = shared.take_lease(&mut st, conn_id);
                        drop(st);
                        let reply = match granted {
                            Some((lease, cells)) => Frame::Lease { lease, cells },
                            None => Frame::Idle { retry_ms: 50 },
                        };
                        if send_frame(&mut writer, &reply).is_err() {
                            shared.drop_conn(conn_id);
                            return;
                        }
                    }
                    Frame::Result { lease, secs, cells } => {
                        if shared
                            .accept_result(&mut st, &worker, lease, secs, cells)
                            .is_err()
                        {
                            let reason = st.fatal_reason().unwrap_or_default();
                            drop(st);
                            let _ = send_frame(&mut writer, &Frame::Abort { reason });
                            shared.drop_conn(conn_id);
                            return;
                        }
                    }
                    Frame::Baselines { secs, baselines } => {
                        if shared
                            .accept_baselines(&mut st, &worker, secs, baselines)
                            .is_err()
                        {
                            let reason = st.fatal_reason().unwrap_or_default();
                            drop(st);
                            let _ = send_frame(&mut writer, &Frame::Abort { reason });
                            shared.drop_conn(conn_id);
                            return;
                        }
                    }
                    Frame::Heartbeat { lease } => {
                        let deadline = Instant::now() + shared.config.lease_timeout;
                        if let Some(outstanding) = st.outstanding.get_mut(&lease) {
                            outstanding.deadline = deadline;
                        }
                    }
                    _ => {
                        // A coordinator-bound connection sending
                        // coordinator frames is a protocol violation.
                        st.stats.corrupt_lines += 1;
                        drop(st);
                        shared.drop_conn(conn_id);
                        return;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker.

/// Deterministic worker-side fault injection, so the coordinator's
/// failure paths are testable in-process. All fields compose; the
/// default injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Drop the connection (simulated crash) before evaluating cell
    /// `k + 1`, counting evaluated cells across leases.
    pub kill_after_cells: Option<usize>,
    /// Stop responding — hold the current lease, send nothing, keep the
    /// connection open — before evaluating cell `k + 1`. Exercises the
    /// lease-timeout (rather than EOF) reissue path.
    pub hang_after_cells: Option<usize>,
    /// Sleep this long before every cell (a deliberately slow worker,
    /// for work-stealing assertions).
    pub delay_per_cell: Option<Duration>,
    /// Sleep before sending the `n`-th (0-based) result line.
    pub delay_result: Option<(u64, Duration)>,
    /// Send the `n`-th (0-based) result line twice. The duplicate is
    /// bit-identical, so the coordinator tolerates and counts it.
    pub duplicate_result: Option<u64>,
    /// Garble the `n`-th (0-based) result line so it fails to parse,
    /// costing this worker its connection and the lease a reissue.
    pub corrupt_result: Option<u64>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Applies one CLI fault clause to this plan. Clauses:
    /// `kill-after-cells=K`, `hang-after-cells=K`,
    /// `delay-per-cell-ms=MS`, `delay-result=N:MS`,
    /// `duplicate-result=N`, `corrupt-result=N`.
    pub fn apply(&mut self, clause: &str) -> Result<(), String> {
        let (key, value) = clause
            .split_once('=')
            .ok_or_else(|| format!("fault clause {clause:?} is not key=value"))?;
        let bad = |e: &dyn fmt::Display| format!("fault clause {clause:?}: {e}");
        match key {
            "kill-after-cells" => {
                self.kill_after_cells = Some(value.parse().map_err(|e| bad(&e))?);
            }
            "hang-after-cells" => {
                self.hang_after_cells = Some(value.parse().map_err(|e| bad(&e))?);
            }
            "delay-per-cell-ms" => {
                let ms: u64 = value.parse().map_err(|e| bad(&e))?;
                self.delay_per_cell = Some(Duration::from_millis(ms));
            }
            "delay-result" => {
                let (ordinal, ms) = value.split_once(':').ok_or_else(|| bad(&"expected N:MS"))?;
                self.delay_result = Some((
                    ordinal.parse().map_err(|e| bad(&e))?,
                    Duration::from_millis(ms.parse().map_err(|e| bad(&e))?),
                ));
            }
            "duplicate-result" => {
                self.duplicate_result = Some(value.parse().map_err(|e| bad(&e))?);
            }
            "corrupt-result" => {
                self.corrupt_result = Some(value.parse().map_err(|e| bad(&e))?);
            }
            other => return Err(format!("unknown fault kind {other:?}")),
        }
        Ok(())
    }
}

/// One worker's identity and behavior knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Display name, carried in `hello` and the coordinator's skew
    /// table.
    pub name: String,
    /// Injected faults (default: none).
    pub fault: FaultPlan,
    /// Minimum interval between `heartbeat` frames while computing a
    /// lease (sent between cells).
    pub heartbeat: Duration,
    /// How many times to retry the initial connect (the coordinator
    /// may not be listening yet).
    pub connect_attempts: u32,
    /// Delay between connect retries.
    pub connect_retry: Duration,
}

impl WorkerConfig {
    /// A fault-free worker named `name` with default timing.
    pub fn named(name: &str) -> WorkerConfig {
        WorkerConfig {
            name: name.to_string(),
            fault: FaultPlan::none(),
            heartbeat: Duration::from_secs(1),
            connect_attempts: 50,
            connect_retry: Duration::from_millis(100),
        }
    }
}

/// Why a worker run failed.
#[derive(Debug)]
pub enum WorkerError {
    /// Socket or protocol failure.
    Io(String),
    /// The coordinator refused this worker's `hello` (manifest
    /// mismatch, usually).
    Rejected(String),
    /// The coordinator aborted the run.
    Aborted(String),
    /// The coordinator vanished mid-run.
    Disconnected,
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Io(detail) => write!(f, "worker I/O error: {detail}"),
            WorkerError::Rejected(reason) => write!(f, "coordinator rejected worker: {reason}"),
            WorkerError::Aborted(reason) => write!(f, "coordinator aborted the run: {reason}"),
            WorkerError::Disconnected => write!(f, "coordinator disconnected"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// What one worker did, including whether an injected fault ended it.
#[derive(Clone, Debug, Default)]
pub struct WorkerSummary {
    /// The worker's name.
    pub name: String,
    /// Cells evaluated (whether or not their results survived).
    pub cells: usize,
    /// Result frames sent.
    pub leases: u64,
    /// Ended by [`FaultPlan::kill_after_cells`].
    pub killed: bool,
    /// Ended by [`FaultPlan::hang_after_cells`] (after the coordinator
    /// closed the hung connection).
    pub hung: bool,
}

/// Runs one worker over the full-agent grid against the coordinator at
/// `addr`, until the coordinator sends `done` (or a [`FaultPlan`] entry
/// ends the run early — reported in the summary, not as an error).
///
/// The scenario, seeds, catalog, and `instance` label must match the
/// coordinator's or the `hello` is rejected.
pub fn run_worker(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    instance: &str,
    addr: &CoordAddr,
    config: WorkerConfig,
) -> Result<WorkerSummary, WorkerError> {
    let agents: Vec<usize> = (0..scenario.num_nodes()).collect();
    worker_inner(scenario, seeds, catalog, &agents, instance, addr, config)
}

/// [`run_worker`] restricted to deviations by `agents` — must match a
/// [`Coordinator::sampled`] grid.
///
/// # Panics
///
/// Panics if an agent index is out of range or listed twice.
pub fn run_worker_sampled(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    agents: &[usize],
    instance: &str,
    addr: &CoordAddr,
    config: WorkerConfig,
) -> Result<WorkerSummary, WorkerError> {
    worker_inner(scenario, seeds, catalog, agents, instance, addr, config)
}

fn connect_with_retry(addr: &CoordAddr, config: &WorkerConfig) -> Result<Conn, WorkerError> {
    let mut last = None;
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            thread::sleep(config.connect_retry);
        }
        match Conn::connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) => last = Some(e),
        }
    }
    Err(WorkerError::Io(format!(
        "could not connect to {addr}: {}",
        last.map(|e| e.to_string()).unwrap_or_default()
    )))
}

/// Blocks until the coordinator's next frame (or a timeout/EOF).
fn read_frame(reader: &mut LineReader) -> Result<Frame, WorkerError> {
    let deadline = Instant::now() + WORKER_FRAME_TIMEOUT;
    loop {
        match reader.next().map_err(|e| WorkerError::Io(e.to_string()))? {
            ReadEvent::Line(line) => return Frame::parse(&line).map_err(WorkerError::Io),
            ReadEvent::Tick => {
                if Instant::now() >= deadline {
                    return Err(WorkerError::Io("coordinator unresponsive".to_string()));
                }
            }
            ReadEvent::Eof => return Err(WorkerError::Disconnected),
        }
    }
}

/// Holds the connection open without responding until the coordinator
/// gives up on it — the tail of [`FaultPlan::hang_after_cells`].
fn hang_until_closed(reader: &mut LineReader) {
    loop {
        match reader.next() {
            Ok(ReadEvent::Line(line)) => {
                if matches!(Frame::parse(&line), Ok(Frame::Done | Frame::Abort { .. })) {
                    return;
                }
            }
            Ok(ReadEvent::Tick) => {}
            Ok(ReadEvent::Eof) | Err(_) => return,
        }
    }
}

fn worker_inner(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    agents: &[usize],
    instance: &str,
    addr: &CoordAddr,
    config: WorkerConfig,
) -> Result<WorkerSummary, WorkerError> {
    // Same cache discipline as a shard job: a fresh scope, in which the
    // honest baselines pin the true-cost cache for the worker's lifetime.
    let scenario = scenario.with_route_scope(CacheScope::eager());
    let manifest = GridManifest::sampled(&scenario, seeds, catalog, agents, instance);
    let specs = manifest.deviations.clone();

    let conn = connect_with_retry(addr, &config)?;
    conn.set_read_timeout(Some(TICK))
        .map_err(|e| WorkerError::Io(e.to_string()))?;
    let mut writer = conn
        .try_clone()
        .map_err(|e| WorkerError::Io(e.to_string()))?;
    let mut reader = LineReader::new(conn);
    let send = |writer: &mut Conn, frame: &Frame| {
        send_frame(writer, frame).map_err(|_| WorkerError::Disconnected)
    };

    send(
        &mut writer,
        &Frame::Hello {
            worker: config.name.clone(),
            manifest: manifest.clone(),
        },
    )?;
    match read_frame(&mut reader)? {
        Frame::Welcome { .. } => {}
        Frame::Reject { reason } => return Err(WorkerError::Rejected(reason)),
        Frame::Abort { reason } => return Err(WorkerError::Aborted(reason)),
        other => return Err(WorkerError::Io(format!("expected welcome, got {other:?}"))),
    }

    let started = Instant::now();
    let baselines: Vec<(u64, Vec<Money>)> = seeds
        .iter()
        .map(|&seed| (seed, evaluate_baseline(&scenario, seed).utilities))
        .collect();
    send(
        &mut writer,
        &Frame::Baselines {
            secs: started.elapsed().as_secs_f64(),
            baselines,
        },
    )?;

    let grid = deviation_grid(seeds, agents, specs.len());
    let mut summary = WorkerSummary {
        name: config.name.clone(),
        ..WorkerSummary::default()
    };
    let mut results_sent: u64 = 0;
    let mut last_heartbeat = Instant::now();
    loop {
        send(&mut writer, &Frame::Ready)?;
        match read_frame(&mut reader)? {
            Frame::Lease { lease, cells } => {
                let started = Instant::now();
                let mut evaluated = Vec::with_capacity(cells.len());
                for index in cells {
                    let cell = grid.get(index).ok_or_else(|| {
                        WorkerError::Io(format!("lease cell {index} outside the grid"))
                    })?;
                    if config.fault.kill_after_cells == Some(summary.cells) {
                        summary.killed = true;
                        return Ok(summary);
                    }
                    if config.fault.hang_after_cells == Some(summary.cells) {
                        summary.hung = true;
                        hang_until_closed(&mut reader);
                        return Ok(summary);
                    }
                    if let Some(delay) = config.fault.delay_per_cell {
                        thread::sleep(delay);
                    }
                    let result = evaluate(&scenario, catalog, cell);
                    evaluated.push(FragmentCell {
                        index,
                        seed: cell.base_seed,
                        agent: cell.agent,
                        deviation: cell.deviation,
                        deviant_utility: result.utilities[cell.agent],
                        detected: result.detected,
                    });
                    summary.cells += 1;
                    if last_heartbeat.elapsed() >= config.heartbeat {
                        send(&mut writer, &Frame::Heartbeat { lease })?;
                        last_heartbeat = Instant::now();
                    }
                }
                let mut line = Frame::Result {
                    lease,
                    secs: started.elapsed().as_secs_f64(),
                    cells: evaluated,
                }
                .to_line();
                if config.fault.corrupt_result == Some(results_sent) {
                    line = format!("<corrupt>{line}");
                }
                if let Some((ordinal, delay)) = config.fault.delay_result {
                    if ordinal == results_sent {
                        thread::sleep(delay);
                    }
                }
                send_line(&mut writer, &line).map_err(|_| WorkerError::Disconnected)?;
                if config.fault.duplicate_result == Some(results_sent) {
                    send_line(&mut writer, &line).map_err(|_| WorkerError::Disconnected)?;
                }
                results_sent += 1;
                summary.leases += 1;
            }
            Frame::Idle { retry_ms } => {
                thread::sleep(Duration::from_millis(retry_ms.min(200)));
            }
            Frame::Done => return Ok(summary),
            Frame::Abort { reason } => return Err(WorkerError::Aborted(reason)),
            other => {
                return Err(WorkerError::Io(format!(
                    "unexpected frame mid-run: {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mechanism, TopologySource, TrafficModel};

    fn tiny_scenario() -> Scenario {
        Scenario::builder()
            .topology(TopologySource::Figure1)
            .traffic(TrafficModel::single_by_index(5, 4, 3))
            .mechanism(Mechanism::faithful())
            .build()
    }

    fn small_catalog() -> Catalog {
        use specfaith_core::id::NodeId;
        use specfaith_fpss::deviation::standard_catalog;
        let _ = NodeId::new(0);
        Catalog::from_factory(|deviant| standard_catalog(deviant).into_iter().take(2).collect())
    }

    #[test]
    fn coord_addr_parses_and_displays() {
        assert_eq!(
            CoordAddr::parse("unix:/tmp/x.sock"),
            Ok(CoordAddr::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            CoordAddr::parse("tcp:127.0.0.1:7744"),
            Ok(CoordAddr::Tcp("127.0.0.1:7744".to_string()))
        );
        assert_eq!(
            CoordAddr::parse("tcp:127.0.0.1:0").unwrap().to_string(),
            "tcp:127.0.0.1:0"
        );
        assert!(CoordAddr::parse("udp:nope").is_err());
        assert!(CoordAddr::parse("unix:").is_err());
        assert!(CoordAddr::parse("tcp:").is_err());
    }

    #[test]
    fn frames_round_trip_through_their_lines() {
        let scenario = tiny_scenario();
        let manifest = GridManifest::new(&scenario, &[7, 8], &small_catalog(), "tiny");
        let frames = vec![
            Frame::Hello {
                worker: "w-0".to_string(),
                manifest: manifest.clone(),
            },
            Frame::Welcome { grid_cells: 24 },
            Frame::Reject {
                reason: "manifest \"quoted\" mismatch".to_string(),
            },
            Frame::Baselines {
                secs: 0.25,
                baselines: vec![(7, vec![Money::new(-3), Money::new(12)])],
            },
            Frame::Ready,
            Frame::Lease {
                lease: 3,
                cells: vec![0, 1, 5],
            },
            Frame::Idle { retry_ms: 50 },
            Frame::Heartbeat { lease: 3 },
            Frame::Result {
                lease: 3,
                secs: 1.5,
                cells: vec![FragmentCell {
                    index: 5,
                    seed: 7,
                    agent: 2,
                    deviation: 1,
                    deviant_utility: Money::new(-44),
                    detected: true,
                }],
            },
            Frame::Done,
            Frame::Abort {
                reason: "retries exhausted".to_string(),
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "frames must be single lines: {line}");
            assert_eq!(Frame::parse(&line).expect("parse"), frame, "line: {line}");
        }
    }

    #[test]
    fn frame_parse_rejects_garbage_without_panicking() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"frame\": \"warp\"}",
            "{\"frame\": \"lease\", \"lease\": 1}",
            "{\"frame\": \"hello\", \"format\": \"other-v9\"}",
            "{\"frame\": 7}",
            "[1, 2, 3]",
        ] {
            assert!(Frame::parse(line).is_err(), "line {line:?} must not parse");
        }
    }

    #[test]
    fn fault_plan_clauses_parse_and_reject() {
        let mut plan = FaultPlan::none();
        plan.apply("kill-after-cells=5").expect("kill");
        plan.apply("hang-after-cells=7").expect("hang");
        plan.apply("delay-per-cell-ms=250").expect("delay");
        plan.apply("delay-result=2:500").expect("delay result");
        plan.apply("duplicate-result=0").expect("dup");
        plan.apply("corrupt-result=1").expect("corrupt");
        assert_eq!(plan.kill_after_cells, Some(5));
        assert_eq!(plan.hang_after_cells, Some(7));
        assert_eq!(plan.delay_per_cell, Some(Duration::from_millis(250)));
        assert_eq!(plan.delay_result, Some((2, Duration::from_millis(500))));
        assert_eq!(plan.duplicate_result, Some(0));
        assert_eq!(plan.corrupt_result, Some(1));
        assert!(FaultPlan::none().apply("kill-after-cells").is_err());
        assert!(FaultPlan::none().apply("explode=9").is_err());
        assert!(FaultPlan::none().apply("delay-result=5").is_err());
        assert!(FaultPlan::none().apply("kill-after-cells=many").is_err());
    }

    #[test]
    fn manifest_mismatch_names_the_field() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let manifest = GridManifest::new(&scenario, &[7], &catalog, "tiny");
        assert_eq!(manifest.mismatch(&manifest.clone()), None);
        let mut other = manifest.clone();
        other.instance = "imposter".to_string();
        assert!(manifest
            .mismatch(&other)
            .expect("mismatch")
            .contains("instance"));
        let mut other = manifest.clone();
        other.seeds = vec![8];
        assert!(manifest
            .mismatch(&other)
            .expect("mismatch")
            .contains("seeds"));
        let mut other = manifest.clone();
        other.agents = vec![0];
        assert!(manifest
            .mismatch(&other)
            .expect("mismatch")
            .contains("agents"));
    }

    #[test]
    fn skew_summary_names_every_worker() {
        let stats = CoordStats {
            grid_cells: 12,
            workers: vec![
                WorkerStats {
                    name: "a".to_string(),
                    leases: 2,
                    cells: 8,
                    secs: 2.0,
                    baseline_secs: 0.5,
                },
                WorkerStats {
                    name: "b".to_string(),
                    ..WorkerStats::default()
                },
            ],
            ..CoordStats::default()
        };
        let summary = stats.skew_summary();
        assert!(summary.contains("worker a: 8 cells over 2 leases"));
        assert!(summary.contains("worker b: 0 cells"));
        assert!(summary.contains("idle"));
        assert!(summary.contains("throughput skew"));
    }
}
