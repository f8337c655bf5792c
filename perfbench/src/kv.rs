//! The live KV workloads: spawn the shipped `falcon_server`, drive it
//! over loopback with closed-loop clients, check every response, and
//! drain it.

use crate::check::{self, parse_drain, Drain, ReadRec, Tally, WriteRec};
use crate::gen::{Class, GenOp, Generator, Mix, SCAN_MAX};
use falcon_server::client::Client;
use falcon_server::proto::{Op, Request, Response, Status};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

/// Group-commit policy passed to the server; every other flag stays at
/// its default.
pub const SERVER_FLAGS: [&str; 6] = ["--batch", "16", "--hold-us", "200", "--keys", "100000"];

/// How long the server may take to come up or to drain.
const PATIENCE: Duration = Duration::from_secs(60);

/// Client read/write timeout: a request unanswered this long counts as
/// unanswered.
const CLIENT_TIMEOUT_MS: u64 = 10_000;

/// Connections and per-connection window of a mix.
#[must_use]
pub fn shape(mix: Mix) -> (u64, usize) {
    match mix {
        Mix::Serial => (1, 1),
        Mix::Pipelined => (2, 16),
    }
}

/// A running server process. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    lines: Receiver<String>,
    reader: Option<thread::JoinHandle<()>>,
    /// Listening address.
    pub addr: SocketAddr,
    /// Spawn until the listening line, seconds.
    pub setup_s: f64,
}

impl ServerProc {
    /// Spawn `bin` and wait until it listens.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut p = ServerProc {
            child,
            lines,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let line = p
            .lines
            .recv_timeout(PATIENCE)
            .map_err(|_| "server exited or hung before listening".to_string())?;
        p.setup_s = t0.elapsed().as_secs_f64();
        p.addr = line
            .strip_prefix("falcon_server listening on ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected first server line: {line}"))?;
        Ok(p)
    }

    /// The process's peak resident set (`VmHWM`), KiB.
    pub fn hwm_kib(&self) -> Result<u64, String> {
        vm_hwm_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Send `DRAIN`, wait for a clean exit, and parse the drain report.
    pub fn drain(mut self) -> Result<Drain, String> {
        let mut c = Client::connect(self.addr, CLIENT_TIMEOUT_MS).map_err(|e| e.to_string())?;
        let r = c.call(Op::Drain).map_err(|e| format!("drain: {e}"))?;
        if r.status != Status::Ok {
            return Err(format!("drain answered {:?}", r.status));
        }
        drop(c);
        let t0 = Instant::now();
        let status = loop {
            if let Some(s) = self.child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if t0.elapsed() > PATIENCE {
                return Err("server did not exit after DRAIN".into());
            }
            thread::sleep(Duration::from_millis(5));
        };
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "stdout reader panicked")?;
        }
        let out: Vec<String> = self.lines.try_iter().collect();
        if !status.success() {
            return Err(format!("server exited with {status}: {out:?}"));
        }
        parse_drain(&out.join("\n"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, KiB.
pub fn vm_hwm_kib(status_path: &str) -> Result<u64, String> {
    let mut s = String::new();
    std::fs::File::open(status_path)
        .and_then(|mut f| f.read_to_string(&mut s))
        .map_err(|e| format!("{status_path}: {e}"))?;
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

/// One request's span on the client, kept only in traced runs.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id.
    pub id: u64,
    /// Request class.
    pub class: Class,
    /// Send, client clock ns.
    pub start_ns: u64,
    /// Response, client clock ns.
    pub end_ns: u64,
}

/// Everything one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Outcome counts.
    pub tally: Tally,
    /// `Ok` latencies by class, µs.
    pub lat: HashMap<Class, Vec<f64>>,
    /// Writes (for the read check).
    pub writes: Vec<WriteRec>,
    /// GETs that returned a value.
    pub reads: Vec<ReadRec>,
    /// Rows SCANs returned, `(key, stamp)`.
    pub scanned: Vec<(u64, u64)>,
    /// `Ok` write transactions (PUT or BATCH).
    pub ok_write_txns: u64,
    /// Check failures.
    pub violations: Vec<String>,
    /// Client clock of the last response, ns.
    pub last_ns: u64,
    /// Per-request spans (traced runs only).
    pub spans: Vec<Span>,
    /// Requests and their responses (traced runs only).
    pub frames: Vec<(Request, Response)>,
}

/// Drive one connection: keep `window` requests in flight until
/// `stop`, then collect the stragglers.
fn drive(
    addr: SocketAddr,
    gen: &mut Generator,
    conn: u64,
    window: usize,
    clock: Instant,
    stop: Instant,
    trace: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let now = || clock.elapsed().as_nanos() as u64;
    let mut c = match Client::connect(addr, CLIENT_TIMEOUT_MS) {
        Ok(c) => c,
        Err(e) => {
            log.violations.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut inflight: HashMap<u64, (GenOp, u64)> = HashMap::new();
    loop {
        while inflight.len() < window && Instant::now() < stop {
            let op = gen.next_op();
            let send_ns = now();
            match c.send(op.to_op()) {
                Ok(id) => {
                    log.tally.attempted += 1;
                    inflight.insert(id, (op, send_ns));
                }
                Err(e) => {
                    log.violations.push(format!("send: {e}"));
                    break;
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let resp = match c.recv() {
            Ok(r) => r,
            Err(e) => {
                log.violations.push(format!(
                    "connection {conn}: {} requests unanswered: {e}",
                    inflight.len()
                ));
                break;
            }
        };
        let recv_ns = now();
        log.last_ns = recv_ns;
        let Some((op, send_ns)) = inflight.remove(&resp.id) else {
            log.violations
                .push(format!("response for unknown or answered id {}", resp.id));
            continue;
        };
        log.tally.record(resp.status);
        if trace {
            log.spans.push(Span {
                id: resp.id,
                class: op.class(),
                start_ns: send_ns,
                end_ns: recv_ns,
            });
            log.frames.push((
                Request {
                    id: resp.id,
                    op: op.to_op(),
                },
                resp.clone(),
            ));
        }
        if resp.status != Status::Ok {
            // Sheds and rolled-back writes leave no trace; a GET of a
            // preloaded key never misses.
            if let GenOp::Get(key) = op {
                log.violations
                    .push(format!("GET {key} answered {:?}", resp.status));
            }
            continue;
        }
        log.lat
            .entry(op.class())
            .or_default()
            .push((recv_ns - send_ns) as f64 / 1e3);
        let write = |key, stamp| WriteRec {
            key,
            stamp,
            send_ns,
            ack_ns: Some(recv_ns),
        };
        match op {
            GenOp::Get(key) => match check::stamp_of(key, &resp.payload) {
                Ok(stamp) => log.reads.push(ReadRec {
                    key,
                    stamp,
                    send_ns,
                    recv_ns,
                }),
                Err(e) => log.violations.push(e),
            },
            GenOp::Put(key, stamp) => {
                log.ok_write_txns += 1;
                log.writes.push(write(key, stamp));
            }
            GenOp::Scan(lo, hi) => match check::scan_rows(lo, hi, SCAN_MAX, &resp.payload) {
                Ok(rows) => log.scanned.extend(rows),
                Err(e) => log.violations.push(e),
            },
            GenOp::Batch(puts) => {
                log.ok_write_txns += 1;
                log.writes
                    .extend(puts.iter().map(|&(key, stamp)| write(key, stamp)));
            }
        }
    }
    // Whatever is still in flight was never answered: count it, and let
    // its writes count as possibly applied.
    log.tally.unanswered += inflight.len() as u64;
    for (op, send_ns) in inflight.into_values() {
        let puts = match op {
            GenOp::Put(key, stamp) => vec![(key, stamp)],
            GenOp::Batch(puts) => puts,
            _ => continue,
        };
        log.writes
            .extend(puts.into_iter().map(|(key, stamp)| WriteRec {
                key,
                stamp,
                send_ns,
                ack_ns: None,
            }));
    }
    log
}

/// One server lifetime: set-up, `measure` of traffic, drain.
#[derive(Debug)]
pub struct Life {
    /// Spawn until listening, s.
    pub setup_s: f64,
    /// Server peak RSS after the traffic, KiB.
    pub hwm_kib: u64,
    /// First send to last response, s.
    pub busy_s: f64,
    /// The drain report.
    pub drain: Drain,
    /// Per-connection logs.
    pub conns: Vec<ConnLog>,
    /// Check failures across connections and the drain.
    pub violations: Vec<String>,
}

impl Life {
    /// `Ok` latencies of one request class across connections, µs.
    #[must_use]
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        self.conns
            .iter()
            .filter_map(|c| c.lat.get(&class))
            .flatten()
            .copied()
            .collect()
    }
}

/// Run one server lifetime of `mix`, drawing requests from `gens`.
pub fn life(
    bin: &Path,
    mix: Mix,
    gens: &mut [Generator],
    measure: Duration,
    trace: bool,
) -> Result<Life, String> {
    let (_, window) = shape(mix);
    let server = ServerProc::spawn(bin)?;
    let addr = server.addr;
    let clock = Instant::now();
    let stop = clock + measure;
    let conns: Vec<ConnLog> = thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| s.spawn(move || drive(addr, g, i as u64, window, clock, stop, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let busy_s = conns.iter().map(|c| c.last_ns).max().unwrap_or(0) as f64 / 1e9;
    let hwm_kib = server.hwm_kib()?;
    let setup_s = server.setup_s;
    let mut violations: Vec<String> = conns.iter().flat_map(|c| c.violations.clone()).collect();
    // A failed drain is a wrong output, not a failed measurement.
    let drain = server.drain().unwrap_or_else(|e| {
        violations.push(e);
        Drain::default()
    });
    let writes: Vec<WriteRec> = conns
        .iter()
        .flat_map(|c| c.writes.iter().copied())
        .collect();
    let reads: Vec<ReadRec> = conns.iter().flat_map(|c| c.reads.iter().copied()).collect();
    violations.extend(check::stale_reads(&writes, &reads));
    let written: HashSet<(u64, u64)> = writes.iter().map(|w| (w.key, w.stamp)).collect();
    for c in &conns {
        for &(key, stamp) in &c.scanned {
            if stamp != 0 && !written.contains(&(key, stamp)) {
                violations.push(format!(
                    "SCAN row {key} carries a stamp never written to it"
                ));
            }
        }
    }
    let mut tally = Tally::default();
    conns.iter().for_each(|c| tally.merge(&c.tally));
    let sheds = drain.shed_overloaded + drain.shed_shutting_down;
    if drain.admitted + sheds != tally.attempted {
        violations.push(format!(
            "server admitted {} and shed {sheds} of {} requests sent",
            drain.admitted, tally.attempted
        ));
    }
    let ok_writes: u64 = conns.iter().map(|c| c.ok_write_txns).sum();
    if drain.committed != ok_writes {
        violations.push(format!(
            "server committed {} write txns, clients saw {ok_writes} acked",
            drain.committed
        ));
    }
    Ok(Life {
        setup_s,
        hwm_kib,
        busy_s,
        drain,
        conns,
        violations,
    })
}
