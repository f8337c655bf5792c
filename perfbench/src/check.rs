//! Output checks for the KV workloads, and the accounting that turns
//! responses into `ok_frac`.
//!
//! The read check is sound for any interleaving the server may choose:
//! a GET sent at `t` may return any write to its key, except one that
//! was already overwritten, in real time, by a write acknowledged before
//! `t`. Writes are ordered in real time only when one's ack precedes the
//! other's send; group commit acknowledges writes late and out of
//! submission order, so nothing stricter holds.

use falcon_server::proto::{Status, VALUE_BYTES};
use std::collections::HashMap;

/// One write of a stamp to a key, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// Row key.
    pub key: u64,
    /// Stamp written.
    pub stamp: u64,
    /// Client clock when the request was sent, ns.
    pub send_ns: u64,
    /// Client clock when its `Ok` ack arrived; `None` when no answer
    /// came, so the write may or may not have applied.
    pub ack_ns: Option<u64>,
}

/// One GET that returned a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRec {
    /// Row key.
    pub key: u64,
    /// Stamp the value carried (0 = the preloaded row).
    pub stamp: u64,
    /// Client clock at send, ns.
    pub send_ns: u64,
    /// Client clock at the response, ns.
    pub recv_ns: u64,
}

/// Decode a GET `Ok` payload for `key` into its stamp, checking the
/// value is either the preloaded zero row or a `stamp | key` value.
pub fn stamp_of(key: u64, payload: &[u8]) -> Result<u64, String> {
    if payload.len() != VALUE_BYTES {
        return Err(format!("GET {key}: {}-byte value", payload.len()));
    }
    let stamp = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let vkey = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let tail_clean = payload[16..].iter().all(|&b| b == 0);
    if stamp == 0 && vkey == 0 && tail_clean {
        return Ok(0);
    }
    if stamp == 0 || vkey != key || !tail_clean {
        return Err(format!("GET {key}: value is not a stamp of this key"));
    }
    Ok(stamp)
}

/// Per-key write history, ordered for the staleness query.
struct KeyWrites {
    /// Stamp → (send, ack) of every write to the key.
    by_stamp: HashMap<u64, (u64, Option<u64>)>,
    /// Acked writes sorted by ack time, with the running maximum of
    /// their send times.
    acked: Vec<(u64, u64)>,
}

/// Check every GET against every write; returns one line per violation.
#[must_use]
pub fn stale_reads(writes: &[WriteRec], reads: &[ReadRec]) -> Vec<String> {
    let mut keys: HashMap<u64, KeyWrites> = HashMap::new();
    let mut bad = Vec::new();
    for w in writes {
        let kw = keys.entry(w.key).or_insert_with(|| KeyWrites {
            by_stamp: HashMap::new(),
            acked: Vec::new(),
        });
        if kw.by_stamp.insert(w.stamp, (w.send_ns, w.ack_ns)).is_some() {
            bad.push(format!(
                "stamp {:#x} written twice to key {}",
                w.stamp, w.key
            ));
        }
        if let Some(ack) = w.ack_ns {
            kw.acked.push((ack, w.send_ns));
        }
    }
    for kw in keys.values_mut() {
        kw.acked.sort_unstable();
        let mut max_send = 0;
        for e in &mut kw.acked {
            max_send = max_send.max(e.1);
            e.1 = max_send;
        }
    }
    for r in reads {
        let kw = keys.get(&r.key);
        // Latest send time among writes acked before this GET was sent.
        let newest_done = kw.and_then(|kw| {
            let i = kw.acked.partition_point(|&(ack, _)| ack < r.send_ns);
            i.checked_sub(1).map(|i| kw.acked[i].1)
        });
        if r.stamp == 0 {
            if newest_done.is_some() {
                bad.push(format!(
                    "stale GET {}: preloaded row returned after an acked write",
                    r.key
                ));
            }
            continue;
        }
        let Some(&(send_s, ack_s)) = kw.and_then(|kw| kw.by_stamp.get(&r.stamp)) else {
            bad.push(format!(
                "GET {} returned stamp {:#x}, never written to it",
                r.key, r.stamp
            ));
            continue;
        };
        if send_s > r.recv_ns {
            bad.push(format!(
                "GET {} returned stamp {:#x} before it was sent",
                r.key, r.stamp
            ));
        }
        if let (Some(ack_s), Some(newest)) = (ack_s, newest_done) {
            if newest > ack_s {
                bad.push(format!(
                    "stale GET {}: stamp {:#x} was overwritten by a write acked before the GET",
                    r.key, r.stamp
                ));
            }
        }
    }
    bad
}

/// Check one SCAN reply: keys strictly ascending, inside `[lo, hi]`,
/// at most `max` rows. Returns the `(key, stamp)` rows.
pub fn scan_rows(lo: u64, hi: u64, max: u32, payload: &[u8]) -> Result<Vec<(u64, u64)>, String> {
    let n = payload
        .get(0..4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .ok_or("SCAN reply shorter than its count")?;
    if payload.len() != 4 + n as usize * 16 {
        return Err(format!(
            "SCAN reply of {n} rows has {} bytes",
            payload.len()
        ));
    }
    if n > max {
        return Err(format!("SCAN returned {n} rows, max {max}"));
    }
    let rows: Vec<(u64, u64)> = payload[4..]
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
            )
        })
        .collect();
    if rows.iter().any(|&(k, _)| k < lo || k > hi) {
        return Err(format!("SCAN [{lo}, {hi}] returned a key out of range"));
    }
    if rows.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(format!("SCAN [{lo}, {hi}] rows not sorted"));
    }
    Ok(rows)
}

/// Responses by outcome. Everything but `ok` counts as failed:
/// sheds, retry exhaustion, errors and unanswered requests alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Overloaded` or `ShuttingDown` responses.
    pub shed: u64,
    /// `RetryExhausted` responses.
    pub retry_exhausted: u64,
    /// Any other non-`Ok` status.
    pub error: u64,
    /// Requests with no response at all.
    pub unanswered: u64,
}

impl Tally {
    /// Count one response.
    pub fn record(&mut self, status: Status) {
        match status {
            Status::Ok => self.ok += 1,
            Status::Overloaded | Status::ShuttingDown => self.shed += 1,
            Status::RetryExhausted => self.retry_exhausted += 1,
            _ => self.error += 1,
        }
    }

    /// Requests that did not end in `Ok`.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// `Ok` responses over requests attempted.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.shed += o.shed;
        self.retry_exhausted += o.retry_exhausted;
        self.error += o.error;
        self.unanswered += o.unanswered;
    }
}

/// The drain line `falcon_server` prints before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drain {
    /// Write transactions committed over the server's life.
    pub committed: u64,
    /// Group fences issued.
    pub fences: u64,
    /// Requests admitted to the engine queue.
    pub admitted: u64,
    /// Requests shed `Overloaded`.
    pub shed_overloaded: u64,
    /// Requests shed `ShuttingDown`.
    pub shed_shutting_down: u64,
}

impl Drain {
    /// Sheds over requests that reached admission.
    #[must_use]
    pub fn shed_frac(&self) -> f64 {
        let shed = self.shed_overloaded + self.shed_shutting_down;
        let total = self.admitted + shed;
        if total == 0 {
            0.0
        } else {
            shed as f64 / total as f64
        }
    }
}

/// Parse the server's stdout for its drain line:
/// `drained: committed C fences F admitted A shed O+S (queue empty, checkpointed)`.
/// Missing, malformed, or without "queue empty" is an error.
pub fn parse_drain(stdout: &str) -> Result<Drain, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("drained:"))
        .ok_or("server printed no drain line")?;
    if !line.contains("queue empty") {
        return Err(format!("drain without an empty queue: {line}"));
    }
    let words: Vec<&str> = line.split_whitespace().collect();
    let field = |name: &str| -> Result<&str, String> {
        words
            .iter()
            .position(|w| *w == name)
            .and_then(|i| words.get(i + 1).copied())
            .ok_or_else(|| format!("drain line lacks {name}: {line}"))
    };
    let num = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("bad number {s:?} in: {line}"))
    };
    let (over, down) = field("shed")?
        .split_once('+')
        .ok_or_else(|| format!("bad shed field in: {line}"))?;
    Ok(Drain {
        committed: num(field("committed")?)?,
        fences: num(field("fences")?)?,
        admitted: num(field("admitted")?)?,
        shed_overloaded: num(over)?,
        shed_shutting_down: num(down)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: u64, stamp: u64, send: u64, ack: Option<u64>) -> WriteRec {
        WriteRec {
            key,
            stamp,
            send_ns: send,
            ack_ns: ack,
        }
    }

    fn r(key: u64, stamp: u64, send: u64, recv: u64) -> ReadRec {
        ReadRec {
            key,
            stamp,
            send_ns: send,
            recv_ns: recv,
        }
    }

    #[test]
    fn fresh_and_concurrent_reads_pass() {
        let writes = [w(1, 10, 0, Some(5)), w(1, 11, 3, Some(9))];
        let reads = [
            r(1, 0, 1, 2),    // before any ack: the preload is fine
            r(1, 10, 6, 7),   // 11 is in flight: either stamp is fine
            r(1, 11, 6, 7),   // reading an unacked write early is fine
            r(1, 11, 10, 12), // the newest acked write
            r(2, 0, 10, 12),  // another key still holds its preload
        ];
        assert!(stale_reads(&writes, &reads).is_empty());
    }

    #[test]
    fn a_fabricated_stale_get_is_flagged() {
        // 10 acked at 5; 11 sent at 6 (after 10's ack) and acked at 9.
        // A GET sent at 12 that still sees 10 read an overwritten value.
        let writes = [w(1, 10, 0, Some(5)), w(1, 11, 6, Some(9))];
        let bad = stale_reads(&writes, &[r(1, 10, 12, 13)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("stale GET 1"));
        // The preload after an acked write is stale too.
        let bad = stale_reads(&writes, &[r(1, 0, 6, 7)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn foreign_and_future_stamps_are_flagged() {
        let writes = [w(1, 10, 0, Some(5)), w(2, 20, 50, None)];
        let bad = stale_reads(&writes, &[r(1, 20, 60, 61), r(2, 20, 10, 20)]);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].contains("never written"));
        assert!(bad[1].contains("before it was sent"));
    }

    #[test]
    fn unanswered_writes_never_supersede() {
        // 11 got no answer: it may have applied or not, so reading 10
        // later is allowed, and so is reading 11.
        let writes = [w(1, 10, 0, Some(5)), w(1, 11, 6, None)];
        assert!(stale_reads(&writes, &[r(1, 10, 20, 21), r(1, 11, 20, 21)]).is_empty());
    }

    #[test]
    fn stamps_decode_from_values() {
        let mut v = vec![0u8; VALUE_BYTES];
        assert_eq!(stamp_of(3, &v), Ok(0));
        v[..16].copy_from_slice(&crate::gen::value_of(3, 77));
        assert_eq!(stamp_of(3, &v), Ok(77));
        assert!(stamp_of(4, &v).is_err(), "value of another key");
        v[40] = 1;
        assert!(stamp_of(3, &v).is_err(), "dirty tail");
        assert!(stamp_of(3, &[0; 8]).is_err(), "short value");
    }

    #[test]
    fn scan_replies_are_checked() {
        let reply = |rows: &[(u64, u64)]| {
            let mut p = (rows.len() as u32).to_le_bytes().to_vec();
            for (k, s) in rows {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&s.to_le_bytes());
            }
            p
        };
        assert_eq!(
            scan_rows(5, 9, 16, &reply(&[(5, 0), (7, 3)])),
            Ok(vec![(5, 0), (7, 3)])
        );
        assert!(scan_rows(5, 9, 16, &reply(&[(7, 0), (5, 0)])).is_err());
        assert!(scan_rows(5, 9, 16, &reply(&[(4, 0)])).is_err());
        assert!(scan_rows(5, 9, 1, &reply(&[(5, 0), (6, 0)])).is_err());
        assert!(scan_rows(5, 9, 16, &[1, 0, 0, 0]).is_err(), "truncated");
    }

    #[test]
    fn ok_frac_counts_sheds_and_unanswered_as_failures() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        for _ in 0..7 {
            t.record(Status::Ok);
        }
        t.record(Status::Overloaded);
        t.record(Status::RetryExhausted);
        // The tenth request never got a response.
        t.unanswered += 1;
        assert_eq!((t.ok, t.shed, t.retry_exhausted), (7, 1, 1));
        assert_eq!(t.failed(), 3);
        assert!((t.ok_frac() - 0.7).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.attempted, sum.failed()), (20, 6));
    }

    #[test]
    fn drain_lines_parse() {
        let out = "falcon_server listening on 127.0.0.1:4000\n\
                   drained: committed 120 fences 9 admitted 240 shed 3+1 \
                   (queue empty, checkpointed)\n";
        let d = parse_drain(out).unwrap();
        assert_eq!(
            d,
            Drain {
                committed: 120,
                fences: 9,
                admitted: 240,
                shed_overloaded: 3,
                shed_shutting_down: 1,
            }
        );
        assert!((d.shed_frac() - 4.0 / 244.0).abs() < 1e-12);
        assert!(parse_drain("falcon_server listening on x\n").is_err());
        assert!(parse_drain("drained: committed 1 fences 1 admitted 1 shed 0+0\n").is_err());
        assert!(
            parse_drain("drained: committed x fences 1 admitted 1 shed 0+0 (queue empty)").is_err()
        );
    }
}
