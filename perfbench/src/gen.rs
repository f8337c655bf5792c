//! Seeded request generators for the two KV workloads.
//!
//! Each connection draws from its own stream, seeded from the workload
//! seed and the connection number, so the live run and the in-process
//! replay see the same requests. Every written value is a 16-byte stamp
//! `stamp:u64 | key:u64`; stamps are unique across connections, which
//! lets the checker name the write a read observed.

use falcon_core::retry::mix64;
use falcon_server::proto::{Op, WriteOp};
use falcon_wl::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows the server preloads (`--keys`).
pub const KEYS: u64 = 100_000;
/// `kv_serial` draws uniformly from the first this-many keys: 2,048
/// rows of 64 B is 128 KiB, half the 256 KiB simulated cache.
pub const SERIAL_HOT_KEYS: u64 = 2_048;
/// Rows a `kv_pipelined` SCAN may return.
pub const SCAN_MAX: u32 = 16;
/// PUTs in one `kv_pipelined` BATCH transaction.
pub const BATCH_PUTS: usize = 4;
/// Zipfian skew of `kv_pipelined`.
pub const ZIPF_THETA: f64 = 0.99;

/// The two KV traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50 % GET / 50 % PUT, uniform over [`SERIAL_HOT_KEYS`].
    Serial,
    /// 45 % GET / 45 % PUT / 5 % SCAN / 5 % BATCH, zipfian over [`KEYS`].
    Pipelined,
}

impl Mix {
    /// The class of this mix that stands in for `c`: `kv_serial` has no
    /// SCAN or BATCH, so its only read and write stand in for them.
    #[must_use]
    pub fn stand_in(self, c: Class) -> Class {
        match (self, c) {
            (Mix::Serial, Class::Scan) => Class::Get,
            (Mix::Serial, Class::Batch) => Class::Put,
            _ => c,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOp {
    /// Point read.
    Get(u64),
    /// Single-row upsert of `(key, stamp)`.
    Put(u64, u64),
    /// Range read over `[lo, hi]`, at most [`SCAN_MAX`] rows.
    Scan(u64, u64),
    /// One transaction of [`BATCH_PUTS`] upserts on distinct keys.
    Batch(Vec<(u64, u64)>),
}

impl GenOp {
    /// The request class, as the metrics name it.
    #[must_use]
    pub fn class(&self) -> Class {
        match self {
            GenOp::Get(_) => Class::Get,
            GenOp::Put(..) => Class::Put,
            GenOp::Scan(..) => Class::Scan,
            GenOp::Batch(_) => Class::Batch,
        }
    }

    /// The wire operation.
    #[must_use]
    pub fn to_op(&self) -> Op {
        match self {
            GenOp::Get(key) => Op::Get { key: *key },
            GenOp::Put(key, stamp) => Op::Put {
                key: *key,
                value: value_of(*key, *stamp),
            },
            GenOp::Scan(lo, hi) => Op::Scan {
                lo: *lo,
                hi: *hi,
                max: SCAN_MAX,
            },
            GenOp::Batch(puts) => Op::Batch(
                puts.iter()
                    .map(|&(key, stamp)| WriteOp::Put {
                        key,
                        value: value_of(key, stamp),
                    })
                    .collect(),
            ),
        }
    }
}

/// Request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// GET.
    Get,
    /// PUT.
    Put,
    /// SCAN.
    Scan,
    /// BATCH.
    Batch,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 4] = [Class::Get, Class::Put, Class::Scan, Class::Batch];

    /// Lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Put => "put",
            Class::Scan => "scan",
            Class::Batch => "batch",
        }
    }
}

/// The 16-byte value written for `(key, stamp)`.
#[must_use]
pub fn value_of(key: u64, stamp: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&stamp.to_le_bytes());
    v.extend_from_slice(&key.to_le_bytes());
    v
}

/// An endless, seeded request stream for one connection.
pub struct Generator {
    mix: Mix,
    rng: StdRng,
    zipf: Option<Zipfian>,
    conn: u64,
    seq: u64,
}

impl Generator {
    /// The stream of connection `conn` under workload seed `seed`.
    #[must_use]
    pub fn new(mix: Mix, seed: u64, conn: u64) -> Generator {
        Generator {
            mix,
            rng: StdRng::seed_from_u64(mix64(seed ^ mix64(conn + 1))),
            zipf: (mix == Mix::Pipelined).then(|| Zipfian::new(KEYS, ZIPF_THETA)),
            conn,
            seq: 0,
        }
    }

    /// A fresh stamp, unique across connections and never 0 (0 is the
    /// preloaded value).
    fn stamp(&mut self) -> u64 {
        self.seq += 1;
        ((self.conn + 1) << 40) | self.seq
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.next_scrambled(&mut self.rng),
            None => self.rng.random_range(0..SERIAL_HOT_KEYS),
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> GenOp {
        let roll = self.rng.random_range(0..100u32);
        let key = self.key();
        match self.mix {
            Mix::Serial if roll < 50 => GenOp::Get(key),
            Mix::Serial => GenOp::Put(key, self.stamp()),
            Mix::Pipelined if roll < 45 => GenOp::Get(key),
            Mix::Pipelined if roll < 90 => GenOp::Put(key, self.stamp()),
            Mix::Pipelined if roll < 95 => {
                GenOp::Scan(key, (key + u64::from(SCAN_MAX) - 1).min(KEYS - 1))
            }
            Mix::Pipelined => {
                let mut keys = vec![key];
                while keys.len() < BATCH_PUTS {
                    let k = self.key();
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                GenOp::Batch(keys.into_iter().map(|k| (k, self.stamp())).collect())
            }
        }
    }
}

/// The first `n` requests of the workload, connections interleaved
/// round-robin: the exact stream the replay executes.
#[must_use]
pub fn interleaved(mix: Mix, seed: u64, conns: u64, n: usize) -> Vec<GenOp> {
    let mut gens: Vec<Generator> = (0..conns).map(|c| Generator::new(mix, seed, c)).collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let n = gens.len();
        out.push(gens[i % n].next_op());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_in_range() {
        let a = interleaved(Mix::Pipelined, 7, 2, 2_000);
        assert_eq!(a, interleaved(Mix::Pipelined, 7, 2, 2_000));
        assert_ne!(a, interleaved(Mix::Pipelined, 8, 2, 2_000));
        for op in &a {
            match op {
                GenOp::Get(k) | GenOp::Put(k, _) => assert!(*k < KEYS),
                GenOp::Scan(lo, hi) => assert!(lo <= hi && *hi < KEYS && hi - lo < 16),
                GenOp::Batch(puts) => {
                    assert_eq!(puts.len(), BATCH_PUTS);
                    let mut keys: Vec<u64> = puts.iter().map(|p| p.0).collect();
                    keys.dedup();
                    assert_eq!(keys.len(), BATCH_PUTS);
                }
            }
        }
        let s = interleaved(Mix::Serial, 7, 1, 2_000);
        assert!(s.iter().all(|op| match op {
            GenOp::Get(k) | GenOp::Put(k, _) => *k < SERIAL_HOT_KEYS,
            _ => false,
        }));
    }

    #[test]
    fn stamps_are_unique_across_connections() {
        let mut seen = std::collections::HashSet::new();
        for op in interleaved(Mix::Pipelined, 1, 2, 5_000) {
            match op {
                GenOp::Put(_, s) => assert!(s != 0 && seen.insert(s)),
                GenOp::Batch(p) => p.iter().for_each(|&(_, s)| assert!(seen.insert(s))),
                _ => {}
            }
        }
    }
}
