//! In-process replay of a KV request stream through the server's own
//! execution core (`store::create_engine` / `store::apply_op` /
//! `Engine::group_fence`), for the virtual-clock metrics.
//!
//! The replay runs on one thread with no sockets and no timers, so its
//! virtual time and device counters are a pure function of the stream:
//! two replays of one seed must agree bit for bit.

use crate::gen::{Class, GenOp, Mix, KEYS};
use falcon_core::retry::mix64;
use falcon_core::RetryPolicy;
use falcon_server::proto::Status;
use falcon_server::store::{apply_op, create_engine};
use pmem_sim::ThreadStats;
use std::collections::HashMap;
use std::time::Instant;

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Transactions executed (one per request).
    pub txns: u64,
    /// Virtual nanoseconds the stream took.
    pub v_ns: u64,
    /// Device counters over the stream.
    pub stats: ThreadStats,
    /// Wall time of each `apply_op` call by class, µs (timed replays).
    pub call_us: HashMap<Class, Vec<f64>>,
    /// Wall time of each non-empty `group_fence` call, µs (timed
    /// replays).
    pub fence_us: Vec<f64>,
    /// Engine counters and cost matrix (traced build).
    #[cfg(feature = "obs")]
    pub obs: Option<(falcon_obs::EngineStats, falcon_obs::CostMatrix)>,
}

impl Replay {
    /// Transactions per virtual second.
    #[must_use]
    pub fn v_txn_per_s(&self) -> f64 {
        self.txns as f64 * 1e9 / self.v_ns as f64
    }

    /// Media bytes written per transaction.
    #[must_use]
    pub fn nvm_bytes_per_txn(&self) -> f64 {
        self.stats.media_bytes_written() as f64 / self.txns as f64
    }
}

/// Pending writes at which the replay fences: after every write on
/// `kv_serial` (its lone client waits for each ack), every 16 on
/// `kv_pipelined` (the server's `--batch`).
#[must_use]
pub fn fence_every(mix: Mix) -> u64 {
    match mix {
        Mix::Serial => 1,
        Mix::Pipelined => 16,
    }
}

/// Replay `ops` on a fresh preloaded engine, fencing whenever
/// `fence_every` writes are pending and once at the end. Every request
/// must succeed.
pub fn replay(ops: &[GenOp], fence_every: u64, timed: bool) -> Result<Replay, String> {
    let (_dev, e) = create_engine(KEYS)?;
    let mut w = e.worker(0).map_err(|e| format!("worker: {e:?}"))?;
    let policy = RetryPolicy::server();
    #[cfg(feature = "obs")]
    {
        e.obs_reset(&mut w);
        w.ctx.attr_enable(2, falcon_obs::cost::COST_COLS);
    }
    let (c0, s0) = (w.ctx.clock, w.ctx.stats);
    let mut out = Replay {
        txns: ops.len() as u64,
        v_ns: 0,
        stats: ThreadStats::default(),
        call_us: HashMap::new(),
        fence_us: Vec::new(),
        #[cfg(feature = "obs")]
        obs: None,
    };
    let fence = |w: &mut falcon_core::Worker, out: &mut Replay| {
        let t = Instant::now();
        if e.group_fence(w) > 0 && timed {
            out.fence_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let wire = op.to_op();
        let t = Instant::now();
        let r = apply_op(&e, &mut w, &wire, &policy, mix64(i as u64));
        if timed {
            out.call_us
                .entry(op.class())
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e6);
        }
        if r.status != Status::Ok {
            return Err(format!(
                "replay request {i} ({op:?}) answered {:?}",
                r.status
            ));
        }
        if e.group_pending(&w) >= fence_every {
            fence(&mut w, &mut out);
        }
        #[cfg(feature = "obs")]
        w.ctx.attr_fold(0);
    }
    fence(&mut w, &mut out);
    out.v_ns = w.ctx.clock - c0;
    out.stats = w.ctx.stats;
    out.stats -= s0;
    #[cfg(feature = "obs")]
    {
        w.ctx.attr_fold(0);
        let m = w.ctx.attr_take().ok_or("attribution was not enabled")?;
        out.obs = Some((
            e.collect_obs(&w),
            falcon_obs::CostMatrix::from_matrix(&["kv"], m),
        ));
    }
    Ok(out)
}
