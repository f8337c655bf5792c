//! The in-process TPC-C workload: Falcon eADR with OCC and a fence per
//! commit, 2 warehouses at bench scale, one worker, a fixed number of
//! transaction slots per repeat.
//!
//! Every NewOrder grows the database, so a time-bounded run would do
//! different work each time. Instead each repeat loads a fresh database
//! and runs exactly [`SLOTS`] slots from the same seed; a run repeats
//! until its time is spent, and every repeat must give bit-identical
//! virtual results.

use falcon_core::retry::mix64;
use falcon_core::{CcAlgo, Engine, EngineConfig, RetryPolicy, Worker};
use falcon_wl::harness::build_engine;
use falcon_wl::tpcc::{col, dist_key, wh_key, DISTRICT, WAREHOUSE};
use falcon_wl::{Tpcc, TpccScale, Workload};
use pmem_sim::ThreadStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Warehouses loaded.
pub const WAREHOUSES: u64 = 2;
/// Transaction slots measured per repeat.
pub const SLOTS: u64 = 10_000;
/// Committed transactions run before the clocks reset, as the harness
/// does.
pub const WARMUP: u64 = 100;

/// Transaction type indices, as `Workload::txn` returns them.
pub const NEW_ORDER: usize = 0;
/// Payment.
pub const PAYMENT: usize = 1;
/// OrderStatus.
pub const ORDER_STATUS: usize = 2;
/// StockLevel.
pub const STOCK_LEVEL: usize = 4;
/// Number of transaction types.
pub const TYPES: usize = 5;

/// The workload definition.
#[must_use]
pub fn workload() -> Tpcc {
    Tpcc::new(TpccScale::bench().with_warehouses(WAREHOUSES))
}

/// The engine configuration.
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig::falcon().with_cc(CcAlgo::Occ).with_threads(1)
}

/// Bytes of loaded data the device is sized for, as `falcon_perf` does.
#[must_use]
pub fn data_bytes(t: &Tpcc) -> u64 {
    t.scale().approx_bytes() * 2
}

/// One traced call into `Workload::txn`, kept in traced repeats.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Slot the attempt belongs to.
    pub slot: u64,
    /// Committed type, or `None` for an aborted attempt.
    pub ty: Option<usize>,
    /// Wall clock at the call, ns since the repeat's start.
    pub start_ns: u64,
    /// Wall clock at its return.
    pub end_ns: u64,
}

/// What one repeat measured.
#[derive(Debug)]
pub struct Rep {
    /// Engine build plus load, s.
    pub setup_s: f64,
    /// Measured slots' wall time, s.
    pub wall_s: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Slots given up after the retry budget.
    pub dropped: u64,
    /// Virtual nanoseconds of the measured slots.
    pub v_ns: u64,
    /// Device counters of the measured slots.
    pub stats: ThreadStats,
    /// Wall slot latency (first attempt to commit, retries included) by
    /// committed type, µs.
    pub lat_us: Vec<Vec<f64>>,
    /// The same slots' virtual latency, as the harness measures it, µs.
    pub vlat_us: Vec<Vec<f64>>,
    /// Calls into `Workload::txn` (traced repeats only).
    pub spans: Vec<Span>,
    /// Wall time of single `sfence` calls on the loaded device after the
    /// measured slots, µs (traced repeats only).
    pub fence_us: Vec<f64>,
    /// Consistency condition 1 violation, if any.
    pub ytd_problem: Option<String>,
    /// Engine counters and cost matrix (traced build).
    #[cfg(feature = "obs")]
    pub obs: Option<(falcon_obs::EngineStats, falcon_obs::CostMatrix)>,
}

/// Load a fresh database and run [`SLOTS`] slots from `seed`, retrying
/// transient aborts as the harness does, then check consistency
/// condition 1.
pub fn rep(seed: u64, traced: bool) -> Result<Rep, String> {
    let t0 = Instant::now();
    let t = workload();
    let engine = build_engine(engine_config(), &t.table_defs(), data_bytes(&t), None);
    t.setup(&engine);
    let setup_s = t0.elapsed().as_secs_f64();

    engine.device().quiesce();
    let mut w = engine.worker(0).map_err(|e| format!("worker: {e:?}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut done = 0;
    while done < WARMUP {
        if t.txn(&engine, &mut w, &mut rng).is_ok() {
            done += 1;
        }
    }
    w.reset_clock();
    #[cfg(feature = "obs")]
    {
        engine.obs_reset(&mut w);
        w.ctx.attr_enable(TYPES + 1, falcon_obs::cost::COST_COLS);
    }

    let retry = RetryPolicy::default();
    let mut lat_us = vec![Vec::new(); TYPES];
    let mut vlat_us = vec![Vec::new(); TYPES];
    let mut spans = Vec::new();
    let (mut committed, mut dropped) = (0u64, 0u64);
    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    while committed + dropped < SLOTS {
        let slot = committed + dropped;
        let (start, vstart) = (now(), w.ctx.clock);
        let mut attempts = 0u64;
        loop {
            let call = now();
            let res = t.txn(&engine, &mut w, &mut rng);
            if traced {
                spans.push(Span {
                    slot,
                    ty: res.as_ref().ok().copied(),
                    start_ns: call,
                    end_ns: now(),
                });
            }
            match res {
                Ok(ty) => {
                    lat_us[ty].push((now() - start) as f64 / 1e3);
                    vlat_us[ty].push((w.ctx.clock - vstart) as f64 / 1e3);
                    #[cfg(feature = "obs")]
                    {
                        w.obs.take_pending();
                        w.ctx.attr_fold(ty);
                    }
                    committed += 1;
                    break;
                }
                Err(e) if e.transient() => {
                    attempts += 1;
                    if !retry.allows(attempts) {
                        dropped += 1;
                        #[cfg(feature = "obs")]
                        {
                            w.obs.clear_pending();
                            w.ctx.attr_fold(TYPES);
                        }
                        break;
                    }
                    let slot_seed = mix64(seed ^ mix64(0) ^ mix64(slot));
                    w.ctx.clock += retry.backoff_ns(slot_seed, attempts - 1);
                }
                Err(e) => return Err(format!("TPC-C slot {slot}: {e}")),
            }
        }
        engine.maybe_gc(&mut w);
        #[cfg(feature = "obs")]
        w.ctx.attr_fold(TYPES);
    }
    let wall_s = clock.elapsed().as_secs_f64();
    let (v_ns, stats) = (w.ctx.clock, w.ctx.stats);
    #[cfg(feature = "obs")]
    let obs = {
        let m = w.ctx.attr_take().ok_or("attribution was not enabled")?;
        Some((
            engine.collect_obs(&w),
            falcon_obs::CostMatrix::from_matrix(t.txn_types(), m),
        ))
    };
    let mut fence_us = Vec::new();
    if traced {
        for _ in 0..1_000 {
            let t = Instant::now();
            engine.device().sfence(&mut w.ctx);
            fence_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let ytd_problem = check_ytd(&t, &engine, &mut w).err();
    Ok(Rep {
        setup_s,
        wall_s,
        committed,
        dropped,
        v_ns,
        stats,
        lat_us,
        vlat_us,
        spans,
        fence_us,
        ytd_problem,
        #[cfg(feature = "obs")]
        obs,
    })
}

/// TPC-C consistency condition 1: each warehouse's W_YTD equals the sum
/// of its districts' D_YTD, read back through the public `Txn` API.
fn check_ytd(t: &Tpcc, engine: &Engine, w: &mut Worker) -> Result<(), String> {
    let f64_at = |row: &[u8], off: u32| {
        f64::from_le_bytes(
            row[off as usize..off as usize + 8]
                .try_into()
                .expect("8 bytes"),
        )
    };
    let mut tx = engine.begin(w, true);
    for wh in 1..=t.scale().warehouses {
        let row = tx
            .read(WAREHOUSE, wh_key(wh))
            .map_err(|e| format!("read warehouse {wh}: {e}"))?;
        let w_ytd = f64_at(&row, col::W_YTD);
        let mut d_sum = 0.0;
        for d in 1..=t.scale().districts {
            let row = tx
                .read(DISTRICT, dist_key(wh, d))
                .map_err(|e| format!("read district {wh}/{d}: {e}"))?;
            d_sum += f64_at(&row, col::D_YTD);
        }
        if (w_ytd - d_sum).abs() > 1e-9 * w_ytd.abs().max(1.0) {
            return Err(format!(
                "consistency condition 1: warehouse {wh} W_YTD {w_ytd} != sum D_YTD {d_sum}"
            ));
        }
    }
    tx.commit().map_err(|e| format!("YTD read commit: {e}"))
}
