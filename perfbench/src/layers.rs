//! The traced run's per-layer numbers (obs build only).
//!
//! Every number here is taken from outside the program: by timing calls
//! into each crate's public functions (`proto` codec, `store::apply_op`,
//! `Engine::group_fence`, `falcon_index::Index`, `PmemDevice::new`,
//! `Workload::txn`) and by reading the counters the program already
//! exposes (the server's drain report, `EngineStats` and the cost
//! matrix, pmem-sim `ThreadStats`). Spans are kept in memory and
//! written out when the run ends.

use crate::gen::{self, Class, GenOp, Generator, Mix, KEYS, SCAN_MAX};
use crate::stats::{median, percentile, sorted};
use crate::{kv, replay, tpcc, Args, Report, REPLAY_OPS};
use falcon_core::retry::mix64;
use falcon_index::{DashTable, Index, NbTree};
use falcon_obs::cost::{CostMatrix, COST_COLS};
use falcon_obs::EngineStats;
use falcon_server::proto::{self, Request, Response, Status, VALUE_BYTES};
use falcon_server::store::DEVICE_CAPACITY;
use falcon_storage::layout::{format, index_slot};
use falcon_storage::NvmAllocator;
use falcon_wl::Workload;
use pmem_sim::{MemCtx, PmemDevice, SimConfig, ThreadStats};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Keys in the B⁺-tree probe: the KV workloads' table size.
const BTREE_KEYS: u64 = KEYS;
/// Keys in the hash probe: TPC-C's largest hash table (stock, 2 × 10 k).
const HASH_KEYS: u64 = 20_000;

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v.to_vec()), 50.0)
    }
}

/// Run `f` over `items` repeatedly for at least 50 ms; ns per item.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed().as_millis() < 50 {
        items.iter().for_each(&mut f);
        passes += 1;
    }
    t.elapsed().as_nanos() as f64 / (passes as f64 * items.len().max(1) as f64)
}

/// Codec cost per frame and wire bytes per request, over `frames`.
fn proto_metrics(r: &mut Report, frames: &[(Request, Response)]) {
    let req_bodies: Vec<Vec<u8>> = frames.iter().map(|f| proto::encode_request(&f.0)).collect();
    let resp_bodies: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| proto::encode_response(&f.1))
        .collect();
    let wire: usize = req_bodies
        .iter()
        .chain(&resp_bodies)
        .map(|b| 4 + b.len())
        .sum();
    r.metric(
        "proto.encode_request_ns",
        per_item_ns(frames, |f| {
            black_box(proto::encode_request(black_box(&f.0)));
        }),
        "ns",
    );
    r.metric(
        "proto.decode_request_ns",
        per_item_ns(&req_bodies, |b| {
            black_box(proto::decode_request(black_box(b)).expect("own frame"));
        }),
        "ns",
    );
    r.metric(
        "proto.encode_response_ns",
        per_item_ns(frames, |f| {
            black_box(proto::encode_response(black_box(&f.1)));
        }),
        "ns",
    );
    r.metric(
        "proto.decode_response_ns",
        per_item_ns(&resp_bodies, |b| {
            black_box(proto::decode_response(black_box(b)).expect("own frame"));
        }),
        "ns",
    );
    r.metric(
        "proto.frame_bytes_per_op",
        wire as f64 / frames.len().max(1) as f64,
        "B/op",
    );
}

/// Engine counters and the per-phase virtual cost, per transaction.
fn core_metrics(r: &mut Report, obs: &(EngineStats, CostMatrix), txns: u64) {
    let (s, cost) = obs;
    let per_txn = |v: u64| v as f64 / txns as f64;
    for c in 0..COST_COLS {
        r.metric(
            &format!("core.v_{}_ns_per_txn", CostMatrix::col_name(c)),
            per_txn(cost.col_total(c).ns),
            "ns/txn",
        );
    }
    r.metric("core.aborts_per_ktxn", per_txn(s.aborts) * 1e3, "1/ktxn");
    r.metric(
        "core.log_spill_bytes_per_txn",
        per_txn(s.log_spill_bytes),
        "B/txn",
    );
    let probes = s.hot_hits + s.hot_misses;
    r.metric(
        "core.hot_hit_frac",
        if probes == 0 {
            0.0
        } else {
            s.hot_hits as f64 / probes as f64
        },
        "frac",
    );
    r.metric("core.ckpt_published", s.ckpt_published as f64, "count");
}

/// Device counters per transaction, and the device's construction time
/// at the workload's capacity.
fn dev_metrics(r: &mut Report, stats: &ThreadStats, txns: u64, sim: &SimConfig) -> f64 {
    let new_ms = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(PmemDevice::new(sim.clone()).expect("device"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    let per_txn = |v: u64| v as f64 / txns as f64;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    r.metric("dev.new_ms", new_ms, "ms");
    r.metric("dev.clwb_per_txn", per_txn(stats.clwb_issued), "1/txn");
    r.metric("dev.sfence_per_txn", per_txn(stats.sfences), "1/txn");
    r.metric(
        "dev.media_block_writes_per_txn",
        per_txn(stats.media_block_writes),
        "1/txn",
    );
    r.metric(
        "dev.rmw_frac",
        frac(stats.media_rmw, stats.media_block_writes),
        "frac",
    );
    r.metric("dev.write_amp", stats.write_amplification(), "ratio");
    r.metric(
        "dev.cache_miss_frac",
        frac(stats.cache_misses, stats.accesses),
        "frac",
    );
    new_ms
}

/// B⁺-tree get/insert/scan on a 100 k-key tree and hash get/insert at
/// TPC-C's size, ns per operation.
fn index_metrics(r: &mut Report) -> Result<(), String> {
    let dev = PmemDevice::new(SimConfig::small().with_capacity(128 << 20))?;
    format(&dev).map_err(|e| format!("format: {e:?}"))?;
    let alloc = NvmAllocator::new(dev);
    let mut ctx = MemCtx::new(0);
    let keys: Vec<u64> = (0..BTREE_KEYS).map(mix64).collect();
    let tree = NbTree::create(&alloc, index_slot(0), &mut ctx).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        tree.insert(k, i as u64 + 1, &mut ctx)
            .map_err(|e| e.to_string())?;
    }
    r.metric(
        "index.btree_insert_ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
        "ns",
    );
    let probe: Vec<u64> = (0..BTREE_KEYS)
        .map(|i| keys[(mix64(i ^ 0x5eed) % BTREE_KEYS) as usize])
        .collect();
    r.metric(
        "index.btree_get_ns",
        per_item_ns(&probe, |&k| {
            black_box(tree.get(k, &mut ctx).expect("inserted key"));
        }),
        "ns",
    );
    let mut ctx2 = MemCtx::new(0);
    r.metric(
        "index.btree_scan16_ns",
        per_item_ns(&probe[..10_000], |&lo| {
            let mut n = 0;
            tree.scan(lo, u64::MAX, &mut ctx2, &mut |_, _| {
                n += 1;
                n < 16
            })
            .expect("btree scans");
            black_box(n);
        }),
        "ns",
    );
    let hash = DashTable::create(&alloc, index_slot(1), HASH_KEYS * 2, 0, &mut ctx)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for &k in &keys[..HASH_KEYS as usize] {
        hash.insert(k, k | 1, &mut ctx).map_err(|e| e.to_string())?;
    }
    r.metric(
        "index.hash_insert_ns",
        t.elapsed().as_nanos() as f64 / HASH_KEYS as f64,
        "ns",
    );
    let hprobe: Vec<u64> = probe
        .iter()
        .map(|&k| keys[(k % HASH_KEYS) as usize])
        .collect();
    r.metric(
        "index.hash_get_ns",
        per_item_ns(&hprobe, |&k| {
            black_box(hash.get(k, &mut ctx).expect("inserted key"));
        }),
        "ns",
    );
    Ok(())
}

/// Write spans as TSV: `id parent name start_ns end_ns`.
fn write_spans(a: &Args, rows: &str) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a
        .out
        .join(format!("{}-seed{}.spans.tsv", a.workload, a.seed));
    let mut s = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
    s.push_str(rows);
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))
}

/// Wall throughput of the untraced run, and the share of it tracing
/// costs.
fn overhead(r: &mut Report, a: &Args, traced_wall_ops_per_s: f64) {
    if let Some(untraced) = a.untraced_wall_ops_per_s {
        r.metric("wl.wall_ops_per_s", untraced, "1/s");
        r.metric(
            "trace.overhead_frac",
            1.0 - traced_wall_ops_per_s / untraced,
            "frac",
        );
    }
}

/// Per-layer numbers for a KV workload, from its traced server
/// lifetime plus a timed replay of the same stream.
pub fn kv(
    a: &Args,
    mix: Mix,
    r: &mut Report,
    life: &kv::Life,
    wall_ops_per_s: f64,
) -> Result<(), String> {
    let (conns, window) = kv::shape(mix);
    let fence_every = replay::fence_every(mix);
    r.info(
        "config",
        format!(
            "seed {} keys {KEYS} conns {conns} window {window} flags {:?} replay_ops {REPLAY_OPS} replay_fence_every {fence_every}",
            a.seed,
            kv::SERVER_FLAGS
        ),
    );

    let mut rows = String::new();
    let mut next = conns;
    for (c, log) in life.conns.iter().enumerate() {
        let _ = writeln!(rows, "{c}\t-\tconn\t0\t{}", log.last_ns);
        for s in &log.spans {
            let _ = writeln!(
                rows,
                "{next}\t{c}\t{}#{}\t{}\t{}",
                s.class.name(),
                s.id,
                s.start_ns,
                s.end_ns
            );
            next += 1;
        }
    }
    write_spans(a, &rows)?;

    let frames: Vec<(Request, Response)> = life
        .conns
        .iter()
        .flat_map(|c| c.frames.iter().cloned())
        .collect();
    proto_metrics(r, &frames);

    let ops = gen::interleaved(mix, a.seed, conns, REPLAY_OPS);
    let rep = replay::replay(&ops, fence_every, true)?;
    let call = |c: Class| {
        p50(rep
            .call_us
            .get(&mix.stand_in(c))
            .map_or(&[][..], Vec::as_slice))
    };
    for c in Class::ALL {
        r.metric(&format!("store.{}_p50_us", c.name()), call(c), "us");
    }
    r.metric("store.group_fence_p50_us", p50(&rep.fence_us), "us");
    for c in [Class::Get, Class::Put] {
        let e2e = p50(&life.latencies(c));
        r.metric(
            &format!("server.{}_outside_engine_p50_us", c.name()),
            e2e - call(c),
            "us",
        );
    }
    let d = life.drain;
    r.metric(
        "server.txns_per_fence",
        d.committed as f64 / d.fences.max(1) as f64,
        "txn/fence",
    );
    r.metric("server.shed_frac", d.shed_frac(), "frac");

    core_metrics(r, rep.obs.as_ref().ok_or("replay without obs")?, rep.txns);
    let sim = SimConfig::small().with_capacity(DEVICE_CAPACITY);
    let new_ms = dev_metrics(r, &rep.stats, rep.txns, &sim);
    index_metrics(r)?;
    r.metric("wl.load_s", life.setup_s - new_ms / 1e3, "s");
    let mut g = Generator::new(mix, a.seed, 0);
    let t = Instant::now();
    for _ in 0..100_000 {
        black_box(g.next_op().to_op());
    }
    r.metric(
        "wl.gen_ns_per_op",
        t.elapsed().as_nanos() as f64 / 1e5,
        "ns",
    );
    overhead(r, a, wall_ops_per_s);
    Ok(())
}

/// The response the server would give `op`, for the codec probe of a
/// workload that has no frames of its own.
fn canned_response(id: u64, op: &GenOp) -> Response {
    let payload = match op {
        GenOp::Get(key) => {
            let mut v = gen::value_of(*key, 1);
            v.resize(VALUE_BYTES, 0);
            v
        }
        GenOp::Scan(lo, _) => {
            let mut p = SCAN_MAX.to_le_bytes().to_vec();
            for k in *lo..*lo + u64::from(SCAN_MAX) {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&1u64.to_le_bytes());
            }
            p
        }
        GenOp::Put(..) | GenOp::Batch(_) => Vec::new(),
    };
    Response {
        id,
        status: Status::Ok,
        payload,
    }
}

/// Per-layer numbers for TPC-C, from its traced repeats.
///
/// TPC-C runs in process, so the `server.*`, `store.*` and `proto.*`
/// names read their nearest counterparts: the harness loop is the layer
/// outside the engine, `Workload::txn` calls are the engine calls
/// (OrderStatus for get, Payment for put, StockLevel for scan, NewOrder
/// for batch), the commit fence primitive stands in for the group fence,
/// and the codec is timed on the `kv_pipelined` frames of the same seed.
pub fn tpcc(
    a: &Args,
    r: &mut Report,
    reps: &[tpcc::Rep],
    wall_ops_per_s: f64,
) -> Result<(), String> {
    r.info(
        "config",
        format!(
            "seed {} warehouses {} slots_per_repeat {} repeats {} engine falcon/occ eADR fence-per-commit",
            a.seed,
            tpcc::WAREHOUSES,
            tpcc::SLOTS,
            reps.len()
        ),
    );
    let names = tpcc::workload().txn_types();
    let mut rows = String::new();
    let mut next = 0u64;
    for (i, rep) in reps.iter().enumerate() {
        let base = next;
        let _ = writeln!(
            rows,
            "{base}\t-\trepeat{i}\t0\t{}",
            (rep.wall_s * 1e9) as u64
        );
        next += 1;
        for s in &rep.spans {
            let name = s.ty.map_or("aborted", |t| names[t]);
            let _ = writeln!(
                rows,
                "{next}\t{base}\tslot{}:{name}\t{}\t{}",
                s.slot, s.start_ns, s.end_ns
            );
            next += 1;
        }
    }
    write_spans(a, &rows)?;

    let call_us = |ty: usize| -> Vec<f64> {
        reps.iter()
            .flat_map(|x| x.spans.iter())
            .filter(|s| s.ty == Some(ty))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let e2e_us =
        |ty: usize| -> Vec<f64> { reps.iter().flat_map(|x| x.lat_us[ty].clone()).collect() };
    let mapping = [
        ("get", tpcc::ORDER_STATUS),
        ("put", tpcc::PAYMENT),
        ("scan", tpcc::STOCK_LEVEL),
        ("batch", tpcc::NEW_ORDER),
    ];
    for (name, ty) in mapping {
        r.metric(&format!("store.{name}_p50_us"), p50(&call_us(ty)), "us");
    }
    let fences: Vec<f64> = reps.iter().flat_map(|x| x.fence_us.clone()).collect();
    r.metric("store.group_fence_p50_us", p50(&fences), "us");
    for (name, ty) in &mapping[..2] {
        r.metric(
            &format!("server.{name}_outside_engine_p50_us"),
            p50(&e2e_us(*ty)) - p50(&call_us(*ty)),
            "us",
        );
    }
    let first = &reps[0];
    r.metric(
        "server.txns_per_fence",
        first.committed as f64 / first.stats.sfences.max(1) as f64,
        "txn/fence",
    );
    r.metric(
        "server.shed_frac",
        first.dropped as f64 / tpcc::SLOTS as f64,
        "frac",
    );

    let ops = gen::interleaved(Mix::Pipelined, a.seed, 2, 20_000);
    let frames: Vec<(Request, Response)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let id = i as u64 + 1;
            (Request { id, op: op.to_op() }, canned_response(id, op))
        })
        .collect();
    proto_metrics(r, &frames);

    core_metrics(
        r,
        first.obs.as_ref().ok_or("repeat without obs")?,
        first.committed,
    );
    let t = tpcc::workload();
    let cap = falcon_core::device_capacity_for(tpcc::data_bytes(&t), 1, t.table_defs().len());
    let new_ms = dev_metrics(
        r,
        &first.stats,
        first.committed,
        &SimConfig::experiment().with_capacity(cap),
    );
    index_metrics(r)?;
    let setup = median(&reps.iter().map(|x| x.setup_s).collect::<Vec<_>>());
    r.metric("wl.load_s", setup - new_ms / 1e3, "s");
    // TPC-C draws its inputs inside `Workload::txn`; time the draws of
    // one NewOrder (a customer and up to 15 items) as the generator cost.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(a.seed);
    let t0 = Instant::now();
    for _ in 0..100_000 {
        black_box(falcon_wl::tpcc::nurand(&mut rng, 1023, 259, 1, 300));
        for _ in 0..15 {
            black_box(falcon_wl::tpcc::nurand(&mut rng, 8191, 7911, 1, 10_000));
        }
    }
    r.metric(
        "wl.gen_ns_per_op",
        t0.elapsed().as_nanos() as f64 / 1e5,
        "ns",
    );
    overhead(r, a, wall_ops_per_s);
    Ok(())
}
