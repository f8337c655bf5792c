//! `perfbench` — one run of one benchmark workload.
//!
//! ```text
//! perfbench --workload kv_serial|kv_pipelined|tpcc --seed N --seconds S
//!           [--server PATH] [--trace --out DIR --untraced-wall-ops-per-s X]
//! ```
//!
//! Prints one `metric NAME VALUE UNIT` line per metric, one
//! `check NAME pass|FAIL DETAIL` line per correctness check, and
//! `count attempted|failed N`; `perfbench/run.py` builds the binaries
//! and turns these lines into the benchmark's JSON result. Exits
//! non-zero when the run could not be carried out at all.

// Spans and several counters are read only by the per-layer code, which
// is compiled into the traced (`obs`) build alone.
#![cfg_attr(not(feature = "obs"), allow(dead_code))]

mod check;
mod gen;
mod kv;
#[cfg(feature = "obs")]
mod layers;
mod replay;
mod stats;
mod tpcc;

use falcon_core::retry::mix64;
use gen::{Class, Generator, Mix};
use stats::{median, percentile, sorted, supported};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Server lifetimes per KV run: `setup_s` is their median.
const KV_LIVES: u32 = 3;
/// Requests each KV replay executes.
const REPLAY_OPS: usize = 50_000;
/// TPC-C repeats per run, at least: `setup_s` is their median.
const TPCC_MIN_REPS: usize = 4;
/// The TPC-C repeats the virtual-clock metrics come from: the run's seed
/// and the first two derived seeds (repeat 1 repeats repeat 0's seed).
const TPCC_VIRTUAL_REPS: [usize; 3] = [0, 2, 3];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    server: Option<PathBuf>,
    trace: bool,
    out: PathBuf,
    untraced_wall_ops_per_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        server: None,
        trace: false,
        out: PathBuf::from("."),
        untraced_wall_ops_per_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "bad --seconds")?,
            "--server" => a.server = Some(PathBuf::from(val()?)),
            "--out" => a.out = PathBuf::from(val()?),
            "--untraced-wall-ops-per-s" => {
                a.untraced_wall_ops_per_s = Some(val()?.parse().map_err(|_| "bad ops/s")?);
            }
            "--trace" => a.trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The run's report: metric, check and count lines.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("metric {name} {value} {unit}"));
    }

    fn require(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let problems = if ok { Vec::new() } else { vec![detail()] };
        self.check(name, &problems);
    }

    fn check(&mut self, name: &str, problems: &[String]) {
        let verdict = if problems.is_empty() { "pass" } else { "FAIL" };
        let detail = problems
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>()
            .join("; ");
        self.lines.push(format!("check {name} {verdict} {detail}"));
    }

    fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.lines.push(format!("info {key} {value}"));
    }

    /// A tail latency metric over pooled samples: the named percentile,
    /// or the highest lower one the sample supports (recorded as info).
    fn tail(&mut self, name: &str, samples: &[f64], pct: f64) {
        let s = sorted(samples.to_vec());
        match supported(&s, pct) {
            Some(t) => {
                self.metric(name, t.value, "us");
                self.info(
                    &format!("{name}.basis"),
                    format!("p{} of {} samples, {} beyond", t.pct, t.n, t.beyond),
                );
            }
            None => self.check(name, &[format!("no samples for {name}")]),
        }
    }

    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        println!("count attempted {}", self.attempted);
        println!("count failed {}", self.failed);
    }
}

/// Which request class each latency metric family reads: `new_order_*`
/// is the workload's largest write and `stock_level_*` its largest read.
fn kv_family(mix: Mix) -> [(&'static str, Class); 4] {
    [
        ("get", Class::Get),
        ("put", Class::Put),
        ("new_order", mix.stand_in(Class::Batch)),
        ("stock_level", mix.stand_in(Class::Scan)),
    ]
}

/// Latency samples of one metric family, one group per repeat (server
/// lifetime or TPC-C repeat).
type Groups = Vec<Vec<f64>>;

/// Latency metrics: p50 of all four families, p95 of `get`/`put`, p99
/// of all four. The p50 is the median over repeats of each repeat's
/// median, so a slow spell of the host that covers a minority of the
/// repeats does not move it; tails pool the repeats for sample support.
fn latency_metrics(r: &mut Report, families: &[(&str, Groups)]) {
    for (name, groups) in families {
        let medians: Vec<f64> = groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| percentile(&sorted(g.clone()), 50.0))
            .collect();
        let p50 = format!("{name}_p50_us");
        if medians.is_empty() {
            r.check(&p50, &[format!("no samples for {p50}")]);
        } else {
            r.metric(&p50, median(&medians), "us");
            let n: usize = groups.iter().map(Vec::len).sum();
            r.info(
                &format!("{p50}.basis"),
                format!(
                    "median of {} repeat medians over {n} samples",
                    medians.len()
                ),
            );
            r.info(&format!("{p50}.repeats"), format!("{medians:?}"));
        }
        let pooled: Vec<f64> = groups.concat();
        let tails: &[f64] = if matches!(*name, "get" | "put") {
            &[95.0, 99.0]
        } else {
            &[99.0]
        };
        for &p in tails {
            r.tail(&format!("{name}_p{p}_us"), &pooled, p);
        }
    }
}

/// Replay twice, in parallel, and require bit-identical results.
fn replay_twice(r: &mut Report, mix: Mix, seed: u64) -> Result<replay::Replay, String> {
    let (conns, _) = kv::shape(mix);
    let ops = gen::interleaved(mix, seed, conns, REPLAY_OPS);
    let fence_every = replay::fence_every(mix);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| replay::replay(&ops, fence_every, false));
        let b = s.spawn(|| replay::replay(&ops, fence_every, false));
        (a.join().expect("replay"), b.join().expect("replay"))
    });
    let (a, b) = (a?, b?);
    r.require(
        "replay_deterministic",
        a.v_ns == b.v_ns && a.stats == b.stats,
        || {
            format!(
                "v_ns {} vs {}, stats {:?} vs {:?}",
                a.v_ns, b.v_ns, a.stats, b.stats
            )
        },
    );
    Ok(a)
}

fn run_kv(a: &Args, mix: Mix, r: &mut Report) -> Result<(), String> {
    let server = a
        .server
        .as_ref()
        .ok_or("--server is required for KV workloads")?;
    let (conns, _) = kv::shape(mix);
    let mut gens: Vec<Generator> = (0..conns).map(|c| Generator::new(mix, a.seed, c)).collect();
    let lives = if a.trace { 1 } else { KV_LIVES };
    let measure = Duration::from_secs_f64(a.seconds / f64::from(lives));
    let lives: Vec<kv::Life> = (0..lives)
        .map(|_| kv::life(server, mix, &mut gens, measure, a.trace))
        .collect::<Result<_, _>>()?;
    let mut tally = check::Tally::default();
    for life in &lives {
        life.conns.iter().for_each(|c| tally.merge(&c.tally));
        r.info("drain", format!("{:?}", life.drain));
    }
    let problems: Vec<String> = lives.iter().flat_map(|l| l.violations.clone()).collect();
    r.check("kv_responses", &problems);
    r.info("tally", format!("{tally:?}"));
    r.attempted += tally.attempted;
    r.failed += tally.failed();
    let busy: f64 = lives.iter().map(|l| l.busy_s).sum();
    let ops_per_s = tally.ok as f64 / busy;
    let per_life = |f: fn(&kv::Life) -> f64| median(&lives.iter().map(f).collect::<Vec<_>>());
    r.metric("setup_s", per_life(|l| l.setup_s), "s");
    r.metric("ops_per_s", ops_per_s, "1/s");
    r.metric("wall_ops_per_s", ops_per_s, "1/s");
    r.metric("ok_frac", tally.ok_frac(), "frac");
    r.metric(
        "peak_rss_mib",
        per_life(|l| l.hwm_kib as f64 / 1024.0),
        "MiB",
    );
    if a.trace {
        #[cfg(feature = "obs")]
        layers::kv(a, mix, r, &lives[0], ops_per_s)?;
    } else {
        let families: Vec<(&str, Groups)> = kv_family(mix)
            .iter()
            .map(|&(n, c)| (n, lives.iter().map(|l| l.latencies(c)).collect()))
            .collect();
        latency_metrics(r, &families);
        let rep = replay_twice(r, mix, a.seed)?;
        r.metric("v_txn_per_s", rep.v_txn_per_s(), "1/s");
        r.metric("nvm_bytes_per_txn", rep.nvm_bytes_per_txn(), "B");
    }
    Ok(())
}

fn run_tpcc(a: &Args, r: &mut Report) -> Result<(), String> {
    // The first two repeats run the run's seed, and must agree bit for
    // bit; later ones draw fresh transactions from seeds derived from it,
    // so the pooled tails are not copies of one repeat's few slowest.
    let mut reps: Vec<tpcc::Rep> = Vec::new();
    let mut spent = 0.0;
    while reps.len() < TPCC_MIN_REPS || spent < a.seconds {
        let i = reps.len() as u64;
        let seed = if i < 2 {
            a.seed
        } else {
            mix64(a.seed ^ mix64(i))
        };
        let rep = tpcc::rep(seed, a.trace)?;
        spent += rep.wall_s;
        reps.push(rep);
    }
    let (first, second) = (&reps[0], &reps[1]);
    r.require(
        "tpcc_deterministic",
        first.v_ns == second.v_ns
            && first.stats == second.stats
            && first.committed == second.committed
            && first.vlat_us == second.vlat_us,
        || format!("same seed, v_ns {} vs {}", first.v_ns, second.v_ns),
    );
    let lost: Vec<String> = reps
        .iter()
        .filter(|x| x.committed + x.dropped != tpcc::SLOTS)
        .map(|x| {
            format!(
                "committed {} + dropped {} != {}",
                x.committed,
                x.dropped,
                tpcc::SLOTS
            )
        })
        .collect();
    r.check("tpcc_slots_accounted", &lost);
    let ytd: Vec<String> = reps.iter().filter_map(|x| x.ytd_problem.clone()).collect();
    r.check("tpcc_consistency_1", &ytd);
    for x in &reps {
        r.attempted += tpcc::SLOTS;
        r.failed += x.dropped;
    }
    let committed: u64 = reps.iter().map(|x| x.committed).sum();
    let rates: Vec<f64> = reps.iter().map(|x| x.committed as f64 / x.wall_s).collect();
    let wall_ops_per_s = median(&rates);
    r.info("tpcc_repeats", reps.len());
    r.info("tpcc_repeat_ops_per_s", format!("{rates:?}"));
    r.metric(
        "setup_s",
        median(&reps.iter().map(|x| x.setup_s).collect::<Vec<_>>()),
        "s",
    );
    r.metric("wall_ops_per_s", wall_ops_per_s, "1/s");
    // TPC-C's throughput and latencies are virtual, as in the paper's
    // figures. The wall speed of this CPU- and memory-bound loop follows
    // the shared host by up to ±20 % over minutes, too much to gate (see
    // README); it is reported as `wall_ops_per_s` and, per layer, in the
    // `store.*` call times.
    let vreps: Vec<&tpcc::Rep> = TPCC_VIRTUAL_REPS.iter().map(|&i| &reps[i]).collect();
    let sum = |f: fn(&tpcc::Rep) -> u64| vreps.iter().map(|x| f(x)).sum::<u64>() as f64;
    let txns = sum(|x| x.committed);
    let v_txn_per_s = txns * 1e9 / sum(|x| x.v_ns);
    r.metric("ops_per_s", v_txn_per_s, "1/s");
    r.metric("ok_frac", committed as f64 / r.attempted as f64, "frac");
    let hwm = kv::vm_hwm_kib("/proc/self/status")?;
    r.metric("peak_rss_mib", hwm as f64 / 1024.0, "MiB");
    if a.trace {
        #[cfg(feature = "obs")]
        layers::tpcc(a, r, &reps, wall_ops_per_s)?;
    } else {
        // OrderStatus is TPC-C's point read and Payment its small write;
        // NewOrder and StockLevel are its largest write and read.
        let groups =
            |ty: usize| -> Groups { vreps.iter().map(|x| x.vlat_us[ty].clone()).collect() };
        latency_metrics(
            r,
            &[
                ("get", groups(tpcc::ORDER_STATUS)),
                ("put", groups(tpcc::PAYMENT)),
                ("new_order", groups(tpcc::NEW_ORDER)),
                ("stock_level", groups(tpcc::STOCK_LEVEL)),
            ],
        );
        r.metric("v_txn_per_s", v_txn_per_s, "1/s");
        r.metric(
            "nvm_bytes_per_txn",
            sum(|x| x.stats.media_bytes_written()) / txns,
            "B",
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.trace && !cfg!(feature = "obs") {
        eprintln!("perfbench: --trace needs the obs build");
        return ExitCode::from(2);
    }
    let mut r = Report::default();
    let res = match a.workload.as_str() {
        "kv_serial" => run_kv(&a, Mix::Serial, &mut r),
        "kv_pipelined" => run_kv(&a, Mix::Pipelined, &mut r),
        "tpcc" => run_tpcc(&a, &mut r),
        other => Err(format!("unknown workload {other:?}")),
    };
    match res {
        Ok(()) => {
            r.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
