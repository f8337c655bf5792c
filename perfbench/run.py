#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload kv_serial|kv_pipelined|tpcc \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds three binaries from
source, each in a cargo invocation of its own so that no feature leaks
between them:

  * `falcon_server`, exactly as it ships: `cargo build --release -p falcon-server`;
  * the `perfbench` runner without `obs`, which measures the end-to-end
    metrics (`--trace 0`);
  * the `perfbench` runner with `obs`, which measures the per-layer
    metrics (`--trace 1`), after an untraced run of the same workload
    for the tracing overhead.

It refuses to report when a measured binary resolves a feature it must
not have (`obs`, `trace`, `persist-check` or `race-check` in the server
or the untraced runner). The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}` with the metrics that
BENCHMARK.json lists for the mode; the line before it records the source
revision and every binary's resolved features. Full results and spans
go under the cargo target directory (`$CARGO_TARGET_DIR`, default
`.bench_build`).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("kv_serial", "kv_pipelined", "tpcc")
DEV_FEATURES = {"obs", "trace", "persist-check", "race-check"}
# A run must end within 180 s (900 s when it builds), so a hung runner
# is killed well before that.
RUN_TIMEOUT_S = 150


class Refused(Exception):
    """The run cannot report a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    r = subprocess.run(["cargo", *args, "--offline"], cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        raise Refused(f"cargo {' '.join(args)} failed with {r.returncode}")
    return r.stdout


def features(select, target):
    """Resolved features per package of one build, as cargo tree sees it."""
    out = cargo(["tree", *select, "-e", "normal", "--prefix", "none",
                 "-f", "{p}|{f}"], target)
    feats = {}
    for line in out.splitlines():
        pkg, _, f = line.partition("|")
        name = pkg.split()[0] if pkg.split() else pkg
        f = f.replace("(*)", "").strip()
        feats[name] = sorted(x for x in f.split(",") if x)
    return dict(sorted(feats.items()))


def build():
    """Build the three binaries; return their paths and feature sets."""
    t = target_dir()
    bench = ["--manifest-path", str(BENCH / "Cargo.toml")]
    builds = {
        "falcon_server": (["-p", "falcon-server"], t, t / "release" / "falcon_server"),
        "perfbench": (bench, t / "perfbench", t / "perfbench" / "release" / "perfbench"),
        "perfbench_obs": (bench + ["--features", "obs"], t / "perfbench-obs",
                          t / "perfbench-obs" / "release" / "perfbench"),
    }
    out = {}
    for name, (select, target, binary) in builds.items():
        cargo(["build", "--release", *select], target)
        feats = features(select, target)
        leaked = {p: sorted(DEV_FEATURES & set(f)) for p, f in feats.items()
                  if DEV_FEATURES & set(f)}
        if name == "perfbench_obs":
            if "obs" not in feats.get("falcon-core", []):
                raise Refused("the traced runner was built without obs")
            leaked = {p: [x for x in f if x != "obs"] for p, f in leaked.items()}
            leaked = {p: f for p, f in leaked.items() if f}
        if leaked:
            raise Refused(f"{name} resolves features that do not ship: {leaked}")
        out[name] = {"path": binary, "features": feats}
    return out


def revision():
    """The git commit when there is one, and a digest of the sources."""
    rev = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        rev = r.stdout.strip() or None
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"git": rev, "source_sha256": h.hexdigest()}


def run_runner(binary, args):
    """Run the runner in its own process group; parse its report lines."""
    p = subprocess.Popen([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise Refused(f"runner timed out after {RUN_TIMEOUT_S} s")
    finally:
        # The runner reaps its servers; make sure nothing in its group
        # outlives it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        raise Refused(f"runner exited with {p.returncode}")
    rep = {"metrics": {}, "checks": {}, "info": [], "attempted": 0, "failed": 0}
    for line in stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            rep["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "check":
            name, _, rest = rest.partition(" ")
            verdict, _, detail = rest.partition(" ")
            rep["checks"][name] = {"pass": verdict == "pass", "detail": detail}
        elif kind == "count":
            name, value = rest.split(" ")
            rep[name] = int(value)
        elif kind == "info":
            rep["info"].append(rest)
    return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        raise Refused("--seed must be non-negative and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "crates" / "falcon-server" / "Cargo.toml").is_file():
        raise Refused("no falcon-server sources next to the benchmark")

    t0 = time.monotonic()
    bins = build()
    build_s = time.monotonic() - t0
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--server", str(bins["falcon_server"]["path"])]
    runs = []
    if a.trace == 0:
        runs.append(run_runner(bins["perfbench"]["path"],
                               base + ["--seconds", str(a.seconds)]))
        wanted = spec["end_to_end"]
    else:
        half = str(a.seconds / 2)
        untraced = run_runner(bins["perfbench"]["path"], base + ["--seconds", half])
        runs.append(untraced)
        ops = untraced["metrics"]["wall_ops_per_s"]["value"]
        runs.append(run_runner(bins["perfbench_obs"]["path"], base + [
            "--seconds", half, "--trace",
            "--out", str(target_dir() / "perfbench-trace"),
            "--untraced-wall-ops-per-s", repr(ops)]))
        wanted = spec["per_layer"]

    got = runs[-1]["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in got:
            raise Refused(f"{a.workload} did not measure {m['name']}")
        if got[m["name"]]["unit"] != m["unit"]:
            raise Refused(f"{m['name']} measured in {got[m['name']]['unit']}, "
                          f"declared {m['unit']}")
        metrics[m["name"]] = got[m["name"]]
    checks = {k: v for r in runs for k, v in r["checks"].items()}
    result = {
        "correct": all(c["pass"] for c in checks.values()),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    meta = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "revision": revision(),
        "binaries": {k: {"features": v["features"],
                         "path": str(Path(v["path"]).relative_to(ROOT))
                         if Path(v["path"]).is_relative_to(ROOT) else v["path"]}
                     for k, v in bins.items()},
        "build_check_s": round(build_s, 3),
        "checks": checks,
        "failed_checks": sorted(k for k, c in checks.items() if not c["pass"]),
    }
    out = target_dir() / "perfbench-results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "runs": runs}, indent=1))
    print("perfbench meta " + json.dumps(
        {k: meta[k] for k in ("workload", "seed", "trace", "revision", "binaries",
                              "failed_checks")}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Refused as e:
        log(str(e))
        sys.exit(2)
