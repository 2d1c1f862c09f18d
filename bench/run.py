"""rse-lab benchmark: one workload per invocation, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the benchmark is single-threaded by design, and this
# must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the library lets this variable override scenario noise seeds; the benchmark
# derives every seed from --seed instead
os.environ.pop("RSE_LAB_SEED", None)

import argparse
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5       # set-up is measured in this many fresh processes
OVERHEAD_EVERY = 4      # traced run: every 4th item is also run untraced
TAIL_BEYOND = 10        # tail percentile keeps at least this many samples beyond it
# Timings are process CPU time.  The benchmark is single-threaded and does no
# I/O while timed, so this is wall time minus the time the process was
# descheduled; on a shared 2-vCPU virtual machine, descheduled decodes made
# up the whole extreme latency tail of wall-clock timings.
CLOCK = time.process_time
MAX_RUN_S = 150.0       # cap on one run's timed loop

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "windows_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def fail_usage(msg: str) -> None:
    """Exit without a result line."""
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import rse_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "rse_lab" / "__init__.py").is_file():
        fail_usage(f"library source not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    r = importlib.import_module("rse_lab")
    if Path(r.__file__).resolve().parent != (SRC / "rse_lab").resolve():
        fail_usage(f"imported rse_lab from {r.__file__}, not from {SRC}")
    return r


def item_count(w, seconds: float) -> int:
    """The run's work is fixed by --seconds and the workload's nominal item
    cost, not by the clock, so counters repeat exactly for one seed."""
    groups = max(1, round(seconds / (w.item_cost_s * w.group)))
    return groups * w.group


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(name)])


def source_hash() -> str:
    """Hash of the library and benchmark sources a result depends on."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "rse_lab").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


# -- set-up ----------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child process: time import plus library set-up for the workload."""
    w = WORKLOADS[args.workload]
    count = item_count(w, args.seconds)
    t0 = CLOCK()
    r = load_program()
    w.setup(r, rng_for(w.name, args.seed), count)
    print(CLOCK() - t0)


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        out.append(float(proc.stdout.split()[-1]))
    return out


# -- tracing ---------------------------------------------------------------------

def install_tracer(tracer: Tracer, r) -> None:
    c = tracer.counts

    def on_decode(res):
        st = res.stats
        c["supports_tested"] += st.supports_tested
        c["oracle_iterations"] += st.oracle_iterations
        c["indeterminate"] += st.indeterminate
        c["fastpath"] += st.supports_tested == 1

    def on_feasibility(res):
        c["feasible"] += res.feasible
        c["projection_calls"] += res.iterations > 0

    def on_trace(trace):
        c["steps"] += trace.horizon

    def on_plan(plan):
        c["injections"] += len(plan.injections)

    tracer.patch(r.model.SystemModel, "__init__", "model.construct")
    tracer.patch(r.decoder.WindowDecoder, "decode", "decoder.decode", on_decode)
    tracer.patch(r.decoder.WindowDecoder, "feasibility", "decoder.feasibility", on_feasibility)
    tracer.patch(r.sim, "run_closed_loop", "sim.run_closed_loop", on_trace)
    tracer.patch(r.sim.NoiseSpec, "draw", "sim.noise_draw")
    tracer.patch(r.sim.AuthPolicy, "auth_set", "sim.auth_set")
    tracer.patch(r.sim, "apply_attack", "sim.apply_attack")
    tracer.patch(r.sim, "id1", "detectors.id1")
    tracer.patch(r.detectors, "id1", "detectors.id1")
    tracer.patch(r.synth, "sustained_attack", "synth.sustained_attack", on_plan)
    tracer.patch(r.synth, "pa_over_time_id2", "attackability.verdict")
    tracer.patch(r.attackability, "analyze", "attackability.verdict")
    tracer.patch(r.attackability, "policy_prevents_pa", "attackability.verdict")


def layer_metrics(tracer: Tracer, setup_mark: int, overhead: float) -> dict:
    loop = tracer.totals(setup_mark)
    whole = tracer.totals()
    c = tracer.counts

    def t(name, key="total_s", spans=loop):
        return spans.get(name, {}).get(key, 0.0)

    def n(name):
        return loop.get(name, {}).get("calls", 0)

    decodes = n("decoder.decode")
    feas = n("decoder.feasibility")
    m = {
        "sim.run_closed_loop_s": (t("sim.run_closed_loop"), "s"),
        "sim.self_s": (t("sim.run_closed_loop", "self_s"), "s"),
        "sim.noise_draw_s": (t("sim.noise_draw"), "s"),
        "sim.apply_attack_s": (t("sim.apply_attack"), "s"),
        "sim.apply_attack_calls": (n("sim.apply_attack"), "count"),
        "sim.auth_set_s": (t("sim.auth_set"), "s"),
        "sim.auth_set_calls": (n("sim.auth_set"), "count"),
        "sim.steps": (c["steps"], "count"),
        "decoder.decode_s": (t("decoder.decode"), "s"),
        "decoder.decode_calls": (decodes, "count"),
        "decoder.feasibility_s": (t("decoder.feasibility"), "s"),
        "decoder.feasibility_calls": (feas, "count"),
        "decoder.supports_tested": (c["supports_tested"], "count"),
        "decoder.supports_per_window": (c["supports_tested"] / max(1, decodes), "1/window"),
        "decoder.oracle_iterations": (c["oracle_iterations"], "count"),
        "decoder.projection_calls": (c["projection_calls"], "count"),
        "decoder.indeterminate": (c["indeterminate"], "count"),
        "decoder.fastpath_frac": (c["fastpath"] / max(1, decodes), "ratio"),
        "decoder.feasible_frac": (c["feasible"] / max(1, feas), "ratio"),
        "detectors.id1_s": (t("detectors.id1"), "s"),
        "detectors.id1_calls": (n("detectors.id1"), "count"),
        "synth.sustained_attack_s": (t("synth.sustained_attack"), "s"),
        "synth.injections": (c["injections"], "count"),
        "attackability.verdict_s": (t("attackability.verdict"), "s"),
        "attackability.verdict_calls": (n("attackability.verdict"), "count"),
        # construction during set-up counts here too: that is where it happens
        "model.construct_s": (t("model.construct", spans=whole), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- the run ---------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest percentile, to 0.01, with at least TAIL_BEYOND samples above
    it (the median when there are too few samples for anything higher)."""
    if n < 2 * TAIL_BEYOND:
        return 50.0
    return math.floor(10000 * (n - TAIL_BEYOND) / n) / 100


def check_repeat(name: str, seed: int, count: int, record: dict) -> list[str]:
    """Compare this run's digest and counters with any earlier run of the
    same workload, seed, size and library source; return mismatching keys."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-items{count}-{source_hash()}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k in record if k in earlier and earlier[k] != record[k]]
    path.write_text(json.dumps({**earlier, **record}, indent=1, sort_keys=True))
    return differ


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    count = item_count(w, args.seconds)
    traced = bool(args.trace)
    r = load_program()
    setup_times = [] if traced else measure_setup(args)

    rng = rng_for(w.name, args.seed)
    tracer = Tracer() if traced else None
    if traced:
        install_tracer(tracer, r)
    state = w.setup(r, rng, count)
    inputs = w.items(state, rng, count)
    setup_mark = tracer.mark() if traced else 0
    if traced:
        tracer.counts.clear()   # counters cover the timed items only

    # keep the harness's inputs out of the collector's view, so collection
    # pauses scale with the library's own garbage, not with the input list
    gc.collect()
    gc.freeze()

    def timed(item, traced_call: bool):
        t0 = CLOCK()
        if traced_call:
            with tracer.span("bench.item"):
                result = w.run(r, state, item)
        else:
            result = w.run(r, state, item)
        return result, CLOCK() - t0

    def untraced_time(item) -> float:
        tracer.uninstall()
        try:
            return timed(item, False)[1]
        finally:
            install_tracer(tracer, r)

    latencies, errors, pairs = [], [], []   # pairs: (untraced, traced) seconds
    attempted = failed = hard = windows = 0
    why: Counter = Counter()
    digest = hashlib.sha256()
    counters: Counter = Counter()
    started = time.perf_counter()
    deadline = started + min(MAX_RUN_S, max(30.0, 4.0 * args.seconds))
    for k, item in enumerate(inputs):
        if time.perf_counter() > deadline:
            errors.append(f"stopped after {k} of {count} items: time limit")
            break
        attempted += 1
        try:
            if traced and k % OVERHEAD_EVERY == 0:
                # alternate which side runs first, so warm caches favour neither
                plain_first = (k // OVERHEAD_EVERY) % 2 == 0
                plain = untraced_time(item) if plain_first else None
                result, dt = timed(item, True)
                pairs.append((plain if plain_first else untraced_time(item), dt))
            else:
                result, dt = timed(item, traced)
            out = w.check(state, item, result)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            errors.append(f"item {k}: {type(exc).__name__}: {exc}")
            failed += 1
            hard += 1
            why["raised"] += 1
            continue
        latencies.append(dt)
        windows += out.windows
        failed += bool(out.soft)
        hard += bool(out.hard)
        why.update(out.soft)
        digest.update(out.digest)
        counters.update(out.counters)
    timed_wall = time.perf_counter() - started
    gc.unfreeze()
    if not latencies:
        fail_usage("no item completed; first error: " + (errors[0] if errors else "none"))

    counters = dict(counters)
    record = {"digest": digest.hexdigest(), "counters": counters}
    if traced:
        overhead = sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0 if pairs else 0.0
        metrics = layer_metrics(tracer, setup_mark, overhead)
        record["layer_counts"] = {k: v["value"] for k, v in metrics.items()
                                  if v["unit"] == "count"}
    differ = check_repeat(w.name, args.seed, count, record)

    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": int(traced), "items": count, "item": w.window_unit,
              "attempted": attempted, "failed": failed, "hard_failures": hard,
              "failed_frac": failed / max(1, attempted), "failed_checks": dict(why),
              "errors": errors[:10], "repeat_mismatch": differ, "windows": windows,
              "digest": record["digest"], "counters": counters, "env": environment()}
    if traced:
        report["overhead_pairs"] = len(pairs)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{w.name}-seed{args.seed}.npz")
        tracer.uninstall()
    else:
        lat = np.array(latencies)
        q = tail_percentile(len(lat))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cpu_s": float(lat.sum()),
            "windows_per_s": windows / float(lat.sum()),
            "latency_p50_ms": 1e3 * float(np.median(lat)),
            "latency_tail_ms": 1e3 * float(np.percentile(lat, q)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        report.update({"latency_samples": len(lat), "tail_percentile": q,
                       "timed_wall_s": timed_wall,
                       "setup_samples": setup_times})
    correct = hard == 0 and not differ and attempted == count and attempted > 0
    return {"report": report, "result": {"correct": correct, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def print_human(report: dict, metrics: dict) -> None:
    print(f"# {report['workload']}  seed {report['seed']}  "
          f"{report['attempted']}/{report['items']} {report['item']}s  "
          f"{report['windows']} decoded windows  trace={report['trace']}")
    notes = {"setup_s": f"median of {len(report.get('setup_samples', []))} set-ups",
             "latency_p50_ms": f"n={report.get('latency_samples')}",
             "latency_tail_ms": f"p{report.get('tail_percentile')}, "
                                f"n={report.get('latency_samples')}"}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']:9s} {notes.get(name, '')}")
    print(f"{'failed_frac':28s} {report['failed_frac']:>16.6g} {'ratio':9s} "
          f"{report['failed']} of {report['attempted']} {report['failed_checks']}")
    print("env " + json.dumps(report["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args)
        return 0
    out = run(args)
    print_human(out["report"], out["result"]["metrics"])
    print("report " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
