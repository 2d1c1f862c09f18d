"""Command-line harness: analyze, simulate, attack, decode, reproduce.

Exit codes: 0 success / not attackable, 1 invalid configuration or input,
2 attackable (analyze), 3 borderline rank margins (analyze), 5 more than 1%
of the windows have an indeterminate feasibility verdict, where the decoder's
dual-weighted least-squares loop reached its round cap (simulate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attackability import analyze as analyze_model
from .attackability import policy_prevents_pa, report_to_json
from .config import (
    VTF_DT,
    ScenarioConfig,
    _seed_override,
    builtin_scenarios,
    load_config,
    vtf_scenario,
)
from .decoder import decode as decode_window
from .detectors import detector_name
from .model import MARGIN_BAND, RANK_TOL, ConfigError
from .sim import _csv_text
from .synth import NotPerfectlyAttackable


def _load_scenario(args) -> ScenarioConfig:
    if args.builtin and args.config:
        raise ConfigError("give either --config FILE or --builtin NAME, not both")
    if args.builtin:
        table = builtin_scenarios()
        if args.builtin not in table:
            raise ConfigError(f"unknown builtin scenario {args.builtin!r}; "
                              f"choose from {sorted(table)}")
        return table[args.builtin]()
    if args.config:
        return load_config(args.config)
    raise ConfigError("provide --config FILE or --builtin NAME")


def cmd_analyze(args) -> int:
    cfg = _load_scenario(args)
    report = analyze_model(cfg.model, cfg.compromised)
    if cfg.policy is not None:
        verdict = policy_prevents_pa(cfg.model, cfg.compromised, cfg.policy,
                                     cfg.policy.sensors, cfg.detector)
        report["policy"] = verdict.to_report()
    text = report_to_json(report)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    margins = [report["pa_single_step"]["margin"],
               report["pa_over_time_id1"]["margins"].get("margin_overlap", 1.0)]
    if any(m is not None and m < MARGIN_BAND * RANK_TOL for m in margins):
        return 3
    pa = report["pa_over_time_id2"]["attackable"] if detector_name(cfg.detector) == "II" \
        else report["pa_over_time_id1"]["attackable"]
    if cfg.policy is not None and report.get("policy", {}).get("prevented"):
        pa = False
    return 2 if pa else 0


def cmd_simulate(args) -> int:
    if args.batch:
        rc = 0
        for path in args.batch:
            cfg = load_config(path)
            trace, _ = cfg.run()
            out = cfg.outputs.get("trace_csv")
            if out:
                trace.write_csv(out)
            a1, a2 = trace.alarm_counts()
            print(f"{path}: max err {trace.max_error():.6g}, "
                  f"alarms {a1}/{a2}, violations {len(trace.violations)}")
            if trace.indeterminate > 0.01 * trace.horizon:
                rc = 5
        return rc
    cfg = _load_scenario(args)
    trace, _ = cfg.run()
    out = args.out or cfg.outputs.get("trace_csv")
    if out:
        trace.write_csv(out)
    a1, a2 = trace.alarm_counts()
    auth_frac = float(np.mean(trace.auth_mask != 0))
    print(f"scenario:        {cfg.name}")
    print(f"steps:           {trace.horizon}")
    print(f"max ||err||:     {trace.max_error():.6g}")
    print(f"mean ||err||:    {float(np.mean(trace.err_norm)):.6g}")
    print(f"alarms id1/id2:  {a1}/{a2}")
    print(f"auth fraction:   {auth_frac:.3f}")
    print(f"violations:      {len(trace.violations)}")
    if args.stats:
        print(f"supports tested: {trace.supports_tested}")
        print(f"oracle iters:    {trace.oracle_iterations}")
        print(f"indeterminate:   {trace.indeterminate}")
        print(f"threshold d:     {trace.threshold_d:.6g}")
    if out:
        print(f"trace csv:       {out}")
    if trace.indeterminate > 0.01 * trace.horizon:
        print("warning: decoder indeterminate rate above 1%", file=sys.stderr)
        return 5
    return 0


def cmd_attack(args) -> int:
    cfg = _load_scenario(args)
    cfg.attack.setdefault("source", "synth")
    plan = cfg.attack_plan()
    if plan is None:
        raise ConfigError("scenario has no attack to emit")
    text = plan.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"attack plan csv: {args.out} ({plan.horizon} steps, "
              f"epsilon={plan.epsilon:.6g})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_decode(args) -> int:
    cfg = _load_scenario(args)
    rows = np.loadtxt(args.window, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != cfg.model.N or rows.shape[1] != cfg.model.p + 1:
        raise ConfigError(
            f"window CSV must have N={cfg.model.N} rows and columns t,y_1..y_p")
    yw = rows[:, 1:].T.ravel()
    res = decode_window(cfg.model, yw)
    print(json.dumps({
        "x_hat": res.x_hat.tolist(),
        "support": list(res.support.indices),
        "attack_norm": res.attack_norm(),
        "supports_tested": res.stats.supports_tested,
        "oracle_iterations": res.stats.oracle_iterations,
    }, indent=2))
    return 0


def _write_series(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, columns))


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the CSV series emitted next to this script (any CSV tool works too).\"\"\"
import csv, sys
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
for path in sorted(here.glob("*.csv")):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], [[float(v) for v in r] for r in rows[1:]]
    cols = list(zip(*data))
    plt.figure()
    for name, col in zip(header[1:], cols[1:]):
        plt.plot(cols[0], col, label=name)
    plt.xlabel(header[0])
    plt.legend()
    plt.title(path.name)
    plt.savefig(path.with_suffix(".png"))
    print("plotted", path.with_suffix(".png"))
"""


def _emit_plot_script(outdir: str) -> str:
    path = os.path.join(outdir, "plot_series.py")
    with open(path, "w") as fh:
        fh.write(PLOT_SCRIPT)
    return path


def cmd_reproduce(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    fig = args.figure
    seed = _seed_override(0)
    wrote = []

    # fig2a-c are builtin scenarios; fig3 adds the controller, reference and x0
    table = builtin_scenarios()
    if fig in ("fig2a", "fig2b"):
        trace, _ = table["vtf" if fig == "fig2a" else "vtf-attack"]().run()
        path = os.path.join(args.outdir, f"{fig}.csv")
        _write_series(path, ["t_seconds", "err_norm"],
                      [trace.t * VTF_DT, trace.err_norm])
        wrote.append(path)
        print(f"{fig}: max err {trace.max_error():.6g}, alarms {trace.alarm_counts()}")
    elif fig == "fig2c":
        cols = []
        for L in (10, 100):
            trace, _ = table[f"vtf-auth{L}"]().run()
            cols.append(trace.err_norm)
            print(f"fig2c L={L}: max err {trace.max_error():.6g}, "
                  f"alarms {trace.alarm_counts()}")
        path = os.path.join(args.outdir, "fig2c.csv")
        t = np.arange(len(cols[0])) * VTF_DT
        _write_series(path, ["t_seconds", "err_norm_L10", "err_norm_L100"],
                      [t, cols[0], cols[1]])
        wrote.append(path)
    elif fig == "fig3":
        for variant, period in (("auth_L10", 10), ("no_auth", None)):
            series = {}
            for axis, phase in (("x", 0.0), ("y", -np.pi / 2)):
                cfg = vtf_scenario(
                    f"vtf-fig3-{axis}", seed=seed + (0 if axis == "x" else 1),
                    attack={"source": "synth", "start": 2000},
                    auth_period=period, with_controller=True,
                    reference={"kind": "circle", "radius": 10.0,
                               "angular_rate": 0.1, "phase": phase})
                series[axis], _ = cfg.run(x0=np.array([10.0 if axis == "x" else 0.0, 0.0]))
            t = series["x"].t * VTF_DT
            path = os.path.join(args.outdir, f"fig3_{variant}.csv")
            _write_series(
                path,
                ["t_seconds", "pos_x", "pos_y", "est_x", "est_y",
                 "ref_x", "ref_y", "err_norm"],
                [t, series["x"].x[:, 0], series["y"].x[:, 0],
                 series["x"].x_hat[:, 0], series["y"].x_hat[:, 0],
                 10.0 * np.cos(0.1 * t), 10.0 * np.sin(0.1 * t),
                 np.hypot(series["x"].err_norm, series["y"].err_norm)])
            wrote.append(path)
            print(f"fig3 {variant}: max combined err "
                  f"{float(np.max(np.hypot(series['x'].err_norm, series['y'].err_norm))):.6g}")
    else:
        raise ConfigError(f"unknown figure {fig!r}")
    wrote.append(_emit_plot_script(args.outdir))
    for path in wrote:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rse-lab",
        description="Resilient state estimation under sensor attacks: "
                    "analysis, simulation, attack synthesis.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--builtin", help="bundled scenario name (e.g. vtf)")

    p = sub.add_parser("analyze", help="attackability and policy verdicts")
    add_scenario_args(p)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="closed-loop run with trace CSV")
    add_scenario_args(p)
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--stats", action="store_true", help="print decoder statistics")
    p.add_argument("--batch", nargs="+", metavar="CONFIG",
                   help="run several scenario files, one after another")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("attack", help="emit a synthesized attack plan CSV")
    add_scenario_args(p)
    p.add_argument("--out", help="attack CSV path (stdout otherwise)")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("decode", help="decode one stacked window from CSV")
    add_scenario_args(p)
    p.add_argument("window", help="CSV with header t,y_1..y_p and N rows")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("reproduce", help="emit case-study CSV bundles")
    p.add_argument("figure", choices=["fig2a", "fig2b", "fig2c", "fig3"])
    p.add_argument("--outdir", default="reproduce_out")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, NotPerfectlyAttackable, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
