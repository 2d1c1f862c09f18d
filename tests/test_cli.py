import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rse_lab as r
from rse_lab.cli import main
from rse_lab.model import MARGIN_BAND, RANK_TOL

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def run_cli(args):
    return main(args)


def test_analyze_exit_codes(tmp_path, capsys):
    assert run_cli(["analyze", "--builtin", "vtf"]) == 2
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["pa_over_time_id2"]["attackable"]
    assert run_cli(["analyze", "--builtin", "vtf-auth10"]) == 0


def test_analyze_not_pa_when_uncompromised(tmp_path, capsys):
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [],
        "horizon": {"steps": 10},
        "dt": 0.01,
    }
    cfg = tmp_path / "clean.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["analyze", "--config", str(cfg)]) == 0


def test_invalid_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["analyze", "--config", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"system": {"A": [[1]]}}))
    assert run_cli(["analyze", "--config", str(missing)]) == 1
    assert run_cli(["analyze", "--builtin", "nope"]) == 1


def test_simulate_writes_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RSE_LAB_SEED", "5")
    out = tmp_path / "trace.csv"
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "horizon": {"seconds": 3.0},
        "dt": 0.01,
    }
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 301
    assert lines[0].startswith("t,x_1,x_2,xhat_1")
    text = capsys.readouterr().out
    assert "alarms id1/id2:  0/0" in text


def test_golden_file_stability(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 9},
        "compromised": [1, 2, 3],
        "attack": {"source": "synth"},
        "detector": "II",
        "horizon": {"steps": 300},
        "dt": 0.01,
    }
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_attack_roundtrip_through_simulate(tmp_path, capsys):
    plan_csv = tmp_path / "plan.csv"
    assert run_cli(["attack", "--builtin", "vtf-attack", "--out", str(plan_csv)]) == 0
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "attack": {"source": "file", "path": str(plan_csv)},
        "horizon": {"steps": 6000},
        "dt": 0.01,
    }
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "alarms id1/id2:  0/0" in text


def test_simulate_rejects_bad_attack_period_and_epsilon(tmp_path, capsys):
    base = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "horizon": {"steps": 300},
        "dt": 0.01,
    }
    for attack, message in (({"source": "synth", "period": 0}, "period must be >= 1"),
                            ({"source": "synth", "period": -4}, "period must be >= 1"),
                            ({"source": "synth", "epsilon": -1.0}, "epsilon must be >= 0")):
        with pytest.raises(r.ConfigError, match=message):
            r.parse_config(dict(base, attack=attack)).attack_plan()
        path = tmp_path / "bad_attack.json"
        path.write_text(json.dumps(dict(base, attack=attack)))
        assert run_cli(["simulate", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err


def test_decode_subcommand(tmp_path, capsys):
    win = tmp_path / "win.csv"
    win.write_text("t,y_1,y_2,y_3\n0,0.1,0.2,0.2\n1,0.101,0.2,0.2\n")
    assert run_cli(["decode", "--builtin", "vtf", str(win)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["support"] == []
    assert abs(rep["x_hat"][0] - 0.1) < 0.01


def test_decode_subcommand_refuses_nan_window(tmp_path, capsys):
    # it printed support [] and x_hat [NaN, NaN], which is not JSON, and exited 0
    win = tmp_path / "win.csv"
    win.write_text("t,y_1,y_2,y_3\n0,nan,0.2,0.2\n1,0.101,0.2,0.2\n")
    assert run_cli(["decode", "--builtin", "vtf", str(win)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN or infinite" in captured.err


def test_reproduce_fig2a(tmp_path, capsys):
    assert run_cli(["reproduce", "fig2a", "--outdir", str(tmp_path)]) == 0
    body = (tmp_path / "fig2a.csv").read_text().strip().split("\n")
    assert body[0] == "t_seconds,err_norm"
    assert len(body) == 6001
    errs = np.array([float(x.split(",")[1]) for x in body[1:]])
    assert errs.max() <= 0.0789 * 1.01 + 0.001  # seed-0 realized curve, sanity only


def test_reproduce_fig2c_ordering(tmp_path, capsys):
    assert run_cli(["reproduce", "fig2c", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "fig2c.csv", delimiter=",", skiprows=1)
    l10, l100 = rows[:, 1], rows[:, 2]
    assert l10.max() < l100.max()


def test_analyze_borderline_margin_exit_3(tmp_path):
    # clean sensor barely coupled to the second state: the rank decision for
    # O_clean sits inside the 10x tolerance band
    doc = {
        "system": {"A": [[2.0, 0.0], [0.0, 0.5]],
                   "C": [[1.0, 2e-9], [0.0, 1.0]], "N": 2, "delta_w": 0.0},
        "noise": {"kind": "zero"},
        "compromised": [2],
        "horizon": {"steps": 10},
    }
    cfg = tmp_path / "borderline.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["analyze", "--config", str(cfg)]) == 3


def test_analyze_exact_rank_deficiency_is_not_borderline(tmp_path, capsys):
    # only the position sensor is attacked: the velocity rows cannot see
    # position, so the clean stack loses rank exactly, at a zero singular
    # value, and the verdict "attackable" (exit 2) stands; it was reported as
    # borderline (exit 3) with margin 1e-9
    doc = json.loads((CONFIGS / "vtf_attack.json").read_text())
    cfg = tmp_path / "position_only.json"
    cfg.write_text(json.dumps(dict(doc, compromised=[1])))
    assert run_cli(["analyze", "--config", str(cfg)]) == 2
    single = json.loads(capsys.readouterr().out)["pa_single_step"]
    assert single["attackable"] and single["margin"] > MARGIN_BAND * RANK_TOL


@pytest.mark.parametrize("angle", [0.0, 0.6])
def test_analyze_rotated_double_integrator_is_attackable(tmp_path, capsys, angle):
    # x = [position, velocity] with dt = 1, one position and two velocity
    # sensors, the position sensor compromised: the unstable mode e1 hides
    # from the velocity sensors in any state coordinates.  Rotated by 0.6 rad,
    # the eigenvector of the defective eigenvalue 1 is computed off by ~1e-8
    # and the verdict read "no unstable eigenvector in clean null space" (exit 0)
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    A = Q @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ Q.T
    C = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]) @ Q.T
    doc = {"system": {"A": A.tolist(), "C": C.tolist(), "N": 2, "delta_w": 0.1},
           "noise": {"kind": "zero"}, "compromised": [1], "horizon": {"steps": 10}}
    cfg = tmp_path / "double_integrator.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["analyze", "--config", str(cfg)]) == 2
    id2 = json.loads(capsys.readouterr().out)["pa_over_time_id2"]
    assert id2["attackable"] and id2["notes"] == "all three conditions hold"
    lam, v = id2["witness"]
    assert lam == pytest.approx(1.0) and np.allclose(v, Q[:, 0], atol=1e-9)


def test_analyze_report_is_strict_json(tmp_path, capsys):
    # an authenticated sensor whose C row is zero leaves (A, P_F C) without a
    # singular value near the threshold, so its rank margin is infinite; the
    # policy report printed it as Infinity, which strict JSON parsers refuse
    doc = json.loads((CONFIGS / "vtf_auth10.json").read_text())
    doc["system"]["C"][2] = [0.0, 0.0]
    doc["auth"] = {"sensors": [3], "period": 10}
    cfg = tmp_path / "blind_auth.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["analyze", "--config", str(cfg)]) == 2

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    policy = json.loads(capsys.readouterr().out, parse_constant=refuse)["policy"]
    assert policy["reason"] == "(A, P_F C) unobservable"
    assert policy["checks"]["obs_F_rank"] == 0 and policy["checks"]["obs_F_margin"] is None


def test_config_and_builtin_together_exit_1(capsys):
    # one scenario per call: --builtin used to win silently over --config
    assert run_cli(["analyze", "--config", str(CONFIGS / "vtf_auth10.json"),
                    "--builtin", "vtf"]) == 1
    assert "not both" in capsys.readouterr().err


def test_reproduce_fig2b_growth(tmp_path):
    assert run_cli(["reproduce", "fig2b", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "fig2b.csv", delimiter=",", skiprows=1)
    err = rows[:, 1]
    assert err.max() > 100 * 0.0789
    # crossing order: 10x strictly before 100x, within the 60 s run
    t10 = np.flatnonzero(err > 10 * 0.0789)[0]
    t100 = np.flatnonzero(err > 100 * 0.0789)[0]
    assert t10 <= t100 < len(err)


def test_policy_scenarios_bounded_factor(tmp_path, capsys):
    # analyze says the policies prevent unbounded attacks; the simulated max
    # error then stays within a recorded factor of the attack-free bound
    factors = {"vtf-auth10": 4.0, "vtf-auth100": 12.0}
    for name, factor in factors.items():
        assert run_cli(["analyze", "--builtin", name]) == 0
        capsys.readouterr()
        assert run_cli(["simulate", "--builtin", name]) == 0
        out = capsys.readouterr().out
        mx = float([l for l in out.splitlines() if "max ||err||" in l][0].split()[-1])
        assert mx <= factor * 0.0789, (name, mx)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_simulate_noise_above_delta_w_exit_1(tmp_path, flags):
    # U(+-.05) noise on both channels puts the window slots far above 0.01
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": 0.01},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "horizon": {"steps": 200},
        "dt": 0.01,
    }
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RSE_LAB_SEED", None)
    proc = subprocess.run([sys.executable, *flags, "-m", "rse_lab", "simulate",
                           "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "declared delta_w = 0.01," in proc.stderr
    realized = float(proc.stderr.split("window-noise norm = ")[1])
    assert 0.05 < realized <= 0.05 * (np.sqrt(3) + np.sqrt(2) * np.sqrt(2))


def test_simulate_batch(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        doc = {
            "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                       "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
            "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05,
                      "seed": seed},
            "compromised": [1, 2, 3],
            "horizon": {"steps": 200},
            "dt": 0.01,
        }
        pth = tmp_path / f"b{seed}.json"
        pth.write_text(json.dumps(doc))
        paths.append(str(pth))
    assert run_cli(["simulate", "--batch", *paths]) == 0
    out = capsys.readouterr().out
    assert all(p in out for p in paths)


def test_bundled_config_files_load():
    for name in ("vtf_attack.json", "vtf_auth10.json"):
        cfg = r.load_config(str(CONFIGS / name))
        assert cfg.model.p == 3 and cfg.horizon == 6000
    assert run_cli(["analyze", "--config", str(CONFIGS / "vtf_auth10.json")]) == 0


def test_seed_env_applies_where_scenarios_come_in(tmp_path, monkeypatch, capsys):
    # the override replaces the seed of scenarios that come in from outside,
    # never the seed a library caller passes (fig3's y axis draws seed + 1)
    from rse_lab import cli, config
    monkeypatch.setenv("RSE_LAB_SEED", "7")
    assert r.vtf_scenario(seed=8).noise.seed == 8
    args = cli.build_parser().parse_args(["simulate", "--builtin", "vtf"])
    assert cli._load_scenario(args).noise.seed == 7
    doc = {"system": {"A": [[1, .01], [0, 1]], "C": [[1, 0], [0, 1]], "N": 2,
                      "delta_w": "auto"},
           "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0}}
    assert r.parse_config(doc).noise.seed == 7
    # reproduce's fig2a is the builtin vtf scenario, which config.vtf_scenario makes
    seeds = []
    real = config.vtf_scenario
    monkeypatch.setattr(config, "vtf_scenario",
                        lambda *a, **kw: seeds.append(kw["seed"]) or real(*a, **kw))
    assert run_cli(["reproduce", "fig2a", "--outdir", str(tmp_path)]) == 0
    assert seeds == [7]


def test_parse_config_rejects_unknown_attack_keys(tmp_path, capsys):
    base = {"system": {"A": [[1, .01], [0, 1]], "C": [[1, 0], [0, 1], [0, 1]], "N": 2,
                       "delta_w": "auto"},
            "compromised": [1, 2, 3], "horizon": {"steps": 10}}
    for attack in ({"source": "synth", "safety": 0.3}, {"source": "synth", "alpha_gain": 1.0},
                   {"source": "synth", "strat": 5}, {"start": 5},
                   {"source": "file", "path": "plan.csv", "period": 2}):
        with pytest.raises(r.ConfigError, match="unknown keys"):
            r.parse_config(dict(base, attack=attack))
    cfg = r.parse_config(dict(base, attack={"source": "synth", "start": 5, "period": 2,
                                            "epsilon": 1.0}))
    assert cfg.attack["start"] == 5
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(dict(base, attack={"source": "synth", "safety": 0.3})))
    assert run_cli(["attack", "--config", str(path)]) == 1
    assert "'safety'" in capsys.readouterr().err
    # an attack section that is not an object is malformed, not a traceback
    with pytest.raises(r.ConfigError, match="malformed"):
        r.parse_config(dict(base, attack="synth"))


def _full_doc():
    """A config that sets every section the parser reads."""
    return {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "detector": "II",
        "attack": {"source": "synth", "start": 100, "period": 2},
        "auth": {"sensors": [1, 2], "period": 10, "phase": 0},
        "horizon": {"steps": 150},
        "dt": 0.01,
        "controller": {"gain": [[500.0, 40.0]],
                       "reference": {"kind": "circle", "radius": 10.0,
                                     "angular_rate": 0.1, "phase": 0.0}},
        "output": {},
    }


def _set(doc, path, value):
    *outer, key = path.split(".")
    for part in outer:
        doc = doc[part]
    doc[key] = value


@pytest.mark.parametrize("path", ["horizn", "system.rank_tol", "system.stability_margin",
                                  "system.delta_W", "noise.sed", "auth.phse",
                                  "horizon.step", "controller.gian",
                                  "controller.reference.radiuss", "output.trace"])
def test_config_refuses_unknown_keys(tmp_path, capsys, path):
    assert r.parse_config(_full_doc()).horizon == 150
    doc = _full_doc()
    _set(doc, path, 1)
    key = path.split(".")[-1]
    with pytest.raises(r.ConfigError, match=f"unknown keys \\['{key}'\\]"):
        r.parse_config(doc)
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["analyze", "--config", str(cfg)]) == 1
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("path,value,message", [
    ("system.N", 2.9, "N must be an integer"),
    ("horizon.steps", 150.8, "steps must be an integer"),
    ("auth.period", 10.9, "period must be an integer"),
    ("auth.phase", 0.5, "phase must be an integer"),
    ("attack.start", 100.5, "start must be an integer"),
    ("attack.period", 2.5, "period must be an integer"),
    ("noise.seed", 1.5, "seed must be an integer"),
    ("system.delta_w", float("nan"), "delta_w must be finite"),
    ("system.delta_w", float("inf"), "delta_w must be finite"),
    ("system.A", [[1, .01], [0, float("nan")]], "A has non-finite"),
    ("system.N", True, "system.N must be an integer, got True"),
    ("compromised", [True, 2], "compromised entry must be an integer, got True"),
    ("horizon.steps", True, "horizon.steps must be an integer, got True"),
    ("auth.period", False, "authentication period must be an integer, got False"),
])
def test_config_refuses_fractional_and_non_finite_values(tmp_path, capsys, path, value,
                                                         message):
    # the parent truncated the fractions (N 2.9 ran with N = 2), ran a NaN
    # delta_w with every residual inside Omega and read JSON true as 1 (N = 1:
    # analyze exit 2; compromised [true, 2]: sensors {1, 2}, exit 3)
    doc = _full_doc()
    _set(doc, path, value)
    with pytest.raises(r.ConfigError, match=message):
        r.parse_config(doc)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    for command in ("simulate", "analyze"):
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
    if isinstance(value, float) and np.isfinite(value):
        _set(doc, path, 2.0)
        r.parse_config(doc)  # an integral float passes


NOISE_FINITE = "noise lo, hi, radius_p and radius_m must be finite"
GAIN = "controller gain must be a finite 1x2 matrix"
EPSILON = "attack epsilon must be >= 0 and a finite number"
REFERENCE_FINITE = "reference radius, angular_rate and phase must be finite"


@pytest.mark.parametrize("changes,message", [
    ({"dt": 0, "horizon": {"seconds": 1.5}}, "dt must be a finite number > 0"),
    ({"dt": -0.01}, "dt must be a finite number > 0"),
    ({"dt": float("nan")}, "dt must be a finite number > 0"),
    ({"horizon": {"seconds": float("inf")}}, "horizon.seconds must be finite"),
    ({"system.delta_w": 0.2, "noise.lo": float("nan")}, NOISE_FINITE),
    ({"system.delta_w": 0.2, "noise.hi": float("inf")}, NOISE_FINITE),
    ({"system.delta_w": 0.2, "noise": {"kind": "ball", "radius_m": float("nan")}},
     NOISE_FINITE),
    ({"system.delta_w": 0.2, "noise": {"kind": "ball", "radius_p": -0.1}},
     "noise radii must be >= 0"),
    ({"controller.reference.radius": float("nan")}, REFERENCE_FINITE),
    ({"controller.reference.angular_rate": float("inf")}, REFERENCE_FINITE),
    ({"controller.reference.phase": float("-inf")}, REFERENCE_FINITE),
    ({"controller.reference.kind": "spiral"}, "unknown reference kind 'spiral'"),
    ({"compromised": [1.5]}, "compromised entry must be an integer"),
    ({"compromised": "12"}, "compromised must be an array"),
    ({"auth.sensors": "12"}, "auth.sensors must be an array"),
    ({"auth.sensors": [1, "2"]}, "auth.sensors entry must be an integer"),
    ({"detector": "foo"}, "unknown detector 'foo'"),
    ({"controller.gain": [[500.0, float("nan")]]}, GAIN),
    ({"controller.gain": [[500.0, 40.0, 1.0]]}, GAIN),
    ({"controller.gain": [[500.0], [40.0]]}, GAIN),
    ({"attack.epsilon": "big"}, f"{EPSILON}, got 'big'"),
    ({"attack.epsilon": float("inf")}, f"{EPSILON}, got inf"),
    ({"attack.epsilon": float("nan")}, f"{EPSILON}, got nan"),
    ({"attack.epsilon": [1.0]}, f"{EPSILON}, got [1.0]"),
    ({"noise.seed": -1}, "noise seed must be >= 0, got -1"),
    ({"horizon": {"steps": 0}}, "horizon.steps gives 0 steps; a run needs at least 1"),
    ({"horizon": {"steps": -5}}, "horizon.steps gives -5 steps; a run needs at least 1"),
    ({"horizon": {"seconds": 0.001}}, "horizon.seconds gives 0 steps; a run needs at least 1"),
    ({"horizon": {"seconds": -3.0}}, "horizon.seconds gives -300 steps; a run needs at least 1"),
], ids=["dt_zero_seconds", "dt_negative", "dt_nan", "seconds_inf", "noise_lo_nan",
        "noise_hi_inf", "noise_radius_nan", "noise_radius_negative", "reference_radius_nan",
        "reference_rate_inf", "reference_phase_inf", "reference_kind_unknown",
        "compromised_fraction",
        "compromised_string", "auth_sensors_string", "auth_sensors_string_entry",
        "detector_unknown", "gain_nan", "gain_wide", "gain_tall", "epsilon_string",
        "epsilon_inf", "epsilon_nan", "epsilon_list", "seed_negative", "steps_zero",
        "steps_negative", "seconds_under_one_step", "seconds_negative"])
def test_config_refuses_bad_numbers_and_sensor_lists(tmp_path, capsys, changes, message):
    # the parent ran these (a fractional sensor as its integer part, "12" as
    # sensors 1 and 2, a NaN dt with a horizon in steps) or ended in a
    # ZeroDivisionError or OverflowError traceback; it checked the reference
    # only when a scenario ran, so analyze, which runs none, exited 2; it
    # checked the gain, epsilon and seed only when a run used them (analyze
    # exited 0, attack ran the gains and ended in numpy errors on the rest);
    # it loaded a horizon under one step, analyze exited 2 and simulate and
    # attack blamed the attack start
    doc = _full_doc()
    for path, value in changes.items():
        _set(doc, path, value)
    with pytest.raises(r.ConfigError, match=re.escape(message)):
        r.parse_config(doc)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    for command in ("simulate", "analyze", "attack"):
        assert run_cli([command, "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err


def test_analyze_reads_every_detector_name(tmp_path, capsys):
    # the stable two-state plant: attackable for ID_I, not for ID_II; analyze
    # read only "II" as ID_II and every other name, "2" among them, as ID_I
    doc = {"system": {"A": [[0.3, 1], [0, 0.5]], "C": [[1, 0]], "N": 2, "delta_w": 0},
           "compromised": [1]}
    cfg = tmp_path / "two_state.json"
    codes = {}
    for detector in ("II", "2", "ID_II", "id_ii", 2, "I", "1", "ID_I", "foo"):
        cfg.write_text(json.dumps(dict(doc, detector=detector)))
        codes[detector] = run_cli(["analyze", "--config", str(cfg)])
    assert codes == {"II": 0, "2": 0, "ID_II": 0, "id_ii": 0, 2: 0,
                     "I": 2, "1": 2, "ID_I": 2, "foo": 1}
    assert "unknown detector 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    # a short row was broadcast to every sensor: 5,3.0 read as [3, 3, 3]
    ("4,0,0,0\n5,3.0\n", "line 3 has 2 fields, the header 4"),
    ("4,0,0,0\n5,1,2,3,4\n", "line 3 has 5 fields, the header 4"),
    # a repeated time kept its last row without notice
    ("4,0,0,0\n5,1,1,1\n5,2,2,2\n", "line 4 repeats the time t=5"),
    # a fractional time or a word ended in a bare int() ValueError
    ("4,0,0,0\n5.5,1,1,1\n", "line 3: need an integer time"),
    ("4,0,0,0\n5,1,x,1\n", "line 3: need an integer time and numbers"),
])
def test_attack_csv_refuses_malformed_rows(tmp_path, capsys, rows, message):
    K = r.SensorSet.all(3)
    text = "t,a_1,a_2,a_3\n" + rows
    with pytest.raises(r.ConfigError, match=f"attack CSV {message}"):
        r.AttackPlan.from_csv(text, K)
    plan_csv = tmp_path / "plan.csv"
    plan_csv.write_text(text)
    doc = {
        "system": {"A": [[1, .01], [0, 1]], "B": [[.0001], [.01]],
                   "C": [[1, 0], [0, 1], [0, 1]], "N": 2, "delta_w": "auto"},
        "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0},
        "compromised": [1, 2, 3],
        "attack": {"source": "file", "path": str(plan_csv)},
        "horizon": {"steps": 50},
        "dt": 0.01,
    }
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(cfg)]) == 1
    assert f"attack CSV {message}" in capsys.readouterr().err
    # blank lines are still skipped, and a well-formed file still reads
    plan = r.AttackPlan.from_csv("t,a_1,a_2,a_3\n\n4,0,0,0\n\n6,1,2,3\n", K)
    assert plan.offset == 4 and plan.entries.tolist() == [[0, 0, 0], [0, 0, 0], [1, 2, 3]]
