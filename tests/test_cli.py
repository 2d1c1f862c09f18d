import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rse_lab as r
from rse_lab.cli import main


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
    import pathlib
    configs = pathlib.Path(__file__).parent.parent / "configs"
    for name in ("vtf_attack.json", "vtf_auth10.json"):
        cfg = r.load_config(str(configs / name))
        assert cfg.model.p == 3 and cfg.horizon == 6000
    assert run_cli(["analyze", "--config", str(configs / "vtf_auth10.json")]) == 0


def test_seed_env_applies_where_scenarios_come_in(tmp_path, monkeypatch, capsys):
    # the override replaces the seed of scenarios that come in from outside,
    # never the seed a library caller passes (fig3's y axis draws seed + 1)
    from rse_lab import cli
    monkeypatch.setenv("RSE_LAB_SEED", "7")
    assert r.vtf_scenario(seed=8).noise.seed == 8
    args = cli.build_parser().parse_args(["simulate", "--builtin", "vtf"])
    assert cli._load_scenario(args).noise.seed == 7
    doc = {"system": {"A": [[1, .01], [0, 1]], "C": [[1, 0], [0, 1]], "N": 2,
                      "delta_w": "auto"},
           "noise": {"kind": "uniform_elementwise", "lo": -0.05, "hi": 0.05, "seed": 0}}
    assert r.parse_config(doc).noise.seed == 7
    seeds = []
    real = cli.vtf_scenario
    monkeypatch.setattr(cli, "vtf_scenario",
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
