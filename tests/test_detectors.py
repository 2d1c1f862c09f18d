import numpy as np
import pytest

import rse_lab as r
from rse_lab.decoder import DecodeResult, DecodeStats


def fake_result(model, x_hat, support=()):
    s = r.SensorSet.of(support, model.p)
    pN = model.p * model.N
    a = np.zeros(pN)
    if support:
        a[s.block_rows(model.N)] = 1.0
    return DecodeResult(np.asarray(x_hat, dtype=float), a, np.zeros(pN), s, True,
                        DecodeStats())


def test_id1_cases(vtf):
    assert not r.id1(fake_result(vtf, [0, 0]))
    assert r.id1(fake_result(vtf, [0, 0], support=(3,)))


def test_id2_degrades_to_id1_at_start(vtf):
    v = r.id2(fake_result(vtf, [5.0, 5.0]), None, vtf)
    assert not v.id1_alarm and not v.id2_alarm
    assert v.id2_innovation == 0.0


def test_id2_innovation_jump(vtf):
    d = r.detector_threshold(vtf)
    prev = fake_result(vtf, [1.0, 0.0])
    bumped = vtf.A @ np.array([1.0, 0.0]) + 2 * d * np.array([1.0, 0.0])
    v = r.id2(fake_result(vtf, bumped), prev, vtf)
    assert v.id2_alarm and not v.id1_alarm
    assert v.id2_innovation > d
    quiet = r.id2(fake_result(vtf, vtf.A @ np.array([1.0, 0.0])), prev, vtf)
    assert not quiet.id2_alarm
    assert quiet.threshold_d == d


def test_id1_implies_id2(vtf):
    prev = fake_result(vtf, [0.0, 0.0])
    v = r.id2(fake_result(vtf, vtf.A @ np.zeros(2), support=(1,)), prev, vtf)
    assert v.id1_alarm and v.id2_alarm


def test_no_attack_innovation_within_threshold(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=123)
    tr = r.run_closed_loop(vtf, 2000, noise, compromised=r.SensorSet.all(3))
    assert tr.alarm_counts() == (0, 0)
    assert tr.innovation.max() <= r.detector_threshold(vtf)


def test_id2_known_input_compensation(vtf):
    prev = fake_result(vtf, [1.0, 2.0])
    u = np.array([200.0])  # ||B u|| ~ 2, above the threshold d ~ .79
    moved = vtf.A @ np.array([1.0, 2.0]) + vtf.B @ u
    raw = r.id2(fake_result(vtf, moved), prev, vtf)
    assert raw.id2_alarm  # without the input the jump looks like an attack
    comp = r.id2(fake_result(vtf, moved), prev, vtf, known_input=u)
    assert not comp.id2_alarm


def test_innovation_check_stacked_rows_match_single_rows(vtf):
    rng = np.random.default_rng(8)
    d = r.detector_threshold(vtf)
    X, P = rng.normal(size=(60, 2)), rng.normal(size=(60, 2))
    U = 100 * rng.normal(size=(60, 1))
    for known in (None, U):
        innov, alarm = r.innovation_check(vtf, X, P, d, known)
        assert innov.shape == alarm.shape == (60,)
        assert alarm.any() and not alarm.all()
        for k in range(60):
            one = r.innovation_check(vtf, X[k], P[k], d, None if known is None else known[k])
            assert (innov[k], alarm[k]) == one


def test_id2_output_unchanged(vtf):
    rng = np.random.default_rng(9)
    d = r.detector_threshold(vtf)
    for _ in range(40):
        x_prev, x_hat, u = rng.normal(size=2), rng.normal(size=2), 100 * rng.normal(size=1)
        v = r.id2(fake_result(vtf, x_hat), fake_result(vtf, x_prev), vtf, known_input=u)
        # the single-row formula id2 has always used
        innov = float(np.linalg.norm(x_hat - (vtf.A @ x_prev + vtf.B @ u)))
        jump = innov > d + 1e-9 * (1.0 + float(np.linalg.norm(x_hat)))
        assert type(v.id2_innovation) is float
        assert v.id2_innovation == pytest.approx(innov, rel=1e-14)
        assert (v.id1_alarm, v.id2_alarm, v.threshold_d) == (False, jump, d)


def test_detector_names_have_one_parser(vtf, stable_two_state):
    for names, canonical in ((("I", "i", "1", 1, "ID_I", "id_i"), "I"),
                             (("II", "ii", "2", 2, "ID_II", "Id_II"), "II")):
        assert {r.detector_name(name) for name in names} == {canonical}
    S1 = r.SensorSet.all(1)
    pol = r.AuthPolicy.periodic([1], 5, 1)
    # period 5 prevents PA against ID_II but not against ID_I on this plant
    for name in ("II", "2", "ID_II"):
        assert r.policy_prevents_pa(stable_two_state, S1, pol, S1, name).prevented
    for name in ("I", "1", "ID_I"):
        assert not r.policy_prevents_pa(stable_two_state, S1, pol, S1, name).prevented
    doc = {"system": {"A": [[0.3, 1], [0, 0.5]], "C": [[1, 0]], "N": 2, "delta_w": 0},
           "compromised": [1]}
    assert r.parse_config(dict(doc, detector="ID_II")).detector == "II"
    assert r.parse_config(dict(doc, detector=1)).detector == "I"
    for bad in ("III", "ID_", "", None):
        with pytest.raises(r.ConfigError, match="unknown detector"):
            r.detector_name(bad)
        with pytest.raises(r.ConfigError, match="unknown detector"):
            r.policy_prevents_pa(stable_two_state, S1, pol, S1, bad)
        with pytest.raises(r.ConfigError, match="unknown detector"):
            r.parse_config(dict(doc, detector=bad))
        with pytest.raises(r.ConfigError, match="unknown detector"):
            r.sustained_attack(vtf, r.SensorSet.all(3), detector=bad, horizon=10)
