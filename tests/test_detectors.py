import numpy as np
import pytest

import rse_lab as r
from rse_lab.config import make_reference
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


def _sensor3_injection(vtf, start=0):
    """A VTF run with a constant 50 injected on sensor 3 from step start on."""
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=4)
    attack = lambda ts: np.where(ts[:, None] >= start, [0.0, 0.0, 50.0], 0.0)
    return r.run_closed_loop(vtf, 60, noise, compromised=r.SensorSet.all(3), attack=attack,
                             x0=np.array([5.0, 5.0]))


def test_id2_degrades_to_id1_at_start(vtf):
    # the first window has no predecessor: its innovation is 0 and ID_II is ID_I
    quiet = r.run_closed_loop(vtf, 60, r.NoiseSpec(kind="zero"), x0=np.array([5.0, 5.0]))
    assert quiet.innovation[0] == 0.0 and not quiet.alarm_id2[0]
    attacked = _sensor3_injection(vtf)
    assert attacked.innovation[0] == 0.0
    assert attacked.alarm_id1[0] and attacked.alarm_id2[0]


def test_id2_innovation_jump(vtf):
    d = r.detector_threshold(vtf)
    prev = np.array([1.0, 0.0])
    bumped = vtf.A @ prev + 2 * d * np.array([1.0, 0.0])
    innov, jump = r.innovation_check(vtf, bumped, prev, d, None)
    assert jump and innov > d
    innov, jump = r.innovation_check(vtf, vtf.A @ prev, prev, d, None)
    assert not jump and innov == 0.0


def test_id1_implies_id2(vtf):
    # ID_II is ID_I OR the innovation check: the decoder removes sensor 3, so
    # the innovations stay under d, yet every window that ID_I flags alarms
    tr = _sensor3_injection(vtf, start=20)
    assert tr.innovation.max() <= tr.threshold_d
    assert np.array_equal(tr.alarm_id2, tr.alarm_id1)
    assert tr.alarm_counts() == (41, 41)


def test_no_attack_innovation_within_threshold(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=123)
    tr = r.run_closed_loop(vtf, 2000, noise, compromised=r.SensorSet.all(3))
    assert tr.alarm_counts() == (0, 0)
    assert tr.innovation.max() <= r.detector_threshold(vtf)


def test_id2_known_input_compensation(vtf):
    d = r.detector_threshold(vtf)
    prev = np.array([1.0, 2.0])
    u = np.array([200.0])  # ||B u|| ~ 2, above the threshold d ~ .79
    moved = vtf.A @ prev + vtf.B @ u
    # without the input the jump looks like an attack
    assert r.innovation_check(vtf, moved, prev, d, None)[1]
    innov, jump = r.innovation_check(vtf, moved, prev, d, u)
    assert not jump and innov < 1e-12
    # in closed loop the run compensates the input it applied: starting 5 off
    # the reference, the first inputs move the state by far more than d
    ref = make_reference(vtf, {"kind": "circle", "radius": 5.0, "angular_rate": 0.2}, 0.01)
    tr = r.run_closed_loop(vtf, 300, r.NoiseSpec(kind="zero"),
                           controller_gain=np.array([[500.0, 40.0]]), reference=ref,
                           x0=np.zeros(2))
    raw, _ = r.innovation_check(vtf, tr.x_hat[1:], tr.x_hat[:-1], d, None)
    assert raw.max() > 10 * d
    assert tr.alarm_counts() == (0, 0) and tr.innovation.max() < 1e-9


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
        innov, jump = r.innovation_check(vtf, x_hat, x_prev, d, u)
        # the single-row formula of the innovation check
        expect = float(np.linalg.norm(x_hat - (vtf.A @ x_prev + vtf.B @ u)))
        assert innov == pytest.approx(expect, rel=1e-14)
        assert jump == (expect > d + 1e-9 * (1.0 + float(np.linalg.norm(x_hat))))


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
