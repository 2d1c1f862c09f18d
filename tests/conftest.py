import numpy as np
import pytest

import rse_lab as r

ACCEPTANCE_RESULTS = {}


@pytest.fixture
def stable_two_state():
    """Two-state, one-sensor fixture: stable plant, noiseless, window 2."""
    return r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                         delta_w=0.0, N=2)


@pytest.fixture
def stable_two_state_n3():
    return r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                         delta_w=0.0, N=3)


@pytest.fixture
def vtf():
    return r.vtf_model()


@pytest.fixture
def all_sensors():
    return lambda p: r.SensorSet.all(p)


def random_observable_model(rng, n=None, p=None, N=None, unstable=None,
                            noise_hw=0.02, weighted=False):
    """Random small model with valid window observability and a delta_w that
    hard-bounds the window-effective noise of elementwise U(-hw, hw) channels."""
    n = int(rng.integers(2, 4)) if n is None else n
    p = int(rng.integers(2, 5)) if p is None else p
    N = n if N is None else N
    for _ in range(200):
        A = rng.normal(size=(n, n))
        radius = max(np.abs(np.linalg.eigvals(A)))
        if unstable is None:
            target = rng.uniform(0.5, 1.4)
        elif unstable:
            target = rng.uniform(1.05, 1.5)
        else:
            target = rng.uniform(0.4, 0.95)
        A = A * (target / radius)
        C = rng.normal(size=(p, n))
        if rng.uniform() < 0.3:
            C[rng.integers(p)] = 0.0
            C[rng.integers(p), rng.integers(n)] = 1.0
        dvp = np.sqrt(n) * noise_hw
        dvm = np.sqrt(p) * noise_hw
        dw = r.suggest_delta_w(A, C, N, dvp, dvm)
        try:
            return r.SystemModel(A=A, B=None, C=C, delta_w=dw, N=N,
                                 delta_vp=dvp if weighted else None,
                                 delta_vm=dvm if weighted else None)
        except r.ConfigError:
            continue
    raise RuntimeError("could not draw an observable model")


def single_injection_attack(model, s):
    """Single-injection attack on the two-state single-sensor fixture system.

    Emits a(0) = s and zero elsewhere; both windows containing the injection
    decode with an empty support while the estimate shifts by [0, s] and then
    [s, -.3 s].
    """
    ref_A = np.array([[0.3, 1.0], [0.0, 0.5]])
    ref_C = np.array([[1.0, 0.0]])
    if (model.p != 1 or model.n != 2 or model.N != 2 or model.delta_w != 0.0
            or not np.allclose(model.A, ref_A) or not np.allclose(model.C, ref_C)):
        raise r.NotPerfectlyAttackable(
            "single-injection construction is specific to the two-state fixture")
    entries = np.array([[0.0], [float(s)], [0.0]])
    return r.AttackPlan(entries, -1, r.SensorSet.of([1], 1), epsilon=abs(float(s)),
                        notes="single injection at t=0")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        status, detail = ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"{name}: {status}  {detail}")


def record_acceptance(name, passed, detail=""):
    ACCEPTANCE_RESULTS[name] = ("PASS" if passed else "FAIL", detail)
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} {detail}")
