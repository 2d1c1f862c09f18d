"""Sweep of 415 sustained_attack calls, each compared byte for byte with the
greedy one-injection-at-a-time ramp in oracles.py.

Run from the repository root:

    PYTHONPATH=src python tests/plan_sweep.py

It prints one line per group and the total number of mismatches, and exits
with status 1 when any call differs.  A plan matches when its entries, zeta,
injection times and vectors, epsilon, offset and notes are identical; a
refusal matches when it raises the same exception with the same message.
Each group's line ends with a sha256 digest of the library's outcomes (each
plan_outcome pickled, in call order), so two library versions that plan
alike print the same digests.  pytest does not collect this file; it takes
about a minute.

The calls:
  * VTF, noise seeds 3, 11 and 21, detector II, horizon 6000: no
    authentication and authentication of sensors {1, 2} every 10 and 100
    steps at phases 0 and 3, with start None and 2000 (30); the same
    policies with period=3 (15) and with detector I and epsilon 50 (15);
  * the C2 plan and the C3 plans (L = 10 and 100 over 6000 and 18000 steps) (5);
  * the stable two-state fixture with detector I (cold start): epsilon
    None, 10, 50, 500 and 1000, start None and 5, horizons 60, 300 and 2500 (30);
  * 40 random models, each with detector I and II, without and with a
    policy, epsilon None and 50 (320).
"""

import hashlib
import os
import pickle
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rse_lab as r  # noqa: E402
from conftest import random_observable_model  # noqa: E402
from oracles import plan_outcome, sustained_attack_greedy  # noqa: E402


def vtf_noise(seed):
    return r.NoiseSpec(kind="uniform_elementwise", lo=-0.05, hi=0.05, seed=seed)


def sweep_calls():
    """(group, model, compromised, keyword arguments) of every call."""
    vtf = r.vtf_model()
    K = r.SensorSet.all(3)
    policies = [None] + [r.AuthPolicy.periodic([1, 2], L, 3, phase=ph)
                         for L in (10, 100) for ph in (0, 3)]
    for seed in (3, 11, 21):
        for pol in policies:
            base = dict(detector="II", horizon=6000, noise=vtf_noise(seed), policy=pol)
            for start in (None, 2000):
                yield "vtf", vtf, K, {**base, "start": start}
            yield "vtf_period3", vtf, K, {**base, "period": 3}
            yield "vtf_detector_I", vtf, K, {**base, "detector": "I", "epsilon": 50.0}
    yield "C2", vtf, K, dict(detector="II", horizon=6000, noise=vtf_noise(23))
    for L in (10, 100):
        for horizon in (6000, 18000):
            yield "C3", vtf, K, dict(detector="II", horizon=horizon, noise=vtf_noise(25),
                                     policy=r.AuthPolicy.periodic([1, 2], L, 3))

    stable = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                           delta_w=0.0, N=2)
    for eps in (None, 10.0, 50.0, 500.0, 1000.0):
        for start in (None, 5):
            for horizon in (60, 300, 2500):
                yield "cold_start", stable, r.SensorSet.all(1), dict(
                    detector="I", horizon=horizon, epsilon=eps, start=start,
                    noise=r.NoiseSpec(kind="zero"))

    rng = np.random.default_rng(415)
    for _ in range(40):
        m = random_observable_model(rng, noise_hw=0.02)
        K = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1), size=int(rng.integers(1, m.p + 1)),
                                      replace=False), m.p)
        auth = rng.choice(np.arange(1, m.p + 1), size=int(rng.integers(1, m.p + 1)), replace=False)
        pol = r.AuthPolicy.periodic(auth, int(rng.integers(2, 13)), m.p,
                                    phase=int(rng.integers(0, 4)))
        noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.02, hi=.02,
                            seed=int(rng.integers(2 ** 31)))
        horizon = int(rng.integers(60, 400))
        for det in ("I", "II"):
            for policy in (None, pol):
                for eps in (None, 50.0):
                    yield "random", m, K, dict(detector=det, horizon=horizon, noise=noise,
                                               policy=policy, epsilon=eps)


def main():
    t0 = time.perf_counter()
    counts, digests = {}, {}
    for group, model, K, kw in sweep_calls():
        new = plan_outcome(r.sustained_attack, model, K, **kw)
        old = plan_outcome(sustained_attack_greedy, model, K, **kw)
        calls, plans, refusals, bad = counts.get(group, (0, 0, 0, 0))
        counts[group] = (calls + 1, plans + (new[0] == "plan"),
                         refusals + (new[0] == "refused"), bad + (new != old))
        digests.setdefault(group, hashlib.sha256()).update(pickle.dumps(new, protocol=4))
    for group, (calls, plans, refusals, bad) in counts.items():
        print(f"{group:16s} {calls:4d} calls  {plans:4d} plans  {refusals:4d} refusals  "
              f"{bad} mismatches  sha256 {digests[group].hexdigest()[:16]}")
    total = sum(c[0] for c in counts.values())
    mismatches = sum(c[3] for c in counts.values())
    print(f"total: {total} calls, {mismatches} mismatches, "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
