"""Decision procedures for perfect attackability and for authentication
policies that prevent it.  Every positive verdict carries a numeric witness
that is re-verified before being returned."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .detectors import detector_name
from .model import (
    SensorSet,
    SystemModel,
    _clean_record,
    _SetRecord,
    _stack_rows,
    classical_obs_stack,
    rank_margin,
)

__all__ = [
    "PaVerdict",
    "PolicyVerdict",
    "pa_single_step",
    "pa_over_time_id1",
    "pa_over_time_id2",
    "policy_prevents_pa",
    "analyze",
]

BRANCH_RANK_DEFICIENT_OVERLAP = "rank_deficient_overlap"
BRANCH_FULL_RANK_OVERLAP = "full_rank_overlap"


def _record(model: SystemModel, compromised: SensorSet) -> _SetRecord:
    """The record of the clean set, compromised's complement, with its
    witnesses found (see model._SetRecord)."""
    model.check_sensor_sets(compromised=compromised)
    return _clean_record(model, compromised.complement()).find_witnesses(model)


def pa_single_step(model: SystemModel, compromised: SensorSet):
    """Single-window attackability: true iff the clean sensors' observation
    stack loses column rank; the witness is a unit null vector z, and the
    stacked attack O (c z) keeps the decoded support empty for any c."""
    z = _record(model, compromised).z
    return z is not None, z


def _clean(v):
    """v as strict JSON: dicts entry by entry, arrays and tuples as lists, a
    complex number as [re, im] and a non-finite float as None."""
    if isinstance(v, dict):
        return {k: _clean(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return [_clean(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


@dataclass(frozen=True)
class PaVerdict:
    """Attackability decision with certificate and rank diagnostics."""

    attackable: bool
    branch: str
    witness: Optional[object] = None  # null vector | (lambda, eigvec/plane)
    notes: str = ""
    margins: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.attackable

    def to_report(self) -> dict:
        return _clean(asdict(self))


def pa_over_time_id1(model: SystemModel, compromised: SensorSet) -> PaVerdict:
    """Over-time attackability against the support-only detector.

    Rank-deficient F: equivalent to single-window attackability (the attacker
    propagates through the null space of F).  Full-rank F: additionally needs
    an unstable eigenvector inside the clean sensors' null space.
    """
    rec = _record(model, compromised)
    single = rec.z is not None
    margins = {"rank_overlap": rec.rank_F, "margin_overlap": rec.margin_F}
    if rec.rank_F < model.n:
        w = None if rec.null_F is None else rec.null_F / np.linalg.norm(rec.null_F)
        return PaVerdict(single, BRANCH_RANK_DEFICIENT_OVERLAP, w,
                         "F rank deficient: over-time iff single-step", margins)
    return PaVerdict(single and rec.head is not None, BRANCH_FULL_RANK_OVERLAP, rec.head,
                     "F full rank: needs unstable eigenvector in clean null space",
                     margins)


def pa_over_time_id2(model: SystemModel, compromised: SensorSet) -> PaVerdict:
    """Over-time attackability against the innovation-checking detector:
    single-window attackability, an unstable mode, and an unstable
    eigenvector hidden from the clean sensors, all three at once."""
    rec = _record(model, compromised)
    single, unstable, hit = rec.z is not None, rec.unstable, rec.head
    ok = single and bool(unstable) and hit is not None
    notes = []
    if not single:
        notes.append("clean sensors keep observability")
    if not unstable:
        notes.append("A is stable")
    if unstable and hit is None:
        notes.append("no unstable eigenvector in clean null space")
    return PaVerdict(ok, "id2", hit, "; ".join(notes) or "all three conditions hold",
                     {"unstable_count": len(unstable)})


@dataclass(frozen=True)
class PolicyVerdict:
    prevented: bool
    reason: str
    checks: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.prevented

    def to_report(self) -> dict:
        return _clean(asdict(self))


def policy_prevents_pa(model: SystemModel, compromised: SensorSet, policy,
                       auth_subset: SensorSet, detector: str = "II") -> PolicyVerdict:
    """Check whether authenticating auth_subset every policy.period steps
    rules out over-time perfect attacks for the given detector; the policy
    must authenticate every sensor of auth_subset (policy.sensors).

    Requires (A, P_F C) observable.  For the support-only detector: a full-rank
    F(S, N) allows any bounded period; a rank-deficient F(S, N) demands period 1.
    For the innovation detector any bounded period works.  In all cases the
    period-decimated stack [P_F C; P_F C A^T; ...] must keep full rank; the
    boundedness argument rests on inverting it, so it is checked explicitly and
    reported when observability alone would have passed.
    A compromised set that the detector's over-time analysis already clears
    is "prevented" outright, with that analysis's report under checks.
    """
    det = detector_name(detector)
    model.check_sensor_sets(compromised=compromised, auth_subset=auth_subset,
                            policy=None if policy is None else policy.sensors)
    over_time = pa_over_time_id2 if det == "II" else pa_over_time_id1
    if not (verdict := over_time(model, compromised)):
        return PolicyVerdict(True, "not perfectly attackable without authentication",
                             {over_time.__name__: verdict.to_report()})
    checks: dict = {}
    if len(auth_subset) == 0:
        return PolicyVerdict(False, "empty authentication subset", checks)
    covered = policy is not None and set(auth_subset) <= set(policy.sensors)
    checks["period"] = period = policy.period if covered else None
    if period is None:
        return PolicyVerdict(False, "policy is not periodic with a common bounded "
                                    "period on the authenticated subset", checks)
    checks["obs_F_rank"], checks["obs_F_margin"] = rank_margin(
        classical_obs_stack(model, auth_subset))
    if checks["obs_F_rank"] < model.n:
        return PolicyVerdict(False, "(A, P_F C) unobservable", checks)

    # [P_F C; P_F C A^T; ...]: the window stack of (A^T, P_F C), taken power-major
    key = _stack_rows(np.linalg.matrix_power(model.A, period),
                      model.C[list(auth_subset.indices0)], model.N)
    key = key.reshape(len(auth_subset), model.N, model.n).swapaxes(0, 1).reshape(-1, model.n)
    checks["key_rank"], checks["key_margin"] = rank_margin(key)
    key_ok = checks["key_rank"] >= model.n
    if not key_ok:
        checks["key_matrix_warning"] = (
            "observable (A, P_F C) but the period-decimated stack loses rank")

    if det == "II":
        if key_ok:
            return PolicyVerdict(True, "bounded period with observable subset "
                                       "and full-rank decimated stack", checks)
        return PolicyVerdict(False, "decimated stack rank deficient for this period", checks)

    everyone = _record(model, SensorSet.all(model.p))
    checks["rank_overlap_all"], checks["margin_overlap_all"] = everyone.rank_F, everyone.margin_F
    if everyone.rank_F >= model.n:
        if key_ok:
            return PolicyVerdict(True, "F(S,N) full rank: any bounded period works", checks)
        return PolicyVerdict(False, "decimated stack rank deficient for this period", checks)
    if period == 1 and key_ok:
        return PolicyVerdict(True, "F(S,N) rank deficient: period-1 authentication "
                                   "re-establishes the single-window block each step", checks)
    return PolicyVerdict(False, "F(S,N) rank deficient: single-injection attacks "
                                "slip between authentications unless the period is 1", checks)


def analyze(model: SystemModel, compromised: SensorSet) -> dict:
    """Bundle of the three attackability verdicts, serializable for the CLI."""
    single, z = pa_single_step(model, compromised)
    return {
        "compromised": list(compromised.indices),
        "pa_single_step": {"attackable": single, "witness": _clean(z),
                           "margin": _clean(_record(model, compromised).margin)},
        "pa_over_time_id1": pa_over_time_id1(model, compromised).to_report(),
        "pa_over_time_id2": pa_over_time_id2(model, compromised).to_report(),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
