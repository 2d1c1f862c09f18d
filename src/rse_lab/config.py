"""Declarative scenario configuration (JSON) and the bundled case study."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import ConfigError, SensorSet, SystemModel, matvec_rows, suggest_delta_w
from .sim import AuthPolicy, NoiseSpec, SimTrace, run_closed_loop
from .synth import AttackPlan, sustained_attack

__all__ = ["ScenarioConfig", "load_config", "parse_config", "vtf_model",
           "vtf_scenario", "builtin_scenarios"]

SEED_ENV = "RSE_LAB_SEED"
ATTACK_KEYS = {"none": {"source"},
               "synth": {"source", "start", "period", "epsilon"},
               "file": {"source", "path"}}


@dataclass
class ScenarioConfig:
    model: SystemModel
    noise: NoiseSpec
    compromised: SensorSet
    detector: str = "II"
    attack: dict = field(default_factory=lambda: {"source": "none"})
    policy: Optional[AuthPolicy] = None
    horizon: int = 1000
    dt: float = 1.0
    controller_gain: Optional[np.ndarray] = None
    reference: Optional[dict] = None
    outputs: dict = field(default_factory=dict)
    name: str = "scenario"

    def reference_fn(self) -> Optional[Callable[[int], tuple]]:
        return make_reference(self.model, self.reference, self.dt)

    def attack_plan(self) -> Optional[AttackPlan]:
        """The scenario's attack: None, a plan read from file, or a synthesized plan."""
        src = self.attack.get("source", "none")
        if src == "none":
            return None
        if src == "file":
            with open(self.attack["path"]) as fh:
                return AttackPlan.from_csv(fh.read(), self.compromised, self.detector)
        return sustained_attack(
            self.model, self.compromised,
            detector=self.detector,
            horizon=self.horizon,
            noise=self.noise,
            policy=self.policy,
            start=self.attack.get("start"),
            epsilon=self.attack.get("epsilon"),
            period=int(self.attack.get("period", 1)),
        )

    def run(self, x0: Optional[np.ndarray] = None) -> tuple[SimTrace, Optional[AttackPlan]]:
        """Closed-loop run of the whole scenario; returns the trace and the attack plan."""
        plan = self.attack_plan()
        trace = run_closed_loop(
            self.model, self.horizon, self.noise,
            compromised=self.compromised,
            attack=None if plan is None else plan.as_callable(),
            policy=self.policy,
            controller_gain=self.controller_gain,
            reference=self.reference_fn(),
            x0=x0)
        return trace, plan


def make_reference(model: SystemModel, spec: Optional[dict], dt: float):
    """Reference factory: t -> (x_ref(t), u_ff(t)) with feedforward solved from
    the model so the reference trajectory is (approximately) invariant.  t is
    one step, or an integer array of T steps that gives (T, n) and (T, m)
    arrays with the bits of the one-step calls, as sim.run_closed_loop asks."""
    if spec is None or spec.get("kind", "none") == "none":
        return None
    kind = spec["kind"]
    if kind not in ("circle", "sine"):
        raise ConfigError(f"unknown reference kind {kind!r}")
    radius = float(spec.get("radius", 1.0))
    rate = float(spec.get("angular_rate", 0.1))
    phase = float(spec.get("phase", 0.0))
    if model.n != 2:
        raise ConfigError("the sinusoidal reference assumes a 2-state axis model")

    def x_ref(t) -> np.ndarray:
        th = rate * t * dt + phase
        return np.stack([radius * np.cos(th), -radius * rate * np.sin(th)], axis=-1)

    B_pinv = np.linalg.pinv(model.B)

    def ref(t):
        xr = x_ref(t)
        return xr, matvec_rows(B_pinv, x_ref(t + 1) - matvec_rows(model.A, xr))

    return ref


def _seed_override(seed: int) -> int:
    """RSE_LAB_SEED when set, else seed.  Applied where a scenario comes in from
    outside (config files, builtins, reproduce), never to library calls."""
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return seed


def parse_config(doc: dict, name: str = "scenario") -> ScenarioConfig:
    try:
        return _parse_config(doc, name)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing configuration key: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        # AttributeError: a section that should be an object is not, e.g. "attack": "synth"
        raise ConfigError(f"malformed configuration: {exc}") from exc


def _parse_config(doc: dict, name: str) -> ScenarioConfig:
    sysd = doc["system"]
    noised = doc.get("noise", {"kind": "zero"})
    noise = NoiseSpec(kind=noised.get("kind", "uniform_elementwise"),
                      lo=float(noised.get("lo", -0.05)), hi=float(noised.get("hi", 0.05)),
                      radius_p=float(noised.get("radius_p", 0.0)),
                      radius_m=float(noised.get("radius_m", 0.0)),
                      seed=_seed_override(int(noised.get("seed", 0))))

    A = np.array(sysd["A"], dtype=float)
    C = np.array(sysd["C"], dtype=float)
    B = np.array(sysd["B"], dtype=float) if "B" in sysd else None
    N = int(sysd["N"])
    p, n = C.shape if C.ndim == 2 else (1, C.size)
    dvp = noise.delta_vp(n)
    dvm = noise.delta_vm(p)
    delta_w = sysd.get("delta_w", "auto")
    if delta_w == "auto":
        delta_w = suggest_delta_w(A, C, N, dvp, dvm)
    model = SystemModel(A=A, B=B, C=C, delta_w=float(delta_w), N=N,
                        rank_tol=float(sysd.get("rank_tol", 1e-9)),
                        stability_margin=float(sysd.get("stability_margin", 1e-9)),
                        delta_vp=dvp if noise.kind != "zero" else None,
                        delta_vm=dvm if noise.kind != "zero" else None)

    comp = SensorSet.of(doc.get("compromised", []), model.p)

    authd = doc.get("auth")
    policy = None
    if authd:
        policy = AuthPolicy.periodic(authd["sensors"], int(authd["period"]),
                                     model.p, int(authd.get("phase", 0)))

    dt = float(doc.get("dt", 1.0))
    hord = doc.get("horizon", {"steps": 1000})
    if "steps" in hord:
        horizon = int(hord["steps"])
    elif "seconds" in hord:
        horizon = int(round(float(hord["seconds"]) / dt))
    else:
        raise ConfigError("horizon needs 'steps' or 'seconds'")

    ctrl = doc.get("controller", {})
    gain = np.array(ctrl["gain"], dtype=float) if "gain" in ctrl else None
    reference = ctrl.get("reference")

    attack = doc.get("attack", {"source": "none"})
    allowed = ATTACK_KEYS.get(attack.get("source", "none"))
    if allowed is None:
        raise ConfigError(f"unknown attack source {attack.get('source')!r}")
    unknown = sorted(set(attack) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} for attack source "
                          f"{attack.get('source', 'none')!r}; allowed: {sorted(allowed)}")
    if attack.get("source") == "file" and not os.path.exists(attack.get("path", "")):
        raise ConfigError(f"attack file not found: {attack.get('path')!r}")

    return ScenarioConfig(model=model, noise=noise, compromised=comp,
                          detector=str(doc.get("detector", "II")),
                          attack=attack, policy=policy, horizon=horizon, dt=dt,
                          controller_gain=gain, reference=reference,
                          outputs=doc.get("output", {}), name=name)


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc, name=os.path.basename(path))


# -- bundled vehicle-trajectory-following case study ---------------------------

VTF_DT = 0.01
VTF_GAIN = np.array([[500.0, 40.0]])  # places the loop poles at {.8, .75}


def vtf_model() -> SystemModel:
    """Double-integrator axis sampled at 10 ms with one position and two
    velocity sensors; elementwise U(-.05, .05) noise on both channels."""
    A = np.array([[1.0, 0.01], [0.0, 1.0]])
    B = np.array([[0.0001], [0.01]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    N = 2
    dvp = float(np.sqrt(2) * 0.05)
    dvm = float(np.sqrt(3) * 0.05)
    return SystemModel(A=A, B=B, C=C, delta_w=suggest_delta_w(A, C, N, dvp, dvm), N=N,
                       delta_vp=dvp, delta_vm=dvm)


def vtf_scenario(name: str = "vtf", *, seed: int = 0, horizon: int = 6000,
                 attack: Optional[dict] = None, auth_period: Optional[int] = None,
                 with_controller: bool = False,
                 reference: Optional[dict] = None) -> ScenarioConfig:
    model = vtf_model()
    policy = None
    if auth_period is not None:
        policy = AuthPolicy.periodic([1, 2], auth_period, model.p)
    return ScenarioConfig(
        model=model,
        noise=NoiseSpec(kind="uniform_elementwise", lo=-0.05, hi=0.05, seed=seed),
        compromised=SensorSet.all(model.p),
        attack=attack if attack is not None else {"source": "none"},
        policy=policy,
        horizon=horizon,
        dt=VTF_DT,
        controller_gain=VTF_GAIN if with_controller else None,
        reference=reference,
        name=name,
    )


def builtin_scenarios() -> dict:
    """Bundled scenario factories by name; their noise seed is 0 unless
    RSE_LAB_SEED is set."""
    def make(name, synth=True, auth_period=None):
        return lambda: vtf_scenario(name, seed=_seed_override(0), auth_period=auth_period,
                                    attack={"source": "synth"} if synth else None)
    return {
        "vtf": make("vtf", synth=False),
        "vtf-attack": make("vtf-attack"),
        "vtf-auth10": make("vtf-auth10", auth_period=10),
        "vtf-auth100": make("vtf-auth100", auth_period=100),
    }
