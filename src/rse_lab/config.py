"""Declarative scenario configuration (JSON) and the bundled case study."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .detectors import detector_name
from .model import ConfigError, SensorSet, SystemModel, as_int, matvec_rows, suggest_delta_w
from .sim import AuthPolicy, NoiseSpec, SimTrace, _gain_matrix, run_closed_loop
from .synth import AttackPlan, _check_epsilon, sustained_attack

__all__ = ["ScenarioConfig", "load_config", "parse_config", "vtf_model",
           "vtf_scenario", "builtin_scenarios"]

SEED_ENV = "RSE_LAB_SEED"
ATTACK_KEYS = {"none": {"source"},
               "synth": {"source", "start", "period", "epsilon"},
               "file": {"source", "path"}}
SECTION_KEYS = {
    "top level": {"system", "noise", "compromised", "detector", "attack", "auth",
                  "horizon", "dt", "controller", "output"},
    "system": {"A", "B", "C", "N", "delta_w"},
    "noise": {"kind", "lo", "hi", "radius_p", "radius_m", "seed"},
    "auth": {"sensors", "period", "phase"},
    "horizon": {"steps", "seconds"},
    "controller": {"gain", "reference"},
    "controller.reference": {"kind", "radius", "angular_rate", "phase"},
    "output": {"trace_csv"},
}


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
                return AttackPlan.from_csv(fh.read(), self.compromised)
        return sustained_attack(
            self.model, self.compromised,
            detector=self.detector,
            horizon=self.horizon,
            noise=self.noise,
            policy=self.policy,
            start=self.attack.get("start"),
            epsilon=self.attack.get("epsilon"),
            period=self.attack.get("period", 1),
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
    if not np.isfinite([radius, rate, phase]).all():
        raise ConfigError("reference radius, angular_rate and phase must be finite")
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


def _section(section, where: str, allowed=None) -> dict:
    """The config section, refused unless it is an object with known keys only."""
    if not isinstance(section, dict):
        raise ConfigError(f"malformed configuration: {where} must be an object, "
                          f"got {section!r}")
    allowed = SECTION_KEYS[where] if allowed is None else allowed
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")
    return section


def _sensor_list(value, where: str) -> list[int]:
    """A JSON array of sensor numbers as ints; ConfigError for anything else."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array of sensor numbers, got {value!r}")
    return [as_int(i, f"{where} entry") for i in value]


def _parse_config(doc: dict, name: str) -> ScenarioConfig:
    _section(doc, "top level")
    sysd = _section(doc["system"], "system")
    noised = _section(doc.get("noise", {"kind": "zero"}), "noise")
    noise = NoiseSpec(kind=noised.get("kind", "uniform_elementwise"),
                      lo=float(noised.get("lo", -0.05)), hi=float(noised.get("hi", 0.05)),
                      radius_p=float(noised.get("radius_p", 0.0)),
                      radius_m=float(noised.get("radius_m", 0.0)),
                      seed=_seed_override(as_int(noised.get("seed", 0), "noise.seed")))

    A = np.array(sysd["A"], dtype=float)
    C = np.array(sysd["C"], dtype=float)
    B = np.array(sysd["B"], dtype=float) if "B" in sysd else None
    N = as_int(sysd["N"], "system.N")
    p, n = C.shape if C.ndim == 2 else (1, C.size)
    dvp = noise.delta_vp(n)
    dvm = noise.delta_vm(p)
    delta_w = sysd.get("delta_w", "auto")
    if delta_w == "auto":
        delta_w = suggest_delta_w(A, C, N, dvp, dvm)
    model = SystemModel(A=A, B=B, C=C, delta_w=float(delta_w), N=N,
                        delta_vp=dvp if noise.kind != "zero" else None,
                        delta_vm=dvm if noise.kind != "zero" else None)

    comp = SensorSet.of(_sensor_list(doc.get("compromised", []), "compromised"), model.p)

    authd = doc.get("auth")
    policy = None
    if authd:
        _section(authd, "auth")
        policy = AuthPolicy.periodic(_sensor_list(authd["sensors"], "auth.sensors"),
                                     authd["period"], model.p, authd.get("phase", 0))

    dt = float(doc.get("dt", 1.0))
    if not 0 < dt < np.inf:
        raise ConfigError(f"dt must be a finite number > 0, got {dt!r}")
    hord = _section(doc.get("horizon", {"steps": 1000}), "horizon")
    if "steps" in hord:
        key, horizon = "steps", as_int(hord["steps"], "horizon.steps")
    elif "seconds" in hord:
        seconds = float(hord["seconds"])
        if not np.isfinite(seconds):
            raise ConfigError(f"horizon.seconds must be finite, got {seconds!r}")
        key, horizon = "seconds", int(round(seconds / dt))
    else:
        raise ConfigError("horizon needs 'steps' or 'seconds'")
    if horizon < 1:
        raise ConfigError(f"horizon.{key} gives {horizon} steps; a run needs at least 1")

    ctrl = _section(doc.get("controller", {}), "controller")
    gain = _gain_matrix(model, ctrl["gain"]) if "gain" in ctrl else None
    reference = ctrl.get("reference")
    if reference is not None:
        _section(reference, "controller.reference")
    make_reference(model, reference, dt)  # refuses a bad reference at load time

    attack = doc.get("attack", {"source": "none"})
    source = attack.get("source", "none")
    if source not in ATTACK_KEYS:
        raise ConfigError(f"unknown attack source {source!r}")
    _section(attack, f"attack source {source!r}", ATTACK_KEYS[source])
    for key in ("start", "period"):
        if key in attack:
            as_int(attack[key], f"attack.{key}")
    _check_epsilon(attack.get("epsilon"))
    if source == "file" and not os.path.exists(attack.get("path", "")):
        raise ConfigError(f"attack file not found: {attack.get('path')!r}")

    return ScenarioConfig(model=model, noise=noise, compromised=comp,
                          detector=detector_name(doc.get("detector", "II")),
                          attack=attack, policy=policy, horizon=horizon, dt=dt,
                          controller_gain=gain, reference=reference,
                          outputs=_section(doc.get("output", {}), "output"), name=name)


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
