"""The two intrusion detectors over decoder outputs.

ID_I alarms on a nonzero estimated attack; the alarm is tied to the decoded
support being nonempty, which avoids coupling a norm threshold to the decoder
tolerances.  ID_II additionally alarms when consecutive state estimates
violate the plant dynamics beyond the attack-free innovation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decoder import DecodeResult, detector_threshold
from .model import SystemModel, matvec_rows

__all__ = ["AlarmVerdict", "id1", "id2", "innovation_check"]


@dataclass(frozen=True)
class AlarmVerdict:
    id1_alarm: bool
    id2_alarm: bool
    id2_innovation: float
    threshold_d: float


def id1(result: DecodeResult) -> bool:
    """Alarm iff the decoder attributed the window to at least one attacked sensor."""
    return len(result.support) > 0


def innovation_check(model: SystemModel, x_hat: np.ndarray, x_prev: np.ndarray,
                     d: float, known_input: Optional[np.ndarray]):
    """Innovation ||x_hat - (A x_prev + B u)|| between consecutive window
    estimates, and whether it exceeds the threshold d.

    known_input is the control input applied between the two window anchors
    (a 1-d array of length m), or None in open loop.  The arguments may also
    be stacked rows, (W, n) estimates and (W, m) inputs; the innovations and
    alarms then come back as arrays of length W.
    """
    predicted = matvec_rows(model.A, x_prev)
    if known_input is not None:
        predicted = predicted + matvec_rows(model.B, known_input)
    innov = np.linalg.norm(x_hat - predicted, axis=-1)
    # float-dust guard: with delta_w = 0 the exact threshold is 0 and machine
    # rounding of an exact recovery must not alarm
    eps = 1e-9 * (1.0 + np.linalg.norm(x_hat, axis=-1))
    return innov, innov > d + eps


def id2(decode_t: DecodeResult, decode_prev: Optional[DecodeResult],
        model: SystemModel, known_input: Optional[np.ndarray] = None) -> AlarmVerdict:
    """Innovation check between consecutive decodes, OR-ed with the ID_I flag.

    With no previous decode (t = 0) the innovation check passes vacuously and
    the verdict degrades to ID_I.  In closed loop the control input between
    the two window anchors is known and must be compensated, mirroring the
    decoder's forced-response subtraction; pass it as known_input.
    """
    d = detector_threshold(model)
    a1 = id1(decode_t)
    if decode_prev is None:
        return AlarmVerdict(a1, a1, 0.0, d)
    if known_input is not None:
        known_input = np.atleast_1d(np.asarray(known_input, dtype=float))
    innov, jump = innovation_check(model, decode_t.x_hat, decode_prev.x_hat, d, known_input)
    return AlarmVerdict(a1, a1 or jump, float(innov), d)
