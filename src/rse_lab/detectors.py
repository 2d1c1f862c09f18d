"""The two intrusion detectors over decoder outputs.

ID_I alarms on a nonzero estimated attack; the alarm is tied to the decoded
support being nonempty, which avoids coupling a norm threshold to the decoder
tolerances.  ID_II additionally alarms when consecutive state estimates
violate the plant dynamics beyond the attack-free innovation bound: it is
ID_I OR innovation_check, with the threshold decoder.detector_threshold, and
sim.run_closed_loop composes it (its detect stage) over a whole run.  The
first window has no predecessor, so its innovation check passes vacuously.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .decoder import DecodeResult
from .model import ConfigError, SystemModel, matvec_rows

__all__ = ["detector_name", "id1", "innovation_check"]

DETECTOR_NAMES = {"I": "I", "1": "I", "II": "II", "2": "II"}


def detector_name(name) -> str:
    """The canonical "I" or "II" of the detector names I, II, 1, 2, ID_I, ID_II (any case)."""
    canonical = DETECTOR_NAMES.get(str(name).upper().removeprefix("ID_"))
    if canonical is None:
        raise ConfigError(f"unknown detector {name!r}; use I, II, 1, 2, ID_I or ID_II")
    return canonical


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
