"""Numerical tolerances shared across the package."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    # hermiticity / normalization / open-interval / probability checks
    herm: float = 1e-9
    norm: float = 1e-9
    interval: float = 1e-9
    prob: float = 1e-9
    # convex-hull and LP feasibility slack
    hull: float = 1e-7
    # 3x3 systems with |det| below this are skipped during vertex enumeration
    singular: float = 1e-10
    # radius for collapsing duplicate vertices / effect vectors
    dedupe: float = 1e-7


def tolerances_from(raw: str | float, source: str) -> Tolerances:
    """Tolerances with the 1e-9 family (herm/norm/interval/prob) set to raw.

    The hull, singularity and dedupe scales keep their own defaults. A value
    that is not a finite positive number is an input error: an infinite one
    would switch every normalization, signalling and negativity check off.
    """
    try:
        base = float(raw)
    except ValueError:
        raise InputError(f"{source} is not a number: {raw!r}") from None
    if not (base > 0 and math.isfinite(base)):
        raise InputError(f"{source} must be positive and finite, got {raw!r}")
    return Tolerances(herm=base, norm=base, interval=base, prob=base)


def default_tolerances() -> Tolerances:
    """Tolerances with the GPTLAB_TOLERANCE environment override applied.

    Read at call time, not import time, so a bad value surfaces as a normal
    input error.
    """
    raw = os.environ.get("GPTLAB_TOLERANCE")
    return DEFAULT if raw is None else tolerances_from(raw, "GPTLAB_TOLERANCE")


DEFAULT = Tolerances()
