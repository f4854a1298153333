"""Halfspace descriptions from qubit effects and brute-force vertex enumeration in 3-D."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError
from .gpt import is_extremal
from .linalg import pauli, require_hermitian
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class LinearInequality:
    """Affine functional offset + coeffs . r on Bloch vectors, bounded below
    by 0 (sense="lower") or above by 1 (sense="upper")."""
    coeffs: tuple[float, float, float]
    offset: float
    sense: str
    label: str = ""

    def __post_init__(self):
        if self.sense not in ("lower", "upper"):
            raise InputError(f"sense must be 'lower' or 'upper', got {self.sense!r}")

    @property
    def bound(self) -> float:
        return 0.0 if self.sense == "lower" else 1.0

    def value(self, r: np.ndarray) -> float:
        return float(self.offset + np.dot(self.coeffs, r))

    def satisfied(self, r: np.ndarray, slack: float) -> bool:
        v = self.value(r)
        return v >= -slack if self.sense == "lower" else v <= 1.0 + slack

    def saturated(self, r: np.ndarray, slack: float) -> bool:
        return abs(self.value(r) - self.bound) <= slack

    def as_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "offset": self.offset,
            "sense": self.sense,
            "label": self.label,
        }


@dataclass(frozen=True, eq=False)
class VertexSet:
    vertices: np.ndarray           # (n, 3), lexicographically sorted
    saturated_counts: list[int]    # inequalities saturated by each vertex
    tolerance: float               # hull slack used during enumeration


def facets_from_effects(effects, labels: list[str] | None = None,
                        tol: Tolerances = DEFAULT) -> list[LinearInequality]:
    """Turn 2x2 Hermitian effects into 0 <= value <= 1 constraints on Bloch space.

    Each effect e decomposes as a0*id + ax*sX + ay*sY + az*sZ, so its value on
    the state with Bloch vector r is a0 + a . r. Constraints with a ~ 0 are
    trivially satisfied (unit, zero) and dropped.
    """
    out: list[LinearInequality] = []
    for idx, e in enumerate(effects):
        e = require_hermitian(e, tol, what=f"effect {idx}")
        if e.shape != (2, 2):
            raise InputError(f"effect {idx} is not 2x2")
        offset = float(np.trace(e).real) / 2.0
        coeffs = tuple(float(np.trace(e @ pauli(ax)).real) / 2.0 for ax in "XYZ")
        label = labels[idx] if labels else f"effect {idx}"
        if max(abs(c) for c in coeffs) <= tol.herm:
            if offset < -tol.interval or offset > 1.0 + tol.interval:
                raise InputError(f"constant effect {idx} sits outside [0,1]")
            continue  # constant in [0,1]: no constraint
        out.append(LinearInequality(coeffs, offset, "lower", f"{label} >= 0"))
        out.append(LinearInequality(coeffs, offset, "upper", f"{label} <= 1"))
    return out


def _feasible(r: np.ndarray, ineqs: list[LinearInequality], slack: float) -> bool:
    return all(q.satisfied(r, slack) for q in ineqs)


def enumerate_vertices(ineqs: list[LinearInequality],
                       tol: Tolerances = DEFAULT) -> VertexSet:
    """All extreme points of the polytope cut out by the inequalities.

    Solves every 3-subset of boundary planes, keeps feasible intersection
    points, deduplicates, and drops non-extremal survivors via LP.
    """
    if len(ineqs) < 3:
        raise InputError("need at least 3 inequalities to bound a 3-D polytope")
    normals = np.array([q.coeffs for q in ineqs])
    rhs = np.array([q.bound - q.offset for q in ineqs])

    points: list[np.ndarray] = []
    for i, j, k in itertools.combinations(range(len(ineqs)), 3):
        a = normals[[i, j, k]]
        if abs(np.linalg.det(a)) <= tol.singular:
            continue
        r = np.linalg.solve(a, rhs[[i, j, k]])
        if _feasible(r, ineqs, tol.hull):
            points.append(r)
    if not points:
        raise InvariantError("inequality system has no feasible triple intersections")

    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.abs(p - q).max() <= tol.dedupe for q in kept):
            kept.append(p)
    arr = np.array(kept)
    extremal = [i for i in range(len(arr))
                if is_extremal(arr[i], np.delete(arr, i, axis=0), tol)]
    arr = arr[extremal]

    # quantize the sort keys: solver noise (~1e-16) must not reorder vertices
    keys = np.round(arr, 10)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    arr = arr[order]

    counts = []
    for v in arr:
        n_sat = sum(q.saturated(v, tol.hull) for q in ineqs)
        if n_sat < 3:
            raise InvariantError(f"vertex {v} saturates only {n_sat} inequalities")
        counts.append(int(n_sat))
    return VertexSet(vertices=arr, saturated_counts=counts, tolerance=tol.hull)


def family_counts(vertices: np.ndarray, decimals: int = 8) -> list[dict]:
    """Group vertices by the sorted absolute values of their coordinates.

    Coordinate-permutation/sign families make enumeration results easy to
    compare at a glance; returns [{"pattern": "...", "count": n}, ...].
    """
    groups: dict[tuple, int] = {}
    for v in np.asarray(vertices):
        key = tuple(sorted(round(abs(float(c)), decimals) for c in v))
        groups[key] = groups.get(key, 0) + 1
    out = []
    for key in sorted(groups):
        pattern = "(" + ", ".join(format(c, ".8g") for c in key) + ")"
        out.append({"pattern": pattern, "count": groups[key]})
    return out


def slice_polygon(ineqs: list[LinearInequality], ry: float,
                  tol: Tolerances = DEFAULT) -> np.ndarray:
    """Vertices of the ry = const cross-section, counter-clockwise in the
    (rx, rz) plane starting from the lexicographically smallest vertex."""
    if not np.isfinite(ry):
        raise InputError(f"ry must be finite, got {ry!r}")
    reduced = []  # (cx, cz, offset', sense)
    for q in ineqs:
        cx, cy, cz = q.coeffs
        reduced.append((cx, cz, q.offset + cy * ry, q.sense, q.bound))

    def val(entry, p):
        cx, cz, off, _, _ = entry
        return off + cx * p[0] + cz * p[1]

    def ok(p):
        for entry in reduced:
            v = val(entry, p)
            if entry[3] == "lower" and v < -tol.hull:
                return False
            if entry[3] == "upper" and v > 1.0 + tol.hull:
                return False
        return True

    points: list[np.ndarray] = []
    for e1, e2 in itertools.combinations(reduced, 2):
        a = np.array([[e1[0], e1[1]], [e2[0], e2[1]]])
        if abs(np.linalg.det(a)) <= tol.singular:
            continue
        b = np.array([e1[4] - e1[2], e2[4] - e2[2]])
        p = np.linalg.solve(a, b)
        if ok(p):
            points.append(p)
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.abs(p - q).max() <= tol.dedupe for q in kept):
            kept.append(p)
    if not kept:
        raise InputError(f"slice at ry={ry:g} is empty")
    arr = np.array(kept)
    extremal = [i for i in range(len(arr))
                if is_extremal(arr[i], np.delete(arr, i, axis=0), tol)]
    arr = arr[extremal]
    if len(arr) == 0:
        raise InputError(f"slice at ry={ry:g} has no extreme points")

    center = arr.mean(axis=0)
    angles = np.arctan2(arr[:, 1] - center[1], arr[:, 0] - center[0])
    arr = arr[np.argsort(angles, kind="stable")]
    keys = np.round(arr, 10)
    start = int(np.lexsort((keys[:, 1], keys[:, 0]))[0])
    return np.roll(arr, -start, axis=0)


def vertex_diff(found, expected, radius: float = 1e-9) -> dict:
    """Rows of each array lacking a counterpart in the other within an
    inf-norm ball of the given radius."""
    found = np.asarray(found, dtype=float).reshape(-1, 3) if len(found) else np.zeros((0, 3))
    expected = np.asarray(expected, dtype=float).reshape(-1, 3)

    def unmatched(a, b):
        out = []
        for row in a:
            if len(b) == 0 or np.abs(b - row).max(axis=1).min() > radius:
                out.append([float(v) for v in row])
        return out

    return {"missing": unmatched(expected, found), "extra": unmatched(found, expected)}
