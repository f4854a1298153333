"""Convex-operational state/effect spaces and operational superposition witnesses.

A space is a finite list of extremal state vectors and extremal effect vectors
in a common real embedding, with a designated unit effect. Hermitian operators
embed via an orthonormal operator basis so the Euclidean dot product equals the
Hilbert-Schmidt inner product; table-valued theories embed as flattened tables
whose dot product is the elementwise multiply-sum.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantError
from .linalg import SQRT2, pauli, require_hermitian
from .tolerances import DEFAULT, Tolerances

# ======================================================================
# Hermitian embedding
# ======================================================================


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) Hermitian basis for dim in {2, 4}."""
    single = [pauli(ax) / SQRT2 for ax in "IXYZ"]
    if dim == 2:
        return single
    if dim == 4:
        return [np.kron(a, b) for a in single for b in single]
    raise InputError(f"no Hermitian basis registered for dim {dim}")


def operator_to_gpt(m: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Embed a Hermitian operator as a real vector; dot products give Tr[a b]."""
    m = require_hermitian(m, tol)
    basis = hermitian_basis(m.shape[0])
    return np.array([np.trace(b @ m).real for b in basis])


# ======================================================================
# LP helpers
# ======================================================================


def hull_distance(point: np.ndarray, points: np.ndarray) -> float:
    """Minimal infinity-norm error when writing point as a convex combination of rows."""
    from scipy.optimize import linprog  # the only scipy use; eval/optimize never load it

    points = np.asarray(points, dtype=float)
    point = np.asarray(point, dtype=float)
    if points.size == 0:
        return float("inf")  # the empty hull contains nothing
    points = np.atleast_2d(points)
    m, n = points.shape
    # variables: w_1..w_m, t;  minimize t  s.t.  |points^T w - point| <= t
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, m + 1))
    a_ub[:n, :m] = points.T
    a_ub[:n, -1] = -1.0
    a_ub[n:, :m] = -points.T
    a_ub[n:, -1] = -1.0
    b_ub = np.concatenate([point, -point])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(0, None)], method="highs")
    if not res.success:
        raise InvariantError(f"hull LP failed: {res.message}")
    return float(res.fun)


def in_hull(point: np.ndarray, points: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    return hull_distance(point, points) <= tol.hull


def is_extremal(v: np.ndarray, others: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """True when v is not a convex combination of the other vectors."""
    return not in_hull(v, others, tol)


# ======================================================================
# Spaces
# ======================================================================


@dataclass(frozen=True, eq=False)
class GptSpace:
    label: str
    ambient_dim: int
    states: np.ndarray   # (n_states, ambient_dim)
    effects: np.ndarray  # (n_effects, ambient_dim)
    unit: np.ndarray     # (ambient_dim,)

    def __post_init__(self):
        object.__setattr__(self, "states", np.atleast_2d(np.asarray(self.states, dtype=float)))
        object.__setattr__(self, "effects", np.atleast_2d(np.asarray(self.effects, dtype=float)))
        object.__setattr__(self, "unit", np.asarray(self.unit, dtype=float).reshape(-1))
        for name in ("states", "effects"):
            arr = getattr(self, name)
            if arr.shape[1] != self.ambient_dim:
                raise InputError(f"{name} have dim {arr.shape[1]}, expected {self.ambient_dim}")
        if self.unit.size != self.ambient_dim:
            raise InputError("unit effect has wrong dimension")

    def action_matrix(self) -> np.ndarray:
        """Inner products of every effect with every extremal state, (n_effects, n_states)."""
        return self.effects @ self.states.T

    def validate(self, tol: Tolerances = DEFAULT) -> None:
        """Raise InvariantError unless unit normalization, effect range,
        state distinctness and complement closure all hold.

        Closure is checked on the functionals the effects define on the
        extremal states (their action vectors): table representations can
        differ as raw vectors while acting identically on every state.
        """
        g = self.action_matrix()
        unit_action = self.states @ self.unit
        if np.abs(unit_action - 1.0).max() > tol.norm:
            raise InvariantError(f"{self.label}: unit effect is not 1 on every extremal state")
        if g.min() < -tol.interval or g.max() > 1.0 + tol.interval:
            raise InvariantError(f"{self.label}: effect action outside [0,1]")
        for i, j in itertools.combinations(range(len(self.states)), 2):
            if np.abs(self.states[i] - self.states[j]).max() <= tol.dedupe:
                raise InvariantError(f"{self.label}: states {i} and {j} coincide")
        for i in range(len(self.effects)):
            if hull_distance(1.0 - g[i], g) > tol.hull:
                raise InvariantError(
                    f"{self.label}: complement of effect {i} is not in the effect hull")


def space_to_json(space: GptSpace) -> dict:
    return {
        "label": space.label,
        "ambient_dim": space.ambient_dim,
        "states": space.states,
        "effects": space.effects,
        "unit": space.unit,
    }


def space_from_json(data: dict) -> GptSpace:
    try:
        return GptSpace(
            label=str(data["label"]),
            ambient_dim=int(data["ambient_dim"]),
            states=np.array(data["states"], dtype=float),
            effects=np.array(data["effects"], dtype=float),
            unit=np.array(data["unit"], dtype=float),
        )
    except KeyError as exc:
        raise InputError(f"space JSON is missing key {exc}") from None


# ======================================================================
# Tensor products and membership
# ======================================================================


def _dedupe(rows: list[np.ndarray], radius: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for r in rows:
        if not any(np.abs(r - k).max() <= radius for k in kept):
            kept.append(r)
    return np.array(kept)


def min_tensor(a: GptSpace, b: GptSpace, tol: Tolerances = DEFAULT) -> GptSpace:
    """Minimal tensor product: product states (extremality-filtered) and
    product effects closed under complementation."""
    prod_states = _dedupe([np.kron(s, t) for s in a.states for t in b.states], tol.dedupe)
    keep = []
    for i in range(len(prod_states)):
        others = np.delete(prod_states, i, axis=0)
        if is_extremal(prod_states[i], others, tol):
            keep.append(i)
    states = prod_states[keep]

    unit = np.kron(a.unit, b.unit)
    effects = [np.kron(e, f) for e in a.effects for f in b.effects]
    effects = list(_dedupe(effects, tol.dedupe))
    for e in list(effects):
        c = unit - e
        if not any(np.abs(c - k).max() <= tol.dedupe for k in effects):
            effects.append(c)

    return GptSpace(
        label=f"min({a.label},{b.label})",
        ambient_dim=a.ambient_dim * b.ambient_dim,
        states=states,
        effects=np.array(effects),
        unit=unit,
    )


def max_membership(vec: np.ndarray, a: GptSpace, b: GptSpace,
                   tol: Tolerances = DEFAULT) -> bool:
    """Is vec a state of the maximal tensor product of a and b?

    Requires 0 <= <e (x) f, vec> <= 1 for every pair of extremal effects and
    <unit (x) unit, vec> = 1.
    """
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.size != a.ambient_dim * b.ambient_dim:
        raise InputError("vector dimension does not match the product embedding")
    if abs(float(np.kron(a.unit, b.unit) @ vec) - 1.0) > tol.norm:
        return False
    # <e (x) f, vec> for all pairs at once: reshape vec to a matrix and sandwich it
    mat = vec.reshape(a.ambient_dim, b.ambient_dim)
    vals = a.effects @ mat @ b.effects.T
    return bool(vals.min() >= -tol.interval and vals.max() <= 1.0 + tol.interval)


# ======================================================================
# Superposition witnesses
# ======================================================================


@dataclass(frozen=True)
class SuperpositionWitness:
    space_label: str
    s: int
    r1: int
    r2: int
    e_s: int
    f_r1: int
    f_r2: int
    values: dict[str, float] = field(compare=False)

    def as_json(self) -> dict:
        return {
            "space": self.space_label,
            "states": {"s": self.s, "r1": self.r1, "r2": self.r2},
            "effects": {"e_s": self.e_s, "f_r1": self.f_r1, "f_r2": self.f_r2},
            "values": dict(self.values),
        }


def _witness_values(g: np.ndarray, s: int, r1: int, r2: int,
                    e_s: int, f_r1: int, f_r2: int) -> dict[str, float]:
    return {
        "es_s": float(g[e_s, s]),
        "es_r1": float(g[e_s, r1]),
        "es_r2": float(g[e_s, r2]),
        "fr1_r1": float(g[f_r1, r1]),
        "fr2_r2": float(g[f_r2, r2]),
        "fr1_s": float(g[f_r1, s]),
        "fr2_s": float(g[f_r2, s]),
    }


def validate_witness(space: GptSpace, w: SuperpositionWitness,
                     tol: Tolerances = DEFAULT) -> None:
    """Re-evaluate the witness conditions; raise InvariantError on failure."""
    g = space.action_matrix()
    lo, hi = tol.interval, 1.0 - tol.interval

    def one(v: float, what: str) -> None:
        if abs(v - 1.0) > tol.interval:
            raise InvariantError(f"witness condition {what} = 1 fails: {v!r}")

    def open01(v: float, what: str) -> None:
        if not (lo < v < hi):
            raise InvariantError(f"witness condition {what} in (0,1) fails: {v!r}")

    if len({w.s, w.r1, w.r2}) != 3:
        raise InvariantError("witness states are not three distinct indices")
    one(g[w.e_s, w.s], "<e_s,s>")
    open01(g[w.e_s, w.r1], "<e_s,r1>")
    open01(g[w.e_s, w.r2], "<e_s,r2>")
    one(g[w.f_r1, w.r1], "<f_r1,r1>")
    one(g[w.f_r2, w.r2], "<f_r2,r2>")
    open01(g[w.f_r1, w.s], "<f_r1,s>")
    open01(g[w.f_r2, w.s], "<f_r2,s>")


def find_superposition(space: GptSpace, require_basis: bool = False,
                       tol: Tolerances = DEFAULT) -> SuperpositionWitness | None:
    """First operational-superposition witness in deterministic index order.

    Looks for distinct extremal states s, r1, r2 and extremal effects
    e_s, f_r1, f_r2 with <e_s,s> = <f_r1,r1> = <f_r2,r2> = 1 while e_s is
    strictly between 0 and 1 on both r_j and both f's are strictly between
    0 and 1 on s. Effects acting as the unit or zero functional on every
    extremal state are excluded. With require_basis, f_r1 + f_r2 must act as
    the unit on every extremal state.
    """
    g = space.action_matrix()
    lo, hi = tol.interval, 1.0 - tol.interval
    one = np.abs(g - 1.0) <= tol.interval
    mid = (g > lo) & (g < hi)
    acts_unit = one.all(axis=1)
    acts_zero = (np.abs(g) <= tol.interval).all(axis=1)
    usable = ~(acts_unit | acts_zero)

    if not mid.any():
        return None  # every action is 0 or 1: no effect can sit strictly between

    n_states = len(space.states)
    for s in range(n_states):
        es_for_s = one[:, s] & usable
        if not es_for_s.any():
            continue
        for r1 in range(n_states):
            if r1 == s:
                continue
            f1_mask = one[:, r1] & mid[:, s] & usable
            if not f1_mask.any():
                continue
            for r2 in range(n_states):
                if r2 == s or r2 == r1:
                    continue
                es_mask = es_for_s & mid[:, r1] & mid[:, r2]
                if not es_mask.any():
                    continue
                f2_mask = one[:, r2] & mid[:, s] & usable
                if not f2_mask.any():
                    continue
                f1_idx = np.flatnonzero(f1_mask)
                f2_idx = np.flatnonzero(f2_mask)
                pair = _first_f_pair(space, g, f1_idx, f2_idx, require_basis, tol)
                if pair is None:
                    continue
                e_s = int(np.flatnonzero(es_mask)[0])
                f_r1, f_r2 = pair
                return SuperpositionWitness(
                    space_label=space.label, s=s, r1=r1, r2=r2,
                    e_s=e_s, f_r1=f_r1, f_r2=f_r2,
                    values=_witness_values(g, s, r1, r2, e_s, f_r1, f_r2),
                )
    return None


def _first_f_pair(space: GptSpace, g: np.ndarray, f1_idx: np.ndarray,
                  f2_idx: np.ndarray, require_basis: bool,
                  tol: Tolerances) -> tuple[int, int] | None:
    if not require_basis:
        return int(f1_idx[0]), int(f2_idx[0])
    for f1 in f1_idx:
        for f2 in f2_idx:
            summed = space.effects[f1] + space.effects[f2]
            if np.abs(space.states @ summed - 1.0).max() <= tol.norm:
                return int(f1), int(f2)
    return None


def _locate(vec: np.ndarray, rows: np.ndarray, radius: float, what: str) -> int:
    hits = np.flatnonzero(np.abs(rows - vec).max(axis=1) <= radius)
    if hits.size == 0:
        raise InvariantError(f"{what} not found in the product space")
    return int(hits[0])


def product_superposition_witness(a: GptSpace, b: GptSpace,
                                  witness: SuperpositionWitness,
                                  anchor_state: int, anchor_effect: int,
                                  tol: Tolerances = DEFAULT) -> SuperpositionWitness:
    """Lift a single-system witness of `a` to min_tensor(a, b).

    The anchor is an extremal state/effect pair of `b` with inner product 1;
    tensoring every witness component with the anchor preserves all the
    defining inner products, so superposition survives minimal composition.
    Returned indices refer to the state/effect lists of min_tensor(a, b).
    """
    g_b = b.action_matrix()
    if abs(g_b[anchor_effect, anchor_state] - 1.0) > tol.interval:
        raise InputError(
            f"anchor effect {anchor_effect} is not 1 on anchor state {anchor_state} "
            f"(got {g_b[anchor_effect, anchor_state]!r})")
    validate_witness(a, witness, tol)

    prod = min_tensor(a, b, tol)
    sp = b.states[anchor_state]
    ep = b.effects[anchor_effect]
    s = _locate(np.kron(a.states[witness.s], sp), prod.states, tol.dedupe, "s (x) anchor")
    r1 = _locate(np.kron(a.states[witness.r1], sp), prod.states, tol.dedupe, "r1 (x) anchor")
    r2 = _locate(np.kron(a.states[witness.r2], sp), prod.states, tol.dedupe, "r2 (x) anchor")
    e_s = _locate(np.kron(a.effects[witness.e_s], ep), prod.effects, tol.dedupe, "e_s (x) anchor")
    f_r1 = _locate(np.kron(a.effects[witness.f_r1], ep), prod.effects, tol.dedupe, "f_r1 (x) anchor")
    f_r2 = _locate(np.kron(a.effects[witness.f_r2], ep), prod.effects, tol.dedupe, "f_r2 (x) anchor")

    g = prod.action_matrix()
    lifted = SuperpositionWitness(
        space_label=prod.label, s=s, r1=r1, r2=r2, e_s=e_s, f_r1=f_r1, f_r2=f_r2,
        values=_witness_values(g, s, r1, r2, e_s, f_r1, f_r2),
    )
    validate_witness(prod, lifted, tol)
    return lifted
