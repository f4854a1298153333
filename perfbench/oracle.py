"""Reference computations for the benchmark's output checks.

Nothing here imports gptlab. Every expected value is recomputed from a
definition (the switch formula, the inequality terms, halfspace vertices,
witness conditions) or taken from a closed form of the paper, so a check
cannot pass merely because the program agrees with itself.
"""
from __future__ import annotations

import itertools

import numpy as np

SQRT2 = np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
SIGMA = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PROB_TOL = 1e-9
VERTEX_TOL = 1e-7

# "A+B" is (sigma_A + sigma_B)/sqrt2: unit Bloch directions of the named observables
AXIS = {"X": np.array([1.0, 0, 0]), "Y": np.array([0, 1.0, 0]), "Z": np.array([0, 0, 1.0])}
DIRECTIONS = {name: AXIS[name] for name in "XYZ"}
for _a, _b in (("X", "Z"), ("X", "Y")):
    DIRECTIONS[f"{_a}+{_b}"] = (AXIS[_a] + AXIS[_b]) / SQRT2
    DIRECTIONS[f"{_a}-{_b}"] = (AXIS[_a] - AXIS[_b]) / SQRT2
HEX_FAMILIES = ("X+Z", "X-Z", "X+Y", "X-Y", "Z")
SQUARE_FAMILIES = ("X", "Y", "Z")

# The paper's closed forms: headline totals of the four presets and the
# largest game term on the hexsquare-V.B grid for inequality 2.
HEADLINE_TOTALS = {
    ("quantum-II.B", 1): 1.0 + (2.0 + SQRT2) / 4.0,
    ("hexsquare-V.A", 1): (14.0 + SQRT2) / 8.0,
    ("hexsquare-V.B", 2): (28.0 + SQRT2) / 16.0,
    ("hexsquare-V.C", 5): 2.0,
}
VB_GAME_TERM_MAX = (12.0 + SQRT2) / 16.0
DEFINITE_ORDER_BOUND = 7.0 / 4.0


class CheckError(Exception):
    """An output disagrees with its reference."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(a, b, tol: float, what: str) -> None:
    diff = float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
    require(diff <= tol, f"{what}: off by {diff:.3g} (tolerance {tol:g})")


# ======================================================================
# Switch tables from the definition
# ======================================================================


def _kets(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def _proj(k: np.ndarray) -> np.ndarray:
    return np.outer(k, k.conj())


def effect(direction, outcome_plus: bool) -> np.ndarray:
    """The projector (1 +- n.sigma)/2 onto one eigenspace of n.sigma."""
    n_sigma = sum(c * SIGMA[a] for c, a in zip(direction, "XYZ"))
    return (I2 + (n_sigma if outcome_plus else -n_sigma)) / 2.0


def collapsed(doc: dict) -> np.ndarray:
    """W rho W^dagger on C (x) B (x) T for each (x1, x2, a1, a2), shape (16, 8, 8).

    Lab A_i with input x and outcome a acts as |p_x><m_a|. Control ket 0 runs
    A1 before A2, control ket 1 runs A2 before A1; lab B's factor idles.
    """
    ctrl = [_proj(_kets(k)) for k in doc["control_basis"]]
    shared = np.array([[complex(re, im) for re, im in row] for row in doc["shared_state"]])
    rho = np.kron(shared, _proj(_kets(doc["target_init"])))
    labs = []
    for key in ("lab_a1", "lab_a2"):
        m = [_kets(k) for k in doc[key]["measure"]]
        p = [_kets(k) for k in doc[key]["prepare"]]
        labs.append(np.array([[np.outer(p[x], m[a].conj()) for a in (0, 1)] for x in (0, 1)]))
    # stacks over (x1, x2, a1, a2); np.kron of a matrix with a stack of
    # matrices is the stack of their Kronecker products
    k1 = np.broadcast_to(labs[0][:, None, :, None], (2,) * 6).reshape(16, 2, 2)
    k2 = np.broadcast_to(labs[1][None, :, None, :], (2,) * 6).reshape(16, 2, 2)
    w = np.kron(ctrl[0], np.kron(I2, k2 @ k1)) + np.kron(ctrl[1], np.kron(I2, k1 @ k2))
    return w @ rho @ w.conj().transpose(0, 2, 1)


def doc_effects(doc: dict, key: str) -> np.ndarray:
    """Projective effects [setting, outcome] of lab C or lab B as written in the document."""
    return np.array([[_proj(_kets(k)) for k in setting] for setting in doc[key]["settings"]])


def wiring(doc: dict) -> np.ndarray | None:
    pp = doc.get("post_process")
    return None if pp is None else np.array(pp["c_out"]).reshape((2,) * 8)


def table(coll: np.ndarray, eff_c: np.ndarray, eff_b: np.ndarray,
          wired: np.ndarray | None) -> np.ndarray:
    """p(a1, a2, b, c | x1, x2, y, z) = Tr[(E_c|z (x) F_b|y (x) 1) W rho W^dagger],
    indexed (x1, x2, y, z, a1, a2, b, c), with the output wiring applied."""
    # [z, c, y, b]: E_c|z (x) F_b|y (x) 1
    ops = np.kron(np.kron(eff_c[:, :, None, None], eff_b[None, None]), I2)
    vals = np.einsum("zcybij,kji->kzcyb", ops, coll).real.reshape((2,) * 8)
    # axes now (x1, x2, a1, a2, z, c, y, b)
    raw = vals.transpose(0, 1, 6, 4, 2, 3, 7, 5)
    if wired is None:
        return raw
    out = np.zeros_like(raw)
    for c in (0, 1):
        out[..., c] = np.where(wired == c, raw, 0.0).sum(axis=-1)
    return out


def switch_table(doc: dict) -> np.ndarray:
    return table(collapsed(doc), doc_effects(doc, "lab_c"), doc_effects(doc, "lab_b"),
                 wiring(doc))


# ======================================================================
# Inequalities from their definitions
# ======================================================================

_X1, _X2, _Y, _Z, _A1, _A2, _B, _C = np.indices((2,) * 8)


def _terms() -> dict[int, list[tuple[float, np.ndarray, np.ndarray]]]:
    """(coefficient, condition on the inputs, event) for every term, in the
    order the inequalities list them. Each term is a probability averaged
    uniformly over the input tuples its condition admits."""
    b0_a2 = (1.0, _Y == 0, (_B == 0) & (_A2 == _X1))
    b1_a1 = (1.0, _Y == 0, (_B == 1) & (_A1 == _X2))
    b0_a2_x2 = (1.0, (_X2 == 0) & (_Y == 0), (_B == 0) & (_A2 == _X1))
    b1_a1_x1 = (1.0, (_X1 == 0) & (_Y == 0), (_B == 1) & (_A1 == _X2))
    game_yz = (1.0, (_X1 == 0) & (_X2 == 0), (_B ^ _C) == (_Y & _Z))
    game_x2y = (1.0, _X1 == 0, (_B ^ _C) == (_X2 & _Y))
    extra4 = (1.0, (_X1 == 0) & (_X2 == 0), (_A2 == 1) & ((_C ^ 1) == _B) & (_B == _Y))
    game5 = (1.0, _X1 == _X2, (np.where(_X2 == 1, _A1, _C) ^ _B) == (_X2 & _Y))
    return {
        1: [b0_a2, b1_a1, game_yz],
        2: [b0_a2, b1_a1, game_x2y],
        3: [b0_a2_x2, b1_a1_x1, game_x2y],
        4: [b0_a2_x2, b1_a1_x1, game_x2y, extra4],
        5: [(0.5, (_X1 == 1) & (_X2 == 0), _A1 == 0),
            (0.5, (_X1 == 0) & (_X2 == 1), _A2 == 0),
            (-0.5, (_X1 == 1) & (_X2 == 1), (_A1 == 0) & (_A2 == 0)),
            game5],
    }


TERMS = _terms()
GAME_TERM = {1: 2, 2: 2, 3: 2, 4: 2, 5: 3}
# one weight tensor per term: condition & event over the number of admitted input
# tuples (each admitted tuple fills 16 outcome cells of the condition mask)
TERM_WEIGHTS = {
    iid: np.array([(cond & event) * 16.0 / cond.sum() for _, cond, event in terms])
    for iid, terms in TERMS.items()
}
COEFFS = {iid: np.array([coef for coef, _, _ in terms]) for iid, terms in TERMS.items()}


def term_probabilities(tables: np.ndarray, iid: int) -> np.ndarray:
    """Term probabilities for one table (..., 2,2,2,2,2,2,2,2) -> (..., n_terms)."""
    return np.tensordot(tables, TERM_WEIGHTS[iid], axes=(list(range(-8, 0)),
                                                         list(range(1, 9))))


def check_table(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(np.shape(got) == (2,) * 8, f"{what}: table shape {np.shape(got)}")
    close(got, want, PROB_TOL, f"{what}: table")


def check_report(report: dict, want_table: np.ndarray, iid: int, what: str) -> None:
    """A serialised inequality report against the terms recomputed from the table."""
    probs = term_probabilities(want_table, iid)
    require(report["inequality_id"] == iid, f"{what}: inequality id {report['inequality_id']}")
    got = [t["probability"] for t in report["terms"]]
    require(len(got) == len(probs), f"{what}: {len(got)} terms, want {len(probs)}")
    close(got, probs, PROB_TOL, f"{what}: inequality {iid} term probabilities")
    close([t["coefficient"] for t in report["terms"]], COEFFS[iid], 0.0,
          f"{what}: inequality {iid} coefficients")
    total = float(probs @ COEFFS[iid])
    close(report["total"], total, PROB_TOL, f"{what}: inequality {iid} total")
    require(report["violated"] == (total > DEFINITE_ORDER_BOUND + PROB_TOL) or
            abs(total - DEFINITE_ORDER_BOUND) <= 2 * PROB_TOL,
            f"{what}: violated flag {report['violated']} for total {total!r}")
    close(report["bound"], DEFINITE_ORDER_BOUND, 0.0, f"{what}: bound")
    close(report["algebraic_bound"], 2.0, 0.0, f"{what}: algebraic bound")


def check_headline(label: str, iid: int, total: float, what: str) -> None:
    want = HEADLINE_TOTALS.get((label, iid))
    if want is not None:
        close(total, want, PROB_TOL, f"{what}: closed form for {label} inequality {iid}")


# ======================================================================
# Strategy grid
# ======================================================================


def _ordered(families):
    for fam in families:
        for order in ("+-", "-+"):
            plus = effect(DIRECTIONS[fam], True)
            minus = effect(DIRECTIONS[fam], False)
            yield f"{fam}:{order}", np.array([plus, minus] if order == "+-" else [minus, plus])


def grid() -> tuple[list[str], np.ndarray, list[str], np.ndarray]:
    """Lab C: every hexagon-prism measurement at both z; lab B: Z (+1 on outcome 0)
    at y=0 and every cube measurement at y=1. Both outcome orders of each family."""
    c_labels, c_effs, b_labels, b_effs = [], [], [], []
    for label, pair in _ordered(HEX_FAMILIES):
        c_labels.append(label)
        c_effs.append(np.array([pair, pair]))
    y0 = np.array([effect(AXIS["Z"], True), effect(AXIS["Z"], False)])
    for label, pair in _ordered(SQUARE_FAMILIES):
        b_labels.append(label)
        b_effs.append(np.array([y0, pair]))
    return c_labels, np.array(c_effs), b_labels, np.array(b_effs)


GRID = grid()


def grid_values(doc: dict, iid: int) -> tuple[np.ndarray, np.ndarray]:
    """Totals and game-term probabilities at every grid point, shape (n_c, n_b)."""
    coll, wired = collapsed(doc), wiring(doc)
    c_labels, c_effs, b_labels, b_effs = GRID
    tabs = np.array([[table(coll, ec, eb, wired) for eb in b_effs] for ec in c_effs])
    probs = term_probabilities(tabs, iid)
    return probs @ COEFFS[iid], probs[..., GAME_TERM[iid]]


def check_optimum(result: dict, doc: dict, iid: int, what: str,
                  grid_vals: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """An optimisation result (as serialised) against the grid's own totals."""
    tot, game = grid_vals if grid_vals is not None else grid_values(doc, iid)
    c_labels, _, b_labels, _ = GRID
    best = float(tot.max())
    close(result["total_max"], best, PROB_TOL, f"{what}: grid optimum")
    close(result["game_term_max"], float(game.max()), PROB_TOL, f"{what}: game-term maximum")
    ci, bi = c_labels.index(result["best"]["lab_c"]), b_labels.index(result["best"]["lab_b"])
    close(tot[ci, bi], best, PROB_TOL, f"{what}: total at the reported best point")
    close(result["report"]["total"], best, PROB_TOL, f"{what}: report total")
    reported = {(o["lab_c"], o["lab_b"]) for o in result["optima"]}
    for (ci, cl), (bi, bl) in itertools.product(enumerate(c_labels), enumerate(b_labels)):
        gap = best - tot[ci, bi]
        if gap < 1e-9 - 1e-11:
            require((cl, bl) in reported, f"{what}: optimum ({cl}, {bl}) not reported")
        elif gap > 1e-9 + 1e-11:
            require((cl, bl) not in reported, f"{what}: ({cl}, {bl}) reported as optimum")
    if doc["label"] == "hexsquare-V.B" and iid == 2:
        close(result["total_max"], HEADLINE_TOTALS[("hexsquare-V.B", 2)], PROB_TOL,
              f"{what}: closed-form grid optimum")
        close(result["game_term_max"], VB_GAME_TERM_MAX, PROB_TOL,
              f"{what}: closed-form game-term maximum")


# ======================================================================
# Polytopes
# ======================================================================


def bloch(e: np.ndarray) -> tuple[float, np.ndarray]:
    """e = a0 * 1 + a . sigma for a Hermitian 2x2 effect; returns (a0, a)."""
    e = np.asarray(e, dtype=complex)
    return (float(np.trace(e).real) / 2.0,
            np.array([float(np.trace(e @ SIGMA[ax]).real) / 2.0 for ax in "XYZ"]))


def _halfspaces(effects, ry: float | None = None) -> np.ndarray:
    """0 <= a0 + a.r <= 1 as rows [A | b] of A x + b <= 0; with ry given, in (rx, rz)."""
    rows = []
    for e in effects:
        a0, a = bloch(e)
        if ry is not None:
            a0, a = a0 + a[1] * ry, a[[0, 2]]
        if np.abs(a).max() <= 1e-12:
            require(-1e-9 <= a0 <= 1 + 1e-9, f"constant effect value {a0} outside [0, 1]")
            continue
        rows.append(np.concatenate([a, [a0 - 1.0]]))
        rows.append(np.concatenate([-a, [-a0]]))
    return np.array(rows)


def _dedupe(points: np.ndarray) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.abs(p - q).max() <= VERTEX_TOL for q in kept):
            kept.append(p)
    return np.array(kept)


def vertices(effects, ry: float | None = None) -> np.ndarray:
    """Vertices of the state polytope cut out by the effects (or of its ry slice),
    by qhull's halfspace intersection around the maximally mixed state."""
    # imported here, so that workloads which never check a polytope do not
    # carry scipy.spatial in the peak_rss_mb of their process
    from scipy.spatial import HalfspaceIntersection

    hs = _halfspaces(effects, ry)
    inner = np.zeros(hs.shape[1] - 1)
    return _dedupe(HalfspaceIntersection(hs, inner).intersections)


def hex_vertices() -> np.ndarray:
    r = SQRT2 - 1.0
    rows = [(s * SQRT2, 0.0, 0.0) for s in (1, -1)]
    rows += [(0.0, s * SQRT2, t) for s in (1, -1) for t in (1, -1)]
    rows += [(s * r, u, t) for s in (1, -1) for u in (1, -1) for t in (1, -1)]
    return np.array(rows)


def cube_vertices() -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def same_points(got, want, what: str) -> None:
    got = np.asarray(got, dtype=float).reshape(len(got), -1) if len(got) else np.zeros((0, 1))
    want = np.asarray(want, dtype=float)
    require(len(got) == len(want), f"{what}: {len(got)} points, want {len(want)}")
    for p in want:
        require(np.abs(got - p).max(axis=1).min() <= VERTEX_TOL, f"{what}: missing {p}")


def check_facets(ineqs: list[dict], effects, what: str) -> None:
    """Each non-constant effect gives a lower (>= 0) and an upper (<= 1) constraint."""
    want = []
    for e in effects:
        a0, a = bloch(e)
        if np.abs(a).max() > 1e-12:
            want += [(a, a0, "lower"), (a, a0, "upper")]
    require(len(ineqs) == len(want), f"{what}: {len(ineqs)} constraints, want {len(want)}")
    for q, (a, a0, sense) in zip(ineqs, want):
        close(q["coeffs"], a, PROB_TOL, f"{what}: constraint coefficients")
        close(q["offset"], a0, PROB_TOL, f"{what}: constraint offset")
        require(q["sense"] == sense, f"{what}: constraint sense {q['sense']}")


def check_vertices(verts, counts, effects, what: str, closed_form=None) -> None:
    verts = np.asarray(verts, dtype=float)
    same_points(verts, vertices(effects), f"{what}: vertices vs halfspace intersection")
    if closed_form is not None:
        same_points(verts, closed_form, f"{what}: vertices vs closed form")
    keys = np.round(verts, 10)
    require(np.all(np.lexsort(keys.T[::-1]) == np.arange(len(verts))),
            f"{what}: vertices not in lexicographic order")
    hs = _halfspaces(effects)
    sat = [int(n) for n in (np.abs(verts @ hs[:, :3].T + hs[:, 3]) <= VERTEX_TOL).sum(axis=1)]
    require(sat == list(counts), f"{what}: saturation counts {list(counts)}, want {sat}")


def check_slice(poly, effects, ry: float, what: str) -> None:
    poly = np.asarray(poly, dtype=float)
    same_points(poly, vertices(effects, ry), f"{what}: slice at ry={ry}")
    edges = np.roll(poly, -1, axis=0) - poly
    turns = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    require(len(poly) < 3 or (turns > 0).all(), f"{what}: slice at ry={ry} is not counter-clockwise")
    keys = np.round(poly, 10)
    require(int(np.lexsort(keys.T[::-1])[0]) == 0, f"{what}: slice does not start at its smallest vertex")


# ======================================================================
# State spaces and superposition witnesses
# ======================================================================


def embed_state(r) -> np.ndarray:
    """Bloch vector r -> Hilbert-Schmidt coordinates of (1 + r.sigma)/2 in the
    orthonormal basis (1, X, Y, Z)/sqrt2."""
    return np.concatenate([[1.0], np.asarray(r, dtype=float)]) / SQRT2


def embed_effect(e) -> np.ndarray:
    a0, a = bloch(e)
    return np.concatenate([[a0], a]) * SQRT2


def witness_values(states, effects, w: dict) -> dict:
    """The seven inner products that define an operational superposition."""
    g = np.asarray(effects, dtype=float) @ np.asarray(states, dtype=float).T
    s, r1, r2 = w["s"], w["r1"], w["r2"]
    e_s, f1, f2 = w["e_s"], w["f_r1"], w["f_r2"]
    return {"es_s": g[e_s, s], "es_r1": g[e_s, r1], "es_r2": g[e_s, r2],
            "fr1_r1": g[f1, r1], "fr2_r2": g[f2, r2], "fr1_s": g[f1, s], "fr2_s": g[f2, s]}


def check_witness(states, effects, w: dict, what: str, reported: dict | None = None) -> None:
    """Witness conditions: distinct s, r1, r2; <e_s,s> = <f_r1,r1> = <f_r2,r2> = 1;
    <e_s,r1>, <e_s,r2>, <f_r1,s>, <f_r2,s> strictly between 0 and 1."""
    require(len({w["s"], w["r1"], w["r2"]}) == 3, f"{what}: witness states not distinct")
    vals = witness_values(states, effects, w)
    for k in ("es_s", "fr1_r1", "fr2_r2"):
        require(abs(vals[k] - 1.0) <= PROB_TOL, f"{what}: witness {k} = {vals[k]!r}, want 1")
    for k in ("es_r1", "es_r2", "fr1_s", "fr2_s"):
        require(PROB_TOL < vals[k] < 1.0 - PROB_TOL,
                f"{what}: witness {k} = {vals[k]!r}, want strictly inside (0, 1)")
    if reported is not None:
        close([reported[k] for k in vals], list(vals.values()), 1e-12, f"{what}: witness values")


def has_witness(states, effects) -> bool:
    """Exhaustive search for any operational-superposition witness."""
    g = np.asarray(effects, dtype=float) @ np.asarray(states, dtype=float).T
    one = np.abs(g - 1.0) <= PROB_TOL
    mid = (g > PROB_TOL) & (g < 1.0 - PROB_TOL)
    # e[s, r1, r2]: some effect is 1 on s and strictly inside on r1 and r2
    e = (one[:, :, None, None] & mid[:, None, :, None] & mid[:, None, None, :]).any(axis=0)
    # f[r, s]: some effect is 1 on r and strictly inside on s
    f = (one[:, :, None] & mid[:, None, :]).any(axis=0)
    n = g.shape[1]
    cand = e & f.T[:, :, None] & f.T[:, None, :]
    idx = np.arange(n)
    distinct = ((idx[:, None, None] != idx[None, :, None]) & (idx[:, None, None] != idx[None, None, :])
                & (idx[None, :, None] != idx[None, None, :]))
    return bool((cand & distinct).any())


def check_product_states(prod_states, a_states, b_states, what: str) -> None:
    """Minimal tensor product: exactly the products of the factors' extremal states."""
    want = np.array([np.kron(s, t) for s in a_states for t in b_states])
    require(len(prod_states) == len(a_states) * len(b_states),
            f"{what}: {len(prod_states)} product states, want {len(a_states)} x {len(b_states)}")
    same_points(prod_states, want, f"{what}: product states")
