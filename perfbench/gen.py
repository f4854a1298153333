"""Seeded input generators. The same seed and stream give the same inputs.

Scenario documents are written in the package's scenario JSON layout; effect
families are lists of 2x2 projectors. Nothing here imports gptlab.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from oracle import DIRECTIONS, HEX_FAMILIES, SQRT2, SQUARE_FAMILIES, effect

PRESET_NAMES = ("quantum-II.B", "hexsquare-V.A", "hexsquare-V.B", "hexsquare-V.C")
SPACE_FAMILIES = {"hex": HEX_FAMILIES, "square": SQUARE_FAMILIES}


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def preset_docs(root: Path) -> dict[str, dict]:
    """The shipped preset documents, read as plain JSON."""
    base = root / "src" / "gptlab" / "presets"
    return {name: json.loads((base / f"{name}.json").read_text(encoding="utf-8"))
            for name in PRESET_NAMES}


def _cjson(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def _unitary(g: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _basis(g: np.random.Generator) -> list:
    """Two random orthonormal kets, as rows."""
    return [_cjson(k) for k in _unitary(g).T]


def _density(g: np.random.Generator) -> np.ndarray:
    rank = int(g.integers(1, 5))
    m = g.normal(size=(4, rank)) + 1j * g.normal(size=(4, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _eigenkets(direction, order: str) -> list:
    """Outcome-ordered eigenkets of n.sigma; order "+-" puts +1 on outcome 0."""
    kets = []
    for plus in ((True, False) if order == "+-" else (False, True)):
        vals, vecs = np.linalg.eigh(effect(direction, plus))
        kets.append(_cjson(vecs[:, int(np.argmax(vals))]))
    return kets


def _phi_pr() -> np.ndarray:
    """(1+sqrt2)/2 phi+ + (1-sqrt2)/2 phi-: unit trace, one negative eigenvalue."""
    phi_p = np.zeros(4)
    phi_p[[0, 3]] = 1 / SQRT2
    phi_m = phi_p * np.array([1, 0, 0, -1])
    return (0.5 * (1 + SQRT2) * np.outer(phi_p, phi_p)
            + 0.5 * (1 - SQRT2) * np.outer(phi_m, phi_m))


def wiring_table(g: np.random.Generator) -> list[int]:
    """A random c_out(x1, x2, z, a1, a2, c_raw), tabulated over all eight
    indices (x1, x2, y, z, a1, a2, b, c_raw). It reads neither y nor b: a
    wiring that does can signal, and the program rightly rejects it."""
    f = g.integers(0, 2, size=(2,) * 6)
    return [int(f[x1, x2, z, a1, a2, c])
            for x1, x2, y, z, a1, a2, b, c in itertools.product((0, 1), repeat=8)]


def _doc(label, local, control, shared, target, labs, lab_c, lab_b, post) -> dict:
    return {
        "label": label,
        "local_spaces": local,
        "control_basis": control,
        "shared_state": [_cjson(row) for row in shared],
        "target_init": target,
        "lab_a1": labs[0],
        "lab_a2": labs[1],
        "lab_c": {"settings": lab_c},
        "lab_b": {"settings": lab_b},
        "post_process": None if post is None else {
            "index_order": "x1,x2,y,z,a1,a2,b,c_raw", "c_out": post},
    }


def quantum_doc(g: np.random.Generator, label: str, wired: bool) -> dict:
    """A random density matrix on C (x) B and random orthonormal kets everywhere else."""
    labs = [{"measure": _basis(g), "prepare": _basis(g)} for _ in range(2)]
    return _doc(label, ["qubit", "qubit"], _basis(g), _density(g), _basis(g)[0], labs,
                [_basis(g), _basis(g)], [_basis(g), _basis(g)],
                wiring_table(g) if wired else None)


def phi_pr_doc(g: np.random.Generator, label: str, wired: bool) -> dict:
    """phi_pr shared between a hexagon-prism lab and a cube lab (either way round).

    Lab C and lab B measure extremal binary measurements of their declared
    local spaces. The control, the intermediate labs and the target all use
    the Z or all the X eigenbasis. The switch then turns lab C's effect into
    itself, its dephasing in that basis, or a multiple of a basis projector.
    Dephasing in Z or X maps both families onto themselves; a Z projector is
    a hexagon-prism and a cube effect, an X projector only a cube effect. So
    the X basis goes with the cube on lab C, and every table stays a
    probability.
    """
    x_basis = bool(g.integers(2))
    local = ["square", "hex"] if x_basis or g.integers(2) else ["hex", "square"]
    basis = _eigenkets(DIRECTIONS["X" if x_basis else "Z"], "+-")
    labs = [{"measure": basis, "prepare": basis} for _ in range(2)]

    def meas(space):
        fams = SPACE_FAMILIES[space]
        return [_eigenkets(DIRECTIONS[fams[int(g.integers(len(fams)))]],
                           "+-" if g.integers(2) == 0 else "-+") for _ in range(2)]

    return _doc(label, local, basis, _phi_pr(), basis[0], labs, meas(local[0]), meas(local[1]),
                wiring_table(g) if wired else None)


def scenario_round(seed: int, index: int, presets: dict[str, dict]) -> list[dict]:
    """One round of the scenario stream: the four presets, 20 quantum and 20
    phi_pr scenarios without wiring, and 10 of each with a random wiring."""
    g = rng(seed, 1, index)
    docs = list(presets.values())
    for kind, make in (("q", quantum_doc), ("pr", phi_pr_doc)):
        docs += [make(g, f"{kind}-{index}-{i}", False) for i in range(20)]
        docs += [make(g, f"{kind}w-{index}-{i}", True) for i in range(10)]
    return docs


def observables(g: np.random.Generator, m: int) -> np.ndarray:
    n = g.normal(size=(m, 3))
    return n / np.linalg.norm(n, axis=1)[:, None]


def family(directions) -> list[np.ndarray]:
    """Both eigenprojectors of each observable n.sigma."""
    return [effect(n, plus) for n in directions for plus in (True, False)]


def named_family(space: str) -> list[np.ndarray]:
    return family([DIRECTIONS[f] for f in SPACE_FAMILIES[space]])


def effects_json(ops) -> list:
    return [[[[float(z.real), float(z.imag)] for z in row] for row in e] for e in ops]
