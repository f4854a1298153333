"""Dense 2x2/4x4 Hermitian-operator helpers: Paulis, Bloch maps, named two-qubit states."""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .tolerances import DEFAULT, Tolerances

SQRT2 = np.sqrt(2.0)
R_HEX = SQRT2 - 1.0  # x-coordinate of the tilted hexagon vertices

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / SQRT2
KET_MINUS = np.array([1, -1], dtype=complex) / SQRT2


def pauli(axis: str) -> np.ndarray:
    """Return a fresh copy of sigma_axis for axis in {I, X, Y, Z}."""
    try:
        return _PAULI[axis.upper()].copy()
    except KeyError:
        raise InputError(f"unknown Pauli axis {axis!r}") from None


def require_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT, what: str = "operator") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{what} must be a square matrix, got shape {m.shape}")
    if np.abs(m - m.conj().T).max() > tol.herm:
        raise InputError(f"{what} is not Hermitian within {tol.herm:g}")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hs_inner(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Hilbert-Schmidt inner product Tr[a b] of two Hermitian operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    val = np.trace(a @ b)
    if abs(val.imag) > tol.herm:
        raise InputError(f"Tr[a b] has imaginary part {val.imag:g}; operands not Hermitian?")
    return float(val.real)


def bloch_to_operator(v) -> np.ndarray:
    """(1 + v . sigma)/2 for a real 3-vector v (no length restriction)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InputError(f"Bloch vector must have 3 components, got shape {v.shape}")
    return 0.5 * (_PAULI["I"] + v[0] * _PAULI["X"] + v[1] * _PAULI["Y"] + v[2] * _PAULI["Z"])


def operator_to_bloch(m: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    m = require_hermitian(m, tol)
    if m.shape != (2, 2):
        raise InputError(f"Bloch decomposition needs a 2x2 operator, got {m.shape}")
    tr = np.trace(m).real
    if abs(tr - 1.0) > tol.norm:
        raise InputError(f"operator trace {tr:g} is not 1 within {tol.norm:g}")
    return np.array([np.trace(m @ _PAULI[ax]).real for ax in "XYZ"])


def eigenvalues(m: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, sorted descending."""
    m = require_hermitian(m, tol)
    return np.linalg.eigvalsh(m)[::-1].copy()


def partial_trace(m: np.ndarray, keep: int, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Trace out one qubit factor of a 4x4 operator; keep=0 keeps the first."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InputError(f"partial_trace expects a 4x4 operator, got {m.shape}")
    if keep not in (0, 1):
        raise InputError(f"keep must be 0 or 1, got {keep!r}")
    r = m.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", r) if keep == 0 else np.einsum("jijk->ik", r)


def projector(k: np.ndarray) -> np.ndarray:
    k = np.asarray(k, dtype=complex).reshape(-1)
    return np.outer(k, k.conj())


def phi_plus() -> np.ndarray:
    v = (tensor(KET_0, KET_0) + tensor(KET_1, KET_1)) / SQRT2
    return projector(v)


def phi_minus() -> np.ndarray:
    v = (tensor(KET_0, KET_0) - tensor(KET_1, KET_1)) / SQRT2
    return projector(v)


def phi_pr() -> np.ndarray:
    """Unit-trace Hermitian two-qubit operator with one eigenvalue below zero.

    It is the affine combination (1+sqrt2)/2 * phi_plus + (1-sqrt2)/2 * phi_minus,
    so it is not a quantum state, yet every product of the tilted-hexagon and
    cube effects evaluates to a probability on it.
    """
    return 0.5 * (1.0 + SQRT2) * phi_plus() + 0.5 * (1.0 - SQRT2) * phi_minus()
