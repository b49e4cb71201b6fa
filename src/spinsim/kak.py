"""Canonical (Cartan) decomposition of two-qubit unitaries via the magic basis,
and an exact 3-CNOT realization of canonical gates exp(-i(a XX + b YY + c ZZ)).

The branch policy inside :func:`kak_decompose` is deterministic, so two
unitaries in the same local-equivalence class always canonicalize to the same
middle gate; that is what lets :func:`canonical_3cnot` match single-qubit
dressings between a target and the 3-CNOT template.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError
from .gates import hermitian_expm, rotation, string_matrix

_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)

_CNOT12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CNOT21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)

_MIX_WEIGHTS = (1.2312578919, -0.7879646367, 0.3374652011)
_PERMS = tuple(itertools.permutations(range(3)))
_SIGNS = tuple(itertools.product((1.0, -1.0), repeat=3))
_SHIFTS = ((0.0, 0.0, 0.0),) + tuple(itertools.product((0.0, np.pi), repeat=3))


def canonical_gate(a: float, b: float, c: float) -> np.ndarray:
    """exp(-i (a XX + b YY + c ZZ)) as a dense 4x4 unitary."""
    return hermitian_expm(
        a * string_matrix("XX") + b * string_matrix("YY") + c * string_matrix("ZZ")
    )


def _wrap(ang: np.ndarray, cut: float = 1e-7) -> np.ndarray:
    # branch cut moved slightly off -pi so near-degenerate +-pi angles wrap
    # deterministically
    return np.angle(np.exp(1j * (ang - cut))) + cut


def _factor_kron(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a tensor-product 4x4 unitary into SU(2) factors."""
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    if s[1] > 1e-9:
        raise InputError("matrix is not a tensor product of single-qubit gates")
    a1 = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    a2 = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    a1 = a1 / np.sqrt(np.linalg.det(a1))
    a2 = a2 / np.sqrt(np.linalg.det(a2))
    return a1, a2


def class_fingerprint(u: np.ndarray) -> np.ndarray:
    """Local-equivalence-class invariant: branch-canonicalized spectrum angles."""
    v = _MAGIC.conj().T @ (u / np.linalg.det(u) ** 0.25) @ _MAGIC
    ang = _wrap(np.angle(np.linalg.eigvals(v.T @ v)))
    sa = np.sort(ang)[::-1]
    sb = np.sort(_wrap(np.angle(np.exp(1j * (ang - np.pi)))))[::-1]
    if tuple(np.round(sb, 12)) > tuple(np.round(sa, 12)):
        return sb
    return sa


def kak_decompose(
    u: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, tuple[float, float, float], np.ndarray, np.ndarray]:
    """u = e^{i phase} (A1 (x) A2) canonical(a,b,c) (B1 (x) B2), exactly.

    Returns (phase, A1, A2, (a, b, c), B1, B2).
    """
    if u.shape != (4, 4):
        raise InputError(f"kak_decompose needs a 4x4 matrix, got {u.shape}")
    v = _MAGIC.conj().T @ (u / np.linalg.det(u) ** 0.25) @ _MAGIC
    p = v.T @ v
    pr, pi = p.real, p.imag
    q = None
    for w in _MIX_WEIGHTS:
        _, qc = np.linalg.eigh(pr + w * pi)
        d = qc.T @ p @ qc
        if np.linalg.norm(d - np.diag(np.diag(d))) < 1e-10:
            q = qc
            break
    if q is None:
        raise InputError("simultaneous diagonalization failed; is the input unitary?")
    ang = _wrap(np.angle(np.diag(q.T @ p @ q)))
    # det^(1/4) branch: the two effective branches shift every angle by pi;
    # pick the lexicographically larger sorted variant
    alt = _wrap(np.angle(np.exp(1j * (ang - np.pi))))
    branch_flip = tuple(np.round(np.sort(alt)[::-1], 12)) > tuple(
        np.round(np.sort(ang)[::-1], 12)
    )
    if branch_flip:
        ang = alt
        v = v * np.exp(-1j * np.pi / 2)
    order = np.argsort(-ang, kind="stable")
    q = q[:, order]
    ang = ang[order]
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    theta = ang / 2
    k = int(np.round(theta.sum() / np.pi))
    if k != 0:
        theta[3] -= k * np.pi
    o1 = v @ q @ np.diag(np.exp(-1j * theta))
    if np.linalg.norm(o1.imag) > 1e-8:
        raise InputError("orthogonal factor came out complex; input not unitary?")
    left = _MAGIC @ o1.real @ _MAGIC.conj().T
    right = _MAGIC @ q.T @ _MAGIC.conj().T
    a = (theta[2] + theta[3]) / 2
    b = (theta[0] + theta[2]) / 2
    c = (theta[1] + theta[2]) / 2
    a1, a2 = _factor_kron(left)
    b1, b2 = _factor_kron(right)
    recon = np.kron(a1, a2) @ canonical_gate(a, b, c) @ np.kron(b1, b2)
    phase = float(np.angle(np.trace(recon.conj().T @ u)))
    if np.linalg.norm(np.exp(1j * phase) * recon - u) > 1e-9:
        raise InputError("kak reconstruction failed to verify")
    return phase, a1, a2, (float(a), float(b), float(c)), b1, b2


def _template_matrix(p1: float, p2: float, p3: float) -> np.ndarray:
    return (
        _CNOT21
        @ np.kron(rotation("z", p2), rotation("y", p3))
        @ _CNOT12
        @ np.kron(np.eye(2), rotation("y", p1))
        @ _CNOT21
    )


def _find_template_angles(coords, fingerprint) -> tuple[float, float, float]:
    for shift in _SHIFTS:
        for perm in _PERMS:
            for sg in _SIGNS:
                p = tuple(
                    sg[k] * (np.pi / 2 - 2 * coords[perm[k]]) + shift[k]
                    for k in range(3)
                )
                cand = class_fingerprint(_template_matrix(*p))
                if np.max(np.abs(cand - fingerprint)) < 1e-8:
                    return p
    raise InputError(f"no 3-CNOT template angles found for coords {coords}")


def canonical_3cnot(
    a: float, b: float, c: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float], np.ndarray, np.ndarray, float]:
    """Exact 3-CNOT synthesis of canonical_gate(a, b, c).

    Returns ``(pre1, pre2, (p1, p2, p3), post1, post2, phase)`` such that, with
    T(p) the template ``CNOT21 . (I x Ry(p1)) . CNOT12 . (Rz(p2) x Ry(p3)) . CNOT21``
    (listed in time order),

        canonical_gate(a, b, c)
            = e^{i phase} (post1 x post2) @ T(p) @ (pre1 x pre2)
    """
    target = canonical_gate(a, b, c)
    phase_t, a1, a2, coords, b1, b2 = kak_decompose(target)
    psi = _find_template_angles(coords, class_fingerprint(target))
    templ = _template_matrix(*psi)
    phase_3, a1p, a2p, coords3, b1p, b2p = kak_decompose(templ)
    if np.max(np.abs(np.array(coords3) - np.array(coords))) > 1e-8:
        raise InputError("template canonicalization mismatch")
    pre1 = b1p.conj().T @ b1
    pre2 = b2p.conj().T @ b2
    post1 = a1 @ a1p.conj().T
    post2 = a2 @ a2p.conj().T
    phase = phase_t - phase_3
    recon = np.exp(1j * phase) * np.kron(post1, post2) @ templ @ np.kron(pre1, pre2)
    if np.linalg.norm(recon - target) > 1e-9:
        raise InputError("3-CNOT synthesis failed to verify")
    return pre1, pre2, psi, post1, post2, float(phase)
