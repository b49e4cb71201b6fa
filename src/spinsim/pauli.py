"""Pauli-string Hamiltonians, spin-model builders, commutation analysis and the
Jordan-Wigner fermion-to-qubit mapping.

Letters (``"XIZ"``) are the stored and I/O form; the algebra runs on the (x, z)
bit masks of Aaronson & Gottesman, PRA 70, 052328 (2004).  X sets a qubit's x
bit, Z its z bit and Y both; qubit 1 is the most significant bit, and (x, z)
stands for i^|x&z| X^x Z^z.

All values here are immutable and all builders are pure functions; unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ResourceError
from .gates import DENSE_QUBIT_LIMIT, PAULI, string_matrix  # noqa: F401 (public name)

_MASK_BITS = (str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011"))  # x, z
_I_POW = (1 + 0j, 1j, -1 + 0j, complex(0, -1))  # i^k; the literal -1j is (-0-1j)


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-qubit Pauli/identity operators."""

    coef: complex
    letters: str
    masks: tuple[int, int] = field(init=False, repr=False, compare=False)  # (x, z)

    def __post_init__(self):
        if not self.letters or any(ch not in PAULI for ch in self.letters):
            raise InputError(f"invalid Pauli letters {self.letters!r}")
        object.__setattr__(self, "coef", complex(self.coef))
        if not cmath.isfinite(self.coef):
            raise InputError(f"Pauli coefficient must be finite, got {self.coef}")
        masks = tuple(int(self.letters.translate(bits), 2) for bits in _MASK_BITS)
        object.__setattr__(self, "masks", masks)

    @property
    def support(self) -> frozenset[int]:
        """1-based qubits on which the string acts nontrivially."""
        return frozenset(i for i, ch in enumerate(self.letters, 1) if ch != "I")

    def __repr__(self):
        return f"PauliString({self.coef}, {self.letters!r})"


def mul_masks(a: tuple[int, int], b: tuple[int, int]) -> tuple[complex, tuple[int, int]]:
    """(x, z) product sigma_a sigma_b = phase * sigma_out, as (phase, out masks)."""
    (xa, za), (xb, zb) = a, b
    x, z = xa ^ xb, za ^ zb
    k = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    return _I_POW[(k + 2 * (za & xb).bit_count()) % 4], (x, z)


def mul_letters(a: str, b: str) -> tuple[complex, str]:
    """Sitewise product sigma_a sigma_b = phase * sigma_out."""
    if len(a) != len(b):
        raise InputError("Pauli strings act on different register sizes")
    phase, (x, z) = mul_masks(PauliString(1, a).masks, PauliString(1, b).masks)
    bits = zip(f"{x:0{len(a)}b}", f"{z:0{len(a)}b}")
    return phase, "".join("IZXY"[2 * int(bx) + int(bz)] for bx, bz in bits)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute: x_a&z_b ^ z_a&x_b has even weight."""
    if len(a.letters) != len(b.letters):
        raise InputError("Pauli strings act on different register sizes")
    (xa, za), (xb, zb) = a.masks, b.masks
    return ((xa & zb) ^ (za & xb)).bit_count() % 2 == 0


class PauliHamiltonian:
    """Sum of real-weighted Pauli strings on a fixed register.

    Duplicate letter patterns are merged and (near-)zero terms dropped.  The
    all-identity string is kept when present: it only contributes a global
    phase under evolution but preserves spectrum equality checks.
    """

    def __init__(self, n_qubits: int, terms: Iterable[PauliString]):
        if n_qubits < 1:
            raise InputError(f"n_qubits must be >= 1, got {n_qubits}")
        self.n_qubits = int(n_qubits)
        merged: dict[str, complex] = {}
        for t in terms:
            if len(t.letters) != n_qubits:
                raise InputError(
                    f"term {t.letters!r} does not act on {n_qubits} qubits"
                )
            merged[t.letters] = merged.get(t.letters, 0.0) + t.coef
        out = []
        for letters, coef in merged.items():
            if abs(coef.imag) > 1e-10:
                raise InputError(
                    f"Hamiltonian coefficients must be real, got {coef} for {letters}"
                )
            if abs(coef) > 1e-12:
                out.append(PauliString(coef.real, letters))
        self.terms: tuple[PauliString, ...] = tuple(out)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"PauliHamiltonian(n_qubits={self.n_qubits}, terms={len(self.terms)})"


def _single_site(n: int, site: int, letter: str) -> str:
    if not 1 <= site <= n:
        raise InputError(f"site {site} out of range for {n} qubits")
    return "I" * (site - 1) + letter + "I" * (n - site)


def _two_site(n: int, i: int, j: int, li: str, lj: str) -> str:
    s = ["I"] * n
    s[i - 1] = li
    s[j - 1] = lj
    return "".join(s)


def _per_bond(values, n_bonds: int, what: str) -> list[float]:
    if np.isscalar(values):
        return [float(values)] * n_bonds
    values = [float(v) for v in values]
    if len(values) != n_bonds:
        raise InputError(f"{what} needs {n_bonds} entries, got {len(values)}")
    return values


def heisenberg_chain(n: int, j, bg: float = 0.0) -> PauliHamiltonian:
    """Open Heisenberg chain: (Bg/2) sum_i Z_i + sum_bonds J_ij (XX + YY + ZZ)."""
    if n < 2:
        raise InputError("heisenberg_chain needs at least 2 qubits")
    couplings = _per_bond(j, n - 1, "per-bond couplings J")
    terms = []
    for i in range(1, n + 1):
        terms.append(PauliString(bg / 2.0, _single_site(n, i, "Z")))
    for b, jb in enumerate(couplings, start=1):
        for axis in "XYZ":
            terms.append(PauliString(jb, _two_site(n, b, b + 1, axis, axis)))
    return PauliHamiltonian(n, terms)


def xyz_chain(n: int, jxx: float, jyy: float, jzz: float) -> PauliHamiltonian:
    """Open XYZ chain; reduces to the XY model when jzz == 0."""
    if n < 2:
        raise InputError("xyz_chain needs at least 2 qubits")
    terms = []
    for b in range(1, n):
        terms.append(PauliString(jxx, _two_site(n, b, b + 1, "X", "X")))
        terms.append(PauliString(jyy, _two_site(n, b, b + 1, "Y", "Y")))
        terms.append(PauliString(jzz, _two_site(n, b, b + 1, "Z", "Z")))
    return PauliHamiltonian(n, terms)


def xy_chain(n: int, jxx: float, jyy: float) -> PauliHamiltonian:
    return xyz_chain(n, jxx, jyy, 0.0)


def tim_chain(n: int, h, jzz: float) -> PauliHamiltonian:
    """Transverse-field Ising chain: sum_i h_i X_i + sum_bonds Jzz Z_i Z_{i+1}."""
    if n < 2:
        raise InputError("tim_chain needs at least 2 qubits")
    fields = _per_bond(h, n, "per-site fields h")
    terms = [PauliString(hi, _single_site(n, i, "X")) for i, hi in enumerate(fields, 1)]
    for b in range(1, n):
        terms.append(PauliString(jzz, _two_site(n, b, b + 1, "Z", "Z")))
    return PauliHamiltonian(n, terms)


def disjoint_layers(terms: Sequence[PauliString]) -> list[list[PauliString]]:
    """Greedy first-fit partition into groups with pairwise-disjoint supports.

    Members of one group act on disjoint qubits, hence mutually commute and can
    be scheduled as one parallel gate layer.
    """
    layers: list[list[PauliString]] = []
    used: list[int] = []  # per layer, the mask of the qubits it acts on
    for term in terms:
        sup = term.masks[0] | term.masks[1]
        k = next((k for k, u in enumerate(used) if not u & sup), len(layers))
        if k == len(layers):
            layers.append([])
            used.append(0)
        layers[k].append(term)
        used[k] |= sup
    return layers


def dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^N x 2^N matrix (N <= DENSE_QUBIT_LIMIT): term (x, z) sends j to j ^ x
    with phase i^|x&z| (-1)^|j&z|.  An entry that overflows is an ``InputError``;
    none can while the coefficients' 1-norm, which bounds every entry, is finite."""
    if h.n_qubits > DENSE_QUBIT_LIMIT:
        raise ResourceError(
            f"dense matrix for {h.n_qubits} qubits exceeds the {DENSE_QUBIT_LIMIT}-qubit limit"
        )
    j = np.arange(2**h.n_qubits)
    signs = np.array([1 - 2 * (k.bit_count() & 1) for k in range(len(j))])  # (-1)^|k|
    out = np.zeros((len(j), len(j)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for t in h.terms:
            x, z = t.masks
            out[j ^ x, j] += t.coef * _I_POW[(x & z).bit_count() % 4] * signs[j & z]
    if not cmath.isfinite(sum(abs(t.coef) for t in h.terms)) and not np.isfinite(out).all():
        raise InputError("the Hamiltonian's dense matrix has an entry that overflows")
    return out


# --- plain-text Hamiltonian format: one `coef LETTERS` term per line ---------

def format_hamiltonian(h: PauliHamiltonian) -> str:
    lines = [f"{t.coef.real:.17g} {t.letters}" for t in h.terms]
    return "\n".join(lines) + "\n"


def parse_hamiltonian(text: str, n_qubits: int | None = None) -> PauliHamiltonian:
    terms = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {ln}: expected `coef LETTERS`, got {raw!r}")
        try:
            coef = float(parts[0])
        except ValueError as exc:
            raise InputError(f"line {ln}: bad coefficient {parts[0]!r}") from exc
        letters = parts[1].upper()
        if n_qubits is None:
            n_qubits = len(letters)
        if len(letters) != n_qubits:
            raise InputError(
                f"line {ln}: term {letters!r} does not act on {n_qubits} qubits"
            )
        terms.append(PauliString(coef, letters))
    if n_qubits is None:
        raise InputError("no terms found")
    return PauliHamiltonian(n_qubits, terms)


# --- fermions and the Jordan-Wigner transformation ---------------------------

@dataclass(frozen=True)
class FermionTerm:
    """coef * product of ladder operators, e.g. c^dag_1 c_2."""

    coef: float
    ops: tuple[tuple[int, bool], ...]  # (mode, is_creator), applied left to right


class FermionHamiltonian:
    """Real-weighted sum of ladder-operator products over modes 1..n_modes."""

    def __init__(self, n_modes: int, terms: Iterable[FermionTerm]):
        if n_modes < 1:
            raise InputError(f"n_modes must be >= 1, got {n_modes}")
        self.n_modes = int(n_modes)
        self.terms = tuple(terms)
        for t in self.terms:
            for mode, _ in t.ops:
                if not 1 <= mode <= n_modes:
                    raise InputError(f"mode {mode} out of range for {n_modes} modes")

    def __repr__(self):
        return f"FermionHamiltonian(n_modes={self.n_modes}, terms={len(self.terms)})"


#: qubit <- mode assignment used by :func:`hubbard_2site`: qubits 1..4 host
#: (1 up, 2 up, 2 down, 1 down); this layout reproduces the standard printed
#: Pauli form of the two-site Hubbard model under the default Jordan-Wigner
#: ordering.
HUBBARD2_MODES = ("1u", "2u", "2d", "1d")


def hubbard_2site(v: float, u: float) -> FermionHamiltonian:
    """Two-site Fermi-Hubbard model: -V sum_s (c+_1s c_2s + h.c.) + U sum_i n_id n_iu.

    Modes are numbered per :data:`HUBBARD2_MODES`: 1 = (site 1, up),
    2 = (site 2, up), 3 = (site 2, down), 4 = (site 1, down).
    """
    m1u, m2u, m2d, m1d = 1, 2, 3, 4
    terms = []
    if v != 0.0:
        for a, b in ((m1d, m2d), (m1u, m2u)):
            terms.append(FermionTerm(-v, ((a, True), (b, False))))
            terms.append(FermionTerm(-v, ((b, True), (a, False))))
    if u != 0.0:
        terms.append(FermionTerm(u, ((m1d, True), (m1d, False), (m1u, True), (m1u, False))))
        terms.append(FermionTerm(u, ((m2d, True), (m2d, False), (m2u, True), (m2u, False))))
    return FermionHamiltonian(4, terms)


def jw_ladder(qubit: int, n_qubits: int, creator: bool) -> list[tuple[complex, str]]:
    """Jordan-Wigner image of a ladder operator hosted on ``qubit``.

    c^dag at qubit q maps to Z-parity on qubits 1..q-1 times sigma_+ at q,
    with 2 sigma_+ = X + iY.
    """
    tail = "Z" * (qubit - 1)
    pad = "I" * (n_qubits - qubit)
    sign = 1j if creator else -1j
    return [(0.5, tail + "X" + pad), (0.5 * sign, tail + "Y" + pad)]


def _sum_mul(a: dict[str, complex], b: list[tuple[complex, str]]) -> dict[str, complex]:
    out: dict[str, complex] = {}
    for la, ca in a.items():
        for cb, lb in b:
            phase, letters = mul_letters(la, lb)
            out[letters] = out.get(letters, 0.0) + ca * cb * phase
    return out


def jordan_wigner(
    fh: FermionHamiltonian, mode_order: Sequence[int] | None = None
) -> PauliHamiltonian:
    """Map a fermionic Hamiltonian to a Pauli Hamiltonian.

    ``mode_order[k]`` is the mode hosted on qubit k+1; defaults to the identity
    assignment (mode i on qubit i).  Raises if the input is not Hermitian.
    """
    n = fh.n_modes
    if mode_order is None:
        mode_order = tuple(range(1, n + 1))
    order = tuple(int(m) for m in mode_order)
    if sorted(order) != list(range(1, n + 1)):
        raise InputError(f"mode_order must be a permutation of 1..{n}, got {order}")
    qubit_of = {mode: q for q, mode in enumerate(order, start=1)}

    total: dict[str, complex] = {}
    for term in fh.terms:
        acc: dict[str, complex] = {"I" * n: complex(term.coef)}
        for mode, creator in term.ops:
            acc = _sum_mul(acc, jw_ladder(qubit_of[mode], n, creator))
        for letters, coef in acc.items():
            total[letters] = total.get(letters, 0.0) + coef

    terms = []
    for letters, coef in total.items():
        if abs(coef) < 1e-12:
            continue
        if abs(coef.imag) > 1e-10:
            raise InputError(
                "Jordan-Wigner image has complex coefficients; "
                "the fermionic input is not Hermitian"
            )
        terms.append(PauliString(coef.real, letters))
    return PauliHamiltonian(n, terms)
