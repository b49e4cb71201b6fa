import itertools

import numpy as np
import pytest

from spinsim.errors import InputError
from spinsim.pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    commutes,
    dense_matrix,
    disjoint_layers,
    format_hamiltonian,
    heisenberg_chain,
    hubbard_2site,
    jordan_wigner,
    jw_ladder,
    mul_letters,
    parse_hamiltonian,
    string_matrix,
    tim_chain,
    xy_chain,
    xyz_chain,
)

RNG = np.random.default_rng(99)


def terms_by_letters(h):
    return {t.letters: t.coef.real for t in h.terms}


def fermion_dense_oracle(fh: FermionHamiltonian) -> np.ndarray:
    """Occupation-basis construction, independent of the Pauli mapping.

    Basis index k encodes occupations n_j of modes 1..M (mode 1 = most
    significant bit); a creator picks up (-1)^(number of occupied modes with
    smaller index).
    """
    m = fh.n_modes
    dim = 2**m

    def creator(mode):
        out = np.zeros((dim, dim))
        for k in range(dim):
            occ = [(k >> (m - j)) & 1 for j in range(1, m + 1)]
            if occ[mode - 1] == 1:
                continue
            sign = (-1) ** sum(occ[: mode - 1])
            k2 = k | (1 << (m - mode))
            out[k2, k] = sign
        return out

    h = np.zeros((dim, dim))
    for term in fh.terms:
        op = np.eye(dim)
        for mode, dag in term.ops:
            c = creator(mode)
            op = op @ (c if dag else c.T)
        h = h + term.coef * op
    return h


class TestBuilders:
    def test_heisenberg2_matches_bond_form(self):
        h = heisenberg_chain(2, [0.7], 0.0)
        assert terms_by_letters(h) == pytest.approx({"XX": 0.7, "YY": 0.7, "ZZ": 0.7})

    def test_heisenberg3_with_field(self):
        h = heisenberg_chain(3, [1.0, 1.0], 20.0)
        t = terms_by_letters(h)
        assert t["ZII"] == pytest.approx(10.0)
        assert t["IZI"] == pytest.approx(10.0)
        assert t["IIZ"] == pytest.approx(10.0)
        assert t["XXI"] == 1.0 and t["IXX"] == 1.0
        assert len(h.terms) == 9  # 3 field + 2 bonds x 3

    def test_zero_couplings_dropped(self):
        assert len(heisenberg_chain(2, [0.0], 0.0).terms) == 0

    def test_wrong_bond_count(self):
        with pytest.raises(InputError):
            heisenberg_chain(3, [1.0], 0.0)

    def test_xyz_reduces_to_xy(self):
        a = xyz_chain(3, 0.4, 0.9, 0.0)
        b = xy_chain(3, 0.4, 0.9)
        assert terms_by_letters(a) == terms_by_letters(b)
        assert all(set(t.letters) <= {"I", "X", "Y"} for t in b.terms)

    def test_tim(self):
        h = tim_chain(2, [1.0, 1.0], 1.0)
        assert terms_by_letters(h) == pytest.approx({"XI": 1.0, "IX": 1.0, "ZZ": 1.0})

    def test_tim_empty(self):
        assert len(tim_chain(2, [0.0, 0.0], 0.0).terms) == 0

    def test_field_term_is_x_for_tim(self):
        h = tim_chain(3, 0.5, 0.2)
        singles = [t for t in h.terms if len(t.support) == 1]
        assert all("X" in t.letters for t in singles)

    def test_builders_hermitian_dense(self):
        for h in (
            heisenberg_chain(3, [1.0, 0.5], 2.0),
            xyz_chain(3, 0.3, -0.4, 0.8),
            tim_chain(3, [0.1, 0.2, 0.3], 0.7),
        ):
            m = dense_matrix(h)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_heisenberg_commutes_with_total_z(self):
        h = dense_matrix(heisenberg_chain(3, [1.0, 1.0], 20.0))
        tz = dense_matrix(
            PauliHamiltonian(3, [PauliString(1.0, s) for s in ("ZII", "IZI", "IIZ")])
        )
        assert np.max(np.abs(h @ tz - tz @ h)) <= 1e-12


class TestHamiltonianInvariants:
    def test_duplicates_merged(self):
        h = PauliHamiltonian(2, [PauliString(0.5, "XX"), PauliString(0.25, "XX")])
        assert terms_by_letters(h) == {"XX": 0.75}

    def test_complex_coefficient_rejected(self):
        with pytest.raises(InputError):
            PauliHamiltonian(1, [PauliString(1j, "X")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    def test_non_finite_coefficient_rejected(self, bad):
        # a NaN coefficient used to fail the |coef| > 1e-12 test and vanish
        with pytest.raises(InputError, match="finite"):
            PauliString(bad, "XX")

    def test_identity_term_kept(self):
        h = PauliHamiltonian(2, [PauliString(0.5, "II"), PauliString(1.0, "ZZ")])
        assert "II" in terms_by_letters(h)


class TestCommutes:
    def test_xx_yy(self):
        assert commutes(PauliString(1, "XX"), PauliString(1, "YY"))

    def test_single_site_anticommute(self):
        assert not commutes(PauliString(1, "ZI"), PauliString(1, "XI"))

    def test_shared_identical_letter(self):
        assert commutes(PauliString(1, "ZZI"), PauliString(1, "IZZ"))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            commutes(PauliString(1, "Z"), PauliString(1, "ZZ"))

    def test_against_dense_oracle(self):
        letters = ["IXZY", "ZZII", "XYXY", "IIIX", "YIZI"]
        for a in letters:
            for b in letters:
                ma, mb = string_matrix(a), string_matrix(b)
                dense_commute = np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12
                assert commutes(PauliString(1, a), PauliString(1, b)) == dense_commute


class TestMulLetters:
    def test_phases(self):
        assert mul_letters("X", "Y") == (1j, "Z")
        assert mul_letters("Y", "X") == (-1j, "Z")
        assert mul_letters("XZ", "XZ") == (1, "II")

    def test_against_dense(self):
        for a in ("XY", "ZZ", "YI", "XZ"):
            for b in ("YY", "ZX", "IX", "ZI"):
                phase, out = mul_letters(a, b)
                assert np.allclose(phase * string_matrix(out), string_matrix(a) @ string_matrix(b))


def _all_strings(n):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


class TestMaskAlgebra:
    """The (x, z) mask algebra against products of dense string matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mul_and_commutes_every_pair(self, n):
        strings = _all_strings(n)
        dense = {s: string_matrix(s) for s in strings}
        for a in strings:
            for b in strings:
                ab, ba = dense[a] @ dense[b], dense[b] @ dense[a]
                phase, out = mul_letters(a, b)
                assert phase in (1, 1j, -1, -1j)
                assert np.array_equal(phase * dense[out], ab)
                assert commutes(PauliString(1, a), PauliString(1, b)) == np.array_equal(ab, ba)

    def test_masks(self):
        # qubit 1 is the most significant bit; Y sets both masks
        assert PauliString(1, "XYZI").masks == (0b1100, 0b0110)
        assert PauliString(1, "III").masks == (0, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_matrix_is_the_string_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        letters = {"".join(rng.choice(list("IXYZ"), n)) for _ in range(int(rng.integers(1, 12)))}
        h = PauliHamiltonian(n, [PauliString(float(rng.normal()), s) for s in letters])
        reference = np.zeros((2**n, 2**n), dtype=complex)
        for t in h.terms:
            reference += t.coef * string_matrix(t.letters)
        assert np.array_equal(dense_matrix(h), reference)

    def test_dense_matrix_refuses_an_overflowing_entry(self):
        # two ZZ bonds of 1e308 put 2e308 on the diagonal
        with pytest.raises(InputError, match="entry that overflows"):
            dense_matrix(heisenberg_chain(3, [1e308, 1e308], 0.0))
        # a 1-norm past the float range whose entries are each finite
        h = PauliHamiltonian(2, [PauliString(1e308, "XX"), PauliString(1e308, "ZZ")])
        assert np.isfinite(dense_matrix(h)).all()


class TestDisjointLayers:
    def test_four_spin_chain_parallel_bonds(self):
        h = heisenberg_chain(4, [1.0, 1.0, 1.0], 0.0)
        layers = disjoint_layers(h.terms)
        # bonds 1-2 and 3-4 share layers; bond 2-3 terms come later
        first_supports = [t.support for t in layers[0]]
        assert frozenset({1, 2}) in first_supports and frozenset({3, 4}) in first_supports
        for layer in layers:
            sups = [t.support for t in layer]
            for k, s in enumerate(sups):
                for s2 in sups[k + 1:]:
                    assert not (s & s2)

    def test_layers_pairwise_commute(self):
        h = heisenberg_chain(4, [1.0, 0.5, 0.25], 3.0)
        for layer in disjoint_layers(h.terms):
            for k, a in enumerate(layer):
                for b in layer[k + 1:]:
                    assert commutes(a, b)

    def test_single_term(self):
        h = PauliHamiltonian(2, [PauliString(1.0, "XX")])
        assert len(disjoint_layers(h.terms)) == 1

    def test_single_qubit_terms_one_layer(self):
        h = PauliHamiltonian(3, [PauliString(1.0, s) for s in ("XII", "IYI", "IIZ")])
        assert len(disjoint_layers(h.terms)) == 1


class TestTextFormat:
    def test_roundtrip(self):
        h = heisenberg_chain(3, [1.0, 0.5], 2.0)
        h2 = parse_hamiltonian(format_hamiltonian(h))
        assert terms_by_letters(h2) == pytest.approx(terms_by_letters(h))

    def test_parse_example(self):
        h = parse_hamiltonian("0.5 ZZI\n-1 IXX\n")
        assert terms_by_letters(h) == {"ZZI": 0.5, "IXX": -1.0}

    def test_bad_line(self):
        with pytest.raises(InputError):
            parse_hamiltonian("0.5 ZZ extra\n")

    def test_inconsistent_width(self):
        with pytest.raises(InputError):
            parse_hamiltonian("0.5 ZZ\n0.5 ZZZ\n")


class TestHubbard:
    def test_term_counts(self):
        assert len(hubbard_2site(1.0, 0.0).terms) == 4
        assert len(hubbard_2site(0.0, 1.0).terms) == 2
        assert len(hubbard_2site(1.0, 1.0).terms) == 6


class TestJordanWigner:
    def test_printed_form(self):
        # the standard printed Pauli form of the 2-site Hubbard model, with the
        # U/2 identity offset kept explicitly
        for _ in range(5):
            v, u = RNG.uniform(0.2, 3.0, 2)
            h = jordan_wigner(hubbard_2site(v, u))
            expected = {
                "XXII": v / 2, "YYII": v / 2, "IIXX": v / 2, "IIYY": v / 2,
                "ZIIZ": u / 4, "ZIII": u / 4, "IIIZ": u / 4,
                "IZZI": u / 4, "IZII": u / 4, "IIZI": u / 4,
                "IIII": u / 2,
            }
            assert terms_by_letters(h) == pytest.approx(expected)

    def test_single_mode_number_operator(self):
        n1 = FermionHamiltonian(1, [FermionTerm(1.0, ((1, True), (1, False)))])
        assert terms_by_letters(jordan_wigner(n1)) == pytest.approx({"I": 0.5, "Z": 0.5})

    def test_anticommutators(self):
        # {c_j, c^dag_k} = delta_jk, {c_j, c_k} = 0, as 16x16 matrices
        n = 4

        def ladder_dense(mode, creator):
            out = np.zeros((16, 16), dtype=complex)
            for coef, letters in jw_ladder(mode, n, creator):
                out += coef * string_matrix(letters)
            return out

        for j in range(1, 5):
            cj = ladder_dense(j, False)
            for k in range(1, 5):
                ck_dag = ladder_dense(k, True)
                ck = ladder_dense(k, False)
                anti1 = cj @ ck_dag + ck_dag @ cj
                anti2 = cj @ ck + ck @ cj
                target = np.eye(16) if j == k else np.zeros((16, 16))
                assert np.max(np.abs(anti1 - target)) <= 1e-12
                assert np.max(np.abs(anti2)) <= 1e-12

    def test_spectrum_preserved(self):
        for _ in range(5):
            v, u = RNG.uniform(0.2, 3.0, 2)
            fh = hubbard_2site(v, u)
            fermionic = np.linalg.eigvalsh(fermion_dense_oracle(fh))
            mapped = np.linalg.eigvalsh(dense_matrix(jordan_wigner(fh)))
            assert np.max(np.abs(fermionic - mapped)) <= 1e-10

    def test_custom_mode_order(self):
        # the literal tensor layout (2u, 1u, 2d, 1d) moves the on-site ZZ pairs
        h = jordan_wigner(hubbard_2site(1.0, 4.0), mode_order=(2, 1, 3, 4))
        t = terms_by_letters(h)
        assert t["ZIZI"] == pytest.approx(1.0)  # pairs (1,3): site 2
        assert t["IZIZ"] == pytest.approx(1.0)  # pairs (2,4): site 1

    def test_spectrum_invariant_under_mode_order(self):
        fh = hubbard_2site(1.3, 2.1)
        e1 = np.linalg.eigvalsh(dense_matrix(jordan_wigner(fh)))
        e2 = np.linalg.eigvalsh(dense_matrix(jordan_wigner(fh, mode_order=(4, 2, 3, 1))))
        assert np.max(np.abs(e1 - e2)) <= 1e-10

    def test_non_hermitian_rejected(self):
        fh = FermionHamiltonian(2, [FermionTerm(1.0, ((1, True), (2, False)))])
        with pytest.raises(InputError):
            jordan_wigner(fh)

    def test_bad_mode_order(self):
        with pytest.raises(InputError):
            jordan_wigner(hubbard_2site(1.0, 1.0), mode_order=(1, 2, 3, 3))
