"""Unit tests for two-qubit state algebra and information measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from densecoding import (
    BellLabel,
    InvariantViolation,
    PAULI_FOR_BELL,
    Party,
    PauliLabel,
    apply_pauli,
    bell_state,
    binary_entropy,
    concurrence,
    dense_coding_capacity,
    density_matrix_from_text,
    density_matrix_to_text,
    fidelity,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from densecoding import tomography
from densecoding.states import TOMOGRAPHY_SETTINGS

BELLS = list(BellLabel)
PAULIS = list(PauliLabel)


def random_density_matrix(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_design():
    """The 16 x 16 map from rho.flatten() to the sixteen projector expectations,
    row i the np.kron of ket_i's conjugate with ket_i."""
    kets = {"H": np.array([1.0, 0.0], dtype=complex), "V": np.array([0.0, 1.0], dtype=complex),
            "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)}
    setting_kets = [np.kron(kets[a], kets[b]) for a, b in TOMOGRAPHY_SETTINGS]
    return np.array([np.kron(ket.conj(), ket) for ket in setting_kets])


def shared_state_with_coherence(kappa):
    """Half-half mixture of HH and VV with off-diagonal coherence kappa."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = kappa / 2.0
    rho[3, 0] = np.conj(kappa) / 2.0
    return rho


class TestBellStates:
    def test_phi_plus_entries(self):
        rho = bell_state(BellLabel.PHI_PLUS)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    @pytest.mark.parametrize("a", BELLS)
    @pytest.mark.parametrize("b", BELLS)
    def test_orthonormality(self, a, b):
        overlap = np.trace(bell_state(a) @ bell_state(b)).real
        assert overlap == pytest.approx(1.0 if a is b else 0.0, abs=1e-14)

    @pytest.mark.parametrize("label", BELLS)
    def test_maximal_entanglement(self, label):
        assert concurrence(bell_state(label)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label", BELLS)
    def test_valid_density_matrix(self, label):
        validate_density_matrix(bell_state(label), dim=4)


class TestApplyPauli:
    @pytest.mark.parametrize("label,pauli", list(PAULI_FOR_BELL.items()))
    def test_encoding_bijection(self, label, pauli):
        out = apply_pauli(bell_state(BellLabel.PHI_PLUS), pauli, Party.ALICE)
        np.testing.assert_allclose(out, bell_state(label), atol=1e-14)

    @pytest.mark.parametrize("party", [Party.ALICE, Party.BOB])
    def test_identity_is_noop(self, party):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(apply_pauli(rho, PauliLabel.ID, party), rho, atol=1e-14)

    @pytest.mark.parametrize("pauli", [PauliLabel.X, PauliLabel.Y, PauliLabel.Z])
    @pytest.mark.parametrize("party", [Party.ALICE, Party.BOB])
    def test_involution(self, pauli, party):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(rng)
        twice = apply_pauli(apply_pauli(rho, pauli, party), pauli, party)
        assert np.max(np.abs(twice - rho)) < 1e-12

    def test_output_is_valid(self):
        rng = np.random.default_rng(3)
        for pauli in PAULIS:
            out = apply_pauli(random_density_matrix(rng), pauli, Party.BOB)
            validate_density_matrix(out, dim=4)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        red = partial_trace(bell_state(BellLabel.PHI_PLUS), Party.BOB)
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        sigma = random_density_matrix(rng, dim=2)
        tau = random_density_matrix(rng, dim=2)
        rho = np.kron(sigma, tau)
        np.testing.assert_allclose(partial_trace(rho, Party.ALICE), sigma, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, Party.BOB), tau, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            red = partial_trace(random_density_matrix(rng), Party.ALICE)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            validate_density_matrix(red, dim=2)


class TestEntropies:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy(bell_state(BellLabel.PSI_MINUS)) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_dephased_shared_state_entropy(self):
        # eigenvalues of the mixture are (1 +- |kappa|)/2, so the spectral
        # entropy must equal the binary entropy at (1 + |kappa|)/2
        kappa = 0.6065
        rho = shared_state_with_coherence(kappa)
        oracle = binary_entropy((1 + kappa) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.7153802795035773, abs=1e-12)
        # matches the coarser quoted value to ~2e-4
        assert abs(oracle - 0.7155) < 2e-4

    def test_binary_entropy_reference_points(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # independent direct evaluation
        p = 0.80325
        direct = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert binary_entropy(p) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_binary_entropy_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_binary_entropy_symmetry_and_bounds(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_entropy_basis_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            rho = random_density_matrix(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10)


class TestConcurrence:
    def test_separable_state(self):
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", np.linspace(0.0, 1.0, 11))
    def test_equals_coherence_magnitude(self, kappa):
        rho = shared_state_with_coherence(kappa * np.exp(0.7j))
        assert concurrence(rho) == pytest.approx(kappa, abs=1e-10)


# Y x Y in the (HH, HV, VH, VV) basis, written out: the spin flip of the oracles.
SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
SEEDS = st.integers(0, 2**32 - 1)


def root_eigenvalue_concurrence(rho, rank):
    """Wootters' route: the square roots l of the `rank` largest eigenvalues of
    rho (Y x Y) rho* (Y x Y), by a general eigensolver, as max(0, l1 - l2 - ...).
    Also the smallest root kept: near 0 the route loses digits as eps / l."""
    mu = np.linalg.eigvals(rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP).real
    roots = np.sort(np.sqrt(np.clip(mu, 0.0, None)))[::-1][:rank]
    return max(0.0, roots[0] - roots[1:].sum()), roots[-1]


class TestConcurrenceOracles:
    """The one-eigendecomposition kernel against independent closed forms."""

    @given(SEEDS)
    @settings(deadline=None)
    def test_pure_states(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        expected = abs(np.vdot(psi, SPIN_FLIP @ psi.conj()))
        assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(expected, abs=1e-12)

    @given(SEEDS, st.sampled_from([0.0, 0.2, 1.0]))
    @settings(deadline=None)
    def test_x_states(self, seed, edge_share):
        # A share of the diagonal entries set to 0 and of the coherences set to
        # their positivity limit, so rank-deficient X-states are drawn too.
        rng = np.random.default_rng(seed)
        diag = rng.dirichlet(np.ones(4)) * (rng.random(4) >= edge_share / 2)
        assume(diag.sum() > 0.0)
        diag /= diag.sum()
        scale = np.where(rng.random(2) < edge_share, 1.0, rng.random(2))
        phases = np.exp(2j * np.pi * rng.random(2))
        r14 = scale[0] * math.sqrt(diag[0] * diag[3]) * phases[0]
        r23 = scale[1] * math.sqrt(diag[1] * diag[2]) * phases[1]
        rho = np.diag(diag).astype(complex)
        rho[0, 3], rho[3, 0], rho[1, 2], rho[2, 1] = r14, np.conj(r14), r23, np.conj(r23)
        expected = 2.0 * max(0.0, abs(r14) - math.sqrt(diag[1] * diag[2]),
                             abs(r23) - math.sqrt(diag[0] * diag[3]))
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)

    @given(SEEDS)
    @settings(deadline=None)
    def test_full_rank_states(self, seed):
        # One tenth of the maximally mixed state keeps every eigenvalue of rho,
        # hence every root, at or above 0.025, where the oracle holds 1e-14.
        rho = random_density_matrix(np.random.default_rng(seed))
        rho = 0.9 * rho + 0.1 * np.eye(4) / 4
        expected, _ = root_eigenvalue_concurrence(rho, 4)
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)

    @given(SEEDS)
    @settings(deadline=None)
    def test_rank_two_states(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = g @ g.conj().T / np.sum(np.abs(g) ** 2)
        expected, smallest_root = root_eigenvalue_concurrence(rho, 2)
        assume(smallest_root > 0.02)  # about 1.5 % of draws; below, the oracle drifts
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)


def hermitian_cases(rng):
    """Hermitian 4 x 4 matrices with entries of order 1: indefinite, of ranks 1
    to 3, diagonal, and with degenerate spectra in a random basis."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    yield (g + g.conj().T) / 4.0
    for rank in (1, 2, 3):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        yield g @ g.conj().T / np.sum(np.abs(g) ** 2)
    yield np.diag(rng.normal(size=4)).astype(complex)
    yield np.diag(rng.choice([-0.5, 0.0, 0.5], size=4)).astype(complex)
    u = random_unitary(rng, 4)
    for spectrum in ([0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.3, 0.1], [-0.2, 0.6, 0.6, 0.0]):
        yield (u * spectrum) @ u.conj().T


class TestTomographyKernel:
    """The plain-Python kernel of ``tomo`` against numpy oracles."""

    @given(SEEDS)
    @settings(deadline=None)
    def test_linear_inversion_equals_the_inverse_design(self, seed):
        # Not 1e-15: over 10^5 such vectors the two differ by up to 1.35e-15,
        # and where they differ most, exact rational arithmetic puts the
        # oracle's own error at up to 1.3e-15 and the closed form's at 4.6e-16.
        freqs = np.random.default_rng(seed).random(16)
        rho = np.array(tomography.linear_inversion(freqs.tolist()))
        expected = (np.linalg.inv(kron_design()) @ freqs).reshape(4, 4)
        assert np.max(np.abs(rho - expected)) <= 2e-15
        assert np.array_equal(rho, rho.conj().T)

    @given(SEEDS, st.integers(1, 4))
    @settings(deadline=None)
    def test_frequencies_and_linear_inversion_invert_each_other(self, seed, rank):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T / np.sum(np.abs(g) ** 2)
        back = tomography.linear_inversion(tomography.frequencies(rho.tolist()))
        assert np.max(np.abs(np.array(back) - rho)) <= 1e-15
        freqs = rng.random(16)
        again = tomography.frequencies(tomography.linear_inversion(freqs.tolist()))
        assert np.max(np.abs(np.array(again) - freqs)) <= 1e-15

    @given(SEEDS)
    @settings(deadline=None)
    def test_jacobi_eigenpairs_rebuild_the_matrix(self, seed):
        for matrix in hermitian_cases(np.random.default_rng(seed)):
            vals, vecs = tomography.eigh(matrix.tolist())
            v = np.array(vecs).T  # eigenvectors as columns
            assert vals == sorted(vals)
            assert np.max(np.abs(np.array(vals) - np.linalg.eigvalsh(matrix))) <= 1e-14
            assert np.max(np.abs((v * vals) @ v.conj().T - matrix)) <= 1e-14
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-14

    @given(st.integers(1, 10**6), st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
           st.booleans())
    @settings(deadline=None)
    def test_every_accepted_count_vector_gives_a_valid_state(self, n, shares, whole):
        counts = [round(share * n) if whole else share * n for share in shares]
        try:
            rho, vals, vecs = tomography.reconstruct(counts, n)
        except ValueError as exc:  # the one refusal counts in [0, n] can meet
            assert str(exc) == "reconstruction gives a zero state; counts unusable"
            return
        validate_density_matrix(np.array(rho), dim=4)
        assert 0.0 <= tomography.concurrence(vals, vecs) <= 1.0 + 1e-12


class TestDenseCodingCapacity:
    def test_bell_state_gives_two_bits(self):
        assert dense_coding_capacity(bell_state(BellLabel.PHI_PLUS)) == pytest.approx(2.0, abs=1e-10)

    def test_pure_product_state_gives_one_bit(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        assert dense_coding_capacity(np.outer(ket, ket)) == pytest.approx(1.0, abs=1e-10)

    def test_dephased_state_value(self):
        kappa = 0.6065
        cap = dense_coding_capacity(shared_state_with_coherence(kappa))
        oracle = 2.0 - binary_entropy((1 + kappa) / 2)
        assert cap == pytest.approx(oracle, abs=1e-12)
        assert abs(cap - 1.2845) < 2e-4


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = bell_state(BellLabel.PHI_PLUS)
        b = bell_state(BellLabel.PSI_MINUS)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_pure_target_reduces_to_overlap(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(rng)
        proj = bell_state(BellLabel.PHI_MINUS)
        overlap = np.trace(proj @ rho).real
        assert fidelity(proj, rho) == pytest.approx(overlap, abs=1e-10)


class TestValidation:
    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(InvariantViolation):
            validate_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("bad, message", [
        (np.eye(4) / 4 + 0.1 * np.eye(4, k=1), "matrix not Hermitian: max asymmetry 1.000e-01"),
        (np.eye(4) / 2, "trace differs from 1 by 1.000e+00"),
        (np.diag([0.6, -0.1, 0.25, 0.25]), "matrix not positive semidefinite: eigenvalue -1.000e-01"),
        (np.diag([0.6, 0.4 + 2e-10, -2e-10, 0.0]),
         "matrix not positive semidefinite: eigenvalue -2.000e-10"),
        (np.diag([math.nan, 0.25, 0.25, 0.25]), "density matrix has non-finite entries"),
        (np.diag([0.25, 0.25, 0.25, 0.25 + 1j * math.inf]), "density matrix has non-finite entries"),
    ], ids=["non_hermitian", "wrong_trace", "negative", "just_below_floor", "nan", "inf_imag"])
    def test_rejects_bad_state(self, bad, message):
        # The numpy check and the tomography kernel's refuse alike, word for word.
        with pytest.raises(InvariantViolation) as numpy_refusal:
            validate_density_matrix(bad)
        with pytest.raises(InvariantViolation) as kernel_refusal:
            tomography.check_state(bad.tolist())
        assert str(numpy_refusal.value) == str(kernel_refusal.value) == message

    @pytest.mark.parametrize("rho, dim, message", [
        (np.ones((4, 3)) / 4, None, r"density matrix must be square, got shape \(4, 3\)"),
        (np.eye(2) / 2, 4, r"expected a 4x4 matrix, got \(2, 2\)"),
    ], ids=["non_square", "dimension"])
    def test_rejects_malformed_matrix(self, rho, dim, message):
        with pytest.raises(InvariantViolation, match=message):
            validate_density_matrix(rho, dim=dim)

    @pytest.mark.parametrize("measure", [validate_density_matrix, von_neumann_entropy,
                                         lambda rho: fidelity(rho, rho)],
                             ids=["validate", "entropy", "fidelity"])
    def test_rejects_empty_matrix(self, measure):
        with pytest.raises(InvariantViolation) as refusal:
            measure(np.zeros((0, 0)))
        assert str(refusal.value) == "density matrix must not be empty, got shape (0, 0)"

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
        validate_density_matrix(rho)
        vals, _ = tomography.check_state(rho.tolist())
        assert vals[0] == -5e-11
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            rho = random_density_matrix(rng)
            text = density_matrix_to_text(rho)
            back = density_matrix_from_text(text)
            assert np.max(np.abs(back - rho)) < 1e-15

    def test_format_shape(self):
        text = density_matrix_to_text(bell_state(BellLabel.PHI_PLUS))
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 4 for line in lines)
        assert complex(lines[0].split()[0]) == pytest.approx(0.5)

    def test_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            density_matrix_from_text("1+0j 0+0j\n0+0j 1+0j\n")

    def test_rejects_malformed_entry(self):
        text = density_matrix_to_text(bell_state(BellLabel.PHI_PLUS)).replace("0j", "zero", 1)
        with pytest.raises(ValueError, match="malformed complex entry in density-matrix text"):
            density_matrix_from_text(text)
