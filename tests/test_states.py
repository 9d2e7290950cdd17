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
from densecoding.states import _concurrences, _validate_states

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

    @given(SEEDS, st.integers(1, 40))
    @settings(deadline=None)
    def test_stacked_kernel_equals_the_scalar_route(self, seed, count):
        rng = np.random.default_rng(seed)
        states = []
        for rank in rng.integers(1, 5, size=count):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.sum(np.abs(g) ** 2))
        states = np.array(states)
        stacked = _concurrences(*np.linalg.eigh(states))
        assert stacked.shape == (count,)
        np.testing.assert_allclose(stacked, [concurrence(rho) for rho in states],
                                   rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("bad", [
        np.eye(4) / 4 + 0.1 * np.eye(4, k=1),
        np.diag([0.6, -0.1, 0.25, 0.25]),
        np.diag([math.nan, 0.25, 0.25, 0.25]),
    ], ids=["non_hermitian", "negative", "nan"])
    def test_stack_with_one_bad_state_rejected(self, bad):
        stack = np.array([bell_state(label) for label in BellLabel] * 3)
        _validate_states(stack)
        stack[7] = bad
        with pytest.raises(InvariantViolation):
            _validate_states(stack)

    @pytest.mark.parametrize("rho, dim, message", [
        (np.ones((4, 3)) / 4, None, r"density matrix must be square, got shape \(4, 3\)"),
        (np.eye(2) / 2, 4, r"expected a 4x4 matrix, got \(2, 2\)"),
    ], ids=["non_square", "dimension"])
    def test_rejects_malformed_matrix(self, rho, dim, message):
        with pytest.raises(InvariantViolation, match=message):
            validate_density_matrix(rho, dim=dim)

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
        validate_density_matrix(rho)
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
