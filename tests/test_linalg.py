import math

import numpy as np
import pytest

from hamest.errors import BranchCutError, ValidationError
from hamest.linalg import (PureState, haar_state, haar_unitary, hermitian_expm,
                           hermitian_expm_derivatives, hs_inner, su_basis, unitary_eig)
from hamest.model import hamiltonian, make_model
from hamest.verify import richardson_derivative, unitary_principal_log

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianExpm:
    def test_diagonal_eigenphases(self):
        u = hermitian_expm(np.diag([1.0, -1.0]), math.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_zero_hamiltonian(self):
        assert np.allclose(hermitian_expm(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_pauli_x_half_turn(self):
        # spectral decomposition by hand: exp(-i (pi/2) sx) = -i sx
        u = hermitian_expm(SX / math.sqrt(2), math.sqrt(2) * math.pi / 2)
        assert np.allclose(u, -1j * SX, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_expm(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_group_property(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (z + z.conj().T)
        lhs = hermitian_expm(h, 0.4) @ hermitian_expm(h, 0.9)
        assert np.max(np.abs(lhs - hermitian_expm(h, 1.3))) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = hermitian_expm(0.5 * (z + z.conj().T), 3.3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12


class TestExpmDerivatives:
    def test_value_is_hermitian_expm(self):
        h = 0.5 * (SX + SZ)
        u, _ = hermitian_expm_derivatives(h, 0.7, np.array([SX, SY]))
        assert np.array_equal(u, hermitian_expm(h, 0.7))

    def test_zero_hamiltonian(self):
        # fully degenerate spectrum: dU_k = -i t X_k
        ops = np.array(su_basis(3))
        _, du = hermitian_expm_derivatives(np.zeros((3, 3)), 1.9, ops)
        assert np.max(np.abs(du + 1.9j * ops)) < 1e-15

    def test_commuting_direction(self):
        # [H, X] = 0 with a repeated eigenvalue: dU = -i t X U
        h, x = np.diag([0.4, 0.4, -0.8]), np.diag([1.0, -1.0, 0.0]).astype(complex)
        u, du = hermitian_expm_derivatives(h, 2.3, x[None])
        assert np.max(np.abs(du[0] + 2.3j * x @ u)) < 1e-14

    def test_matches_richardson(self):
        rng = np.random.default_rng(5)
        ops = np.array(su_basis(3))
        theta = rng.standard_normal(8)
        _, du = hermitian_expm_derivatives(np.tensordot(theta, ops, 1), 1.3, ops)
        ref = richardson_derivative(
            lambda t: hermitian_expm(np.tensordot(t, ops, 1), 1.3), theta, 1e-3)
        assert np.max(np.abs(du - ref)) < 1e-11


def _rotated(phases, rng):
    q = haar_unitary(len(phases), rng)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _by_phase(lam):
    # phases read from a cut at 2.6 rad, where no case below has an eigenvalue,
    # so an eigenvalue at -1 sorts the same whichever sign its angle rounds to
    return lam[np.argsort(np.mod(np.angle(lam) - 2.6, 2 * np.pi))]


def _counter_rotated(inc_scale):
    # many_channel stage unitary exp(+i tau H*) exp(-i tau H_{theta* + inc})
    model, rng = make_model("full", 3), np.random.default_rng(8)
    theta_star = 0.3 * rng.standard_normal(model.m)
    inc = inc_scale * rng.standard_normal(model.m)
    return (hermitian_expm(hamiltonian(model, theta_star), -0.7)
            @ hermitian_expm(hamiltonian(model, theta_star + inc), 0.7))


_EIG_CASES = {
    "identity": np.eye(3, dtype=complex),
    "counter_at_inc_0": _counter_rotated(0.0),
    "counter_near_identity": _counter_rotated(1e-9),
    "repeated_next_to_distinct": _rotated([0.3, 0.3, -1.1, 2.0], np.random.default_rng(1)),
    "plus_minus_phi": _rotated([0.7, -0.7], np.random.default_rng(2)),
    "plus_minus_phi_and_zero": _rotated([0.7, -0.7, 0.0], np.random.default_rng(3)),
    "phase_pi": np.diag([-1.0, 1.0, np.exp(0.5j)]),
    "phase_pi_rotated": _rotated([np.pi, np.pi, -0.4], np.random.default_rng(4)),
    **{f"haar_d{d}": haar_unitary(d, np.random.default_rng(40 + d)) for d in range(2, 7)},
}


class TestUnitaryEig:
    @pytest.mark.parametrize("name", sorted(_EIG_CASES))
    def test_orthonormal_eigenbasis(self, name):
        v = _EIG_CASES[name]
        lam, q = unitary_eig(v)
        eye = np.eye(len(v))
        assert np.linalg.norm(q.conj().T @ q - eye, 2) <= 1e-13
        assert np.linalg.norm(q.conj().T @ v @ q - np.diag(lam), 2) <= 1e-13
        assert np.max(np.abs(_by_phase(lam) - _by_phase(np.linalg.eigvals(v)))) <= 1e-13


class TestPrincipalLog:
    def test_identity(self):
        assert np.max(np.abs(unitary_principal_log(np.eye(3)))) < 1e-12

    def test_diagonal_phases(self):
        u = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        m = unitary_principal_log(u)
        assert np.allclose(m, np.diag([np.pi / 2, -np.pi / 2]), atol=1e-12)

    def test_round_trip_small_generators(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4):
            for _ in range(20):
                z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                h = 0.5 * (z + z.conj().T)
                h *= 0.9 * math.pi / np.linalg.norm(h, 2) * rng.random()
                m = unitary_principal_log(hermitian_expm(h, 1.0))
                assert np.max(np.abs(m - h)) < 1e-9

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            unitary_principal_log(np.diag([-1.0, 1.0]).astype(complex))

    def test_eigenvalue_range(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(4, rng)
        m = unitary_principal_log(u)
        w = np.linalg.eigvalsh(m)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.max(np.abs(hermitian_expm(m, 1.0) - u)) < 1e-9


class TestSuBasis:
    def test_d2_is_scaled_paulis(self):
        basis = su_basis(2)
        assert len(basis) == 3
        expect = [SX, SY, SZ]
        for x, p in zip(basis, expect):
            assert np.allclose(x, p / math.sqrt(2), atol=1e-12)

    def test_d3_orthonormal(self):
        basis = su_basis(3)
        assert len(basis) == 8
        gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_d4_count_and_traceless(self):
        basis = su_basis(4)
        assert len(basis) == 15
        assert all(abs(np.trace(x)) < 1e-12 for x in basis)

    def test_spans_traceless_hermitian(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            basis = su_basis(d)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = 0.5 * (z + z.conj().T)
            a -= np.trace(a) / d * np.eye(d)
            rebuilt = sum(hs_inner(x, a) * x for x in basis)
            assert np.max(np.abs(rebuilt - a)) < 1e-10


class TestHsInner:
    def test_normalization(self):
        assert abs(hs_inner(SZ / math.sqrt(2), SZ / math.sqrt(2)) - 1) < 1e-14

    def test_orthogonality(self):
        assert abs(hs_inner(SX / math.sqrt(2), SY / math.sqrt(2))) < 1e-14

    def test_identity_trace(self):
        assert abs(hs_inner(np.eye(3), np.eye(3)) - 3) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))


class TestPureState:
    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            PureState(factors=(2,), amplitudes=np.array([1.0, 1.0]))

    def test_factor_consistency(self):
        with pytest.raises(ValidationError):
            PureState(factors=(2, 3), amplitudes=np.zeros(5))

    def test_haar_state_normalized(self):
        rng = np.random.default_rng(0)
        psi = haar_state(6, rng)
        st = PureState(factors=(2, 3), amplitudes=psi)
        assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12
