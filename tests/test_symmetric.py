import functools
import math
from itertools import product

import numpy as np
import pytest

from hamest import symmetric
from hamest.errors import BranchCutError, ResourceLimitError, ValidationError
from hamest.linalg import (haar_unitary, hermitian_expm, hermitian_expm_derivatives, hs_inner,
                           unitary_eig)
from hamest.model import hamiltonian, make_model
from hamest.symmetric import f2_coeff, sym_dim, sym_frame_coefficients, sym_frame_tangents
from hamest.verify import (collective, collective_trace_moments, f4_coeff, f22_coeff,
                           frame_projection, magnus_operator, occupations,
                           postselection_frame, richardson_derivative, sym_space)

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(d, rng, traceless=False):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (z + z.conj().T)
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    return h


class TestSymSpace:
    @pytest.mark.parametrize("d,r,dim", [(2, 2, 3), (3, 2, 6), (2, 4, 5), (3, 3, 10)])
    def test_dimension(self, d, r, dim):
        assert sym_dim(d, r) == dim
        assert sym_space(d, r).D == dim

    def test_isometry_orthonormal(self):
        space = sym_space(2, 4)
        assert np.max(np.abs(space.isometry.conj().T @ space.isometry
                             - np.eye(5))) < 1e-12

    def test_occupation_order(self):
        assert occupations(2, 2) == [(2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_occupations_match_brute_force(self, d):
        for r in range(1, 7):
            brute = sorted((occ for occ in product(range(r + 1), repeat=d) if sum(occ) == r),
                           reverse=True)
            assert occupations(d, r) == brute

    def test_tensor_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            sym_space(2, 13)


class TestCollective:
    def test_identity_gives_r(self):
        space = sym_space(3, 2)
        assert np.allclose(collective(space, np.eye(3)), 2 * np.eye(6), atol=1e-12)

    def test_worked_spin_example(self):
        space = sym_space(2, 2)
        cz = collective(space, SZ / math.sqrt(2))
        assert np.allclose(cz, np.diag([math.sqrt(2), 0.0, -math.sqrt(2)]),
                           atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        space = sym_space(2, 3)
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        lhs = collective(space, a + b)
        assert np.max(np.abs(lhs - collective(space, a) - collective(space, b))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            collective(sym_space(2, 2), np.eye(3))

    def test_restriction_identity(self):
        rng = np.random.default_rng(2)
        for d, r in [(2, 3), (3, 2), (2, 4)]:
            space = sym_space(d, r)
            h = random_hermitian(d, rng)
            tau = 0.37
            lhs = hermitian_expm(collective(space, h), tau)
            u = hermitian_expm(h, tau)
            ur = u
            for _ in range(r - 1):
                ur = np.kron(ur, u)
            rhs = space.isometry.conj().T @ ur @ space.isometry
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def brute_force_coefficients(lam, xt, occ):
    """Frame coefficients of Sym^r V summed over the occupation vectors ``occ``.

    ``lam`` are V's eigenvalues and ``xt`` the diagonals of the X_j in V's
    eigenbasis: Tr Sym^r V = sum_n prod_i lam_i^n_i, and
    Tr({X}_r Sym^r V) = sum_n (sum_i xt_i n_i) prod_i lam_i^n_i.
    """
    dim, d = occ.shape
    r = int(occ[0].sum())
    terms = np.exp(occ @ np.log(lam.astype(complex)))
    return np.concatenate([[terms.sum() / dim],
                           (xt @ occ.T) @ terms / (dim * math.sqrt(f2_coeff(d, r)))])


class TestFrameCoefficients:
    # (2, 1024) and (3, 682) are the largest r that the default r_max allows
    @pytest.mark.parametrize("d,r", [(2, 1024), (3, 96), (3, 682), (4, 40)])
    def test_matches_occupation_sum(self, d, r):
        rng = np.random.default_rng(100 * d + r)
        model = make_model("full", d)
        gens = np.array(model.generators)
        occ = np.array(occupations(d, r), dtype=float)
        v = haar_unitary(d, rng)
        lam, vecs = np.linalg.eig(v)
        vecs /= np.linalg.norm(vecs, axis=0)
        xt = np.real(np.einsum("ai,jab,bi->ji", vecs.conj(), gens, vecs))
        assert np.max(np.abs(sym_frame_coefficients(v, gens, r)
                             - brute_force_coefficients(lam, xt, occ))) < 1e-12
        # near the identity, as in a stage whose estimate is close
        h = random_hermitian(d, rng)
        w, vecs = np.linalg.eigh(h)
        xt = np.real(np.einsum("ai,jab,bi->ji", vecs.conj(), gens, vecs))
        v = hermitian_expm(h, 0.3 / r)
        assert np.max(np.abs(sym_frame_coefficients(v, gens, r)
                             - brute_force_coefficients(np.exp(-0.3j / r * w), xt, occ))) < 1e-12

    def test_single_channel_matches_frame(self):
        # r = 1 is the MES probe (V (x) I)|MES> = vec(V)/sqrt(d) of the dense frame
        rng = np.random.default_rng(8)
        for kind, d in [("full", 2), ("full", 3), ("full", 4), ("phase", 3), ("offdiag", 4)]:
            model = make_model(kind, d)
            frame = postselection_frame(model)
            for v in (haar_unitary(d, rng),
                      hermitian_expm(hamiltonian(model, rng.standard_normal(model.m)), 0.2)):
                psi = v.reshape(-1) / math.sqrt(d)
                c = sym_frame_coefficients(v, model.generators, 1)
                assert np.max(np.abs(c - frame.basis.conj().T @ psi)) < 1e-12
                reduced, p = frame_projection(frame, psi)
                assert np.max(np.abs(c / np.linalg.norm(c) - reduced)) < 1e-12
                assert min(np.vdot(c, c).real, 1.0) == pytest.approx(p, abs=1e-12)

    def test_identity_gives_frame_origin(self):
        for d, r in [(2, 64), (3, 96)]:
            model = make_model("full", d)
            c = sym_frame_coefficients(np.eye(d), model.generators, r)
            assert np.max(np.abs(c - np.eye(model.m + 1)[0])) < 1e-12


def convolution_series(eigs, r):
    """h_k = Tr Sym^k(V) (k <= r) and g_a = h / (1 - lambda_a z) (k < r) by truncated convolution.

    The O(d r^2) construction that the cumulative-sum division replaced, kept as its reference.
    """
    powers = eigs[:, None] ** np.arange(r + 1)
    h = np.ones(1, dtype=complex)
    for series in powers:
        h = np.convolve(h, series)[:r + 1]
    return h, np.array([np.convolve(series, h[:r])[:r] for series in powers[:, :r]])


def recorded_series(monkeypatch, v, ops, r):
    """Every series that symmetric._divide returns in one sym_frame_coefficients call."""
    divide, out = symmetric._divide, []

    def record(s, p):
        out.append(divide(s, p))
        return out[-1]
    monkeypatch.setattr(symmetric, "_divide", record)
    sym_frame_coefficients(v, ops, r)
    return out


def spectrum_case(case, d, r, rng):
    """Haar, near the identity (tau = 0.3 / r), exactly I, or a two-fold eigenvalue."""
    if case == "haar":
        return haar_unitary(d, rng)
    if case == "near_identity":
        return hermitian_expm(random_hermitian(d, rng), 0.3 / r)
    if case == "identity":
        return np.eye(d, dtype=complex)
    phases = rng.uniform(-math.pi, math.pi, d)
    phases[1] = phases[0]
    q = haar_unitary(d, rng)
    return q @ np.diag(np.exp(1j * phases)) @ q.conj().T


class TestSeriesRecurrence:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("case", ["haar", "near_identity", "identity", "twofold"])
    @pytest.mark.parametrize("r", [2, 16, 64, 256, 1024])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_convolution(self, monkeypatch, d, r, case):
        # d - 1 divisions of lambda_0^k give h, one more gives every g_a; the
        # tolerance is fixed from float64 eps, relative to the series' largest entry
        v = spectrum_case(case, d, r, np.random.default_rng(10 * d + r))
        calls = recorded_series(monkeypatch, v, make_model("full", d).generators, r)
        assert len(calls) == d
        h, g = calls[-2], calls[-1]
        ref_h, ref_g = convolution_series(unitary_eig(v)[0], r)
        assert h.shape == ref_h.shape and g.shape == ref_g.shape
        tol = 256 * r * self.EPS
        assert np.max(np.abs(h - ref_h)) <= tol * np.max(np.abs(ref_h))
        assert np.max(np.abs(g - ref_g)) <= tol * np.max(np.abs(ref_g))

    def test_two_level_closed_form_at_large_r(self):
        # d = 2: h_k = (l1^(k+1) - l2^(k+1)) / (l1 - l2), |h_k| <= 1 / |sin(dphi / 2)|
        r = 32768
        v = haar_unitary(2, np.random.default_rng(32768))
        phi = np.angle(unitary_eig(v)[0])
        lam, top = np.exp(1j * phi), np.exp(1j * (r + 1) * phi)
        closed = (top[0] - top[1]) / (lam[0] - lam[1])
        c0 = sym_frame_coefficients(v, make_model("full", 2).generators, r)[0]
        bound = 256 * r * self.EPS / abs(math.sin((phi[0] - phi[1]) / 2))
        assert abs(c0 - closed / (r + 1)) <= bound / (r + 1)

    @pytest.mark.parametrize("r", [0, -1, 2.0])
    def test_rejects_r_not_positive_integer(self, r):
        model = make_model("full", 2)
        v = haar_unitary(2, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="r must be an integer >= 1"):
            sym_frame_coefficients(v, model.generators, r)


# (d, r) of the Jacobian oracle; (3, 682) and (2, 1024) are the largest r that
# the default r_max allows
JACOBIAN_PAIRS = [(2, 1), (3, 1), (2, 2), (2, 5), (2, 64), (3, 12), (4, 9), (3, 682), (2, 1024)]


def stage_path(case, d, r):
    """(model, x, star, tau) of a path x -> V = exp(+i tau H_star) exp(-i tau H_x).

    generic: Haar-like star, x near it; identity: H = 0 and no counter, so
    V = I; phase: the commuting diagonal model; counter: x = star, so
    V = counter U = I up to rounding while dV is not 0.  tau is of order 1 / r.
    """
    model = make_model("phase" if case == "phase" else "full", d)
    rng = np.random.default_rng(1000 * d + r)
    star = rng.standard_normal(model.m)
    star /= np.linalg.norm(star)
    x = star + 0.3 * rng.standard_normal(model.m)
    tau = 0.5 if r == 1 else 1.0 / r
    if case == "identity":
        return model, np.zeros(model.m), None, tau
    if case == "counter":
        return model, star, star, tau
    return model, x, star, tau


def numpy_path(model, star, tau):
    ops = np.asarray(model.generators)
    counter = np.eye(model.d) if star is None else hermitian_expm(hamiltonian(model, star), -tau)

    def v_and_dv(x):
        u, du = hermitian_expm_derivatives(hamiltonian(model, x), tau, ops)
        return counter @ u, counter @ du

    return v_and_dv


def mp_stage(mp, model, star, tau, r):
    """x -> frame coefficients of Sym^r(V) at mpmath precision, with no eigendecomposition.

    The e_i of V's eigenvalues follow from Tr V^i (Newton's identities), and
    the h_k from sum_i (-1)^i e_i h_{k-i} = 0.  By Cayley-Hamilton,
    V^k = sum_{i<d} a_ki V^i with a scalar recurrence on a_k, so
    c_j = sum_{i<d} b_i Tr(X_j V^i) / (D sqrt(F2)), b_i = sum_{k=1..r} h_{r-k} a_ki.
    """
    d = model.d
    gens = [mp.matrix(g.tolist()) for g in model.generators]

    def ham(theta):
        out = mp.zeros(d)
        for t, g in zip(theta, gens):
            out += mp.mpf(t) * g
        return out

    counter = mp.eye(d) if star is None else mp.expm(1j * mp.mpf(tau) * ham(star))
    dim = sym_dim(d, r)
    scale = dim * mp.sqrt(mp.mpf(r * (d + r)) / (d * (d + 1)))
    return lambda x: _mp_coefficients(mp, gens, counter * mp.expm(-1j * mp.mpf(tau) * ham(x)),
                                      r, dim, scale)


@functools.cache
def mp_reference(case, d, r):
    """(c, dc) at x of the stage path: mpmath coefficients and their central difference."""
    mp = pytest.importorskip("mpmath")
    model, x, star, tau = stage_path(case, d, r)
    step = mp.mpf("1e-10")
    with mp.workdps(30):
        coefficients = mp_stage(mp, model, star, tau, r)
        ref_c = np.array(coefficients(x), dtype=complex)
        ref = np.empty((model.m + 1, model.m), dtype=complex)
        for k in range(model.m):
            xs = [mp.mpf(t) for t in x]
            up = xs[:k] + [xs[k] + step] + xs[k + 1:]
            dn = xs[:k] + [xs[k] - step] + xs[k + 1:]
            ref[:, k] = [complex((a - b) / (2 * step))
                         for a, b in zip(coefficients(up), coefficients(dn))]
    return ref_c, ref


def _mp_coefficients(mp, gens, v, r, dim, scale):
    d = v.rows
    powers = [mp.eye(d)]
    for _ in range(d):
        powers.append(powers[-1] * v)
    p = [sum(w[a, a] for a in range(d)) for w in powers[1:]]
    e = [mp.mpc(1)]
    for i in range(1, d + 1):
        e.append(sum((-1) ** (j - 1) * e[i - j] * p[j - 1] for j in range(1, i + 1)) / i)
    h = [mp.mpc(1)]
    for k in range(1, r + 1):
        h.append(sum((-1) ** (i + 1) * e[i] * h[k - i] for i in range(1, min(k, d) + 1)))
    a, b = [mp.mpc(1)] + [mp.mpc(0)] * (d - 1), [mp.mpc(0)] * d
    for k in range(1, r + 1):         # a <- coefficients of V^k
        top = a[-1]
        a = [mp.mpc(0)] + a[:-1]
        for i in range(1, d + 1):
            a[d - i] += (-1) ** (i + 1) * e[i] * top
        b = [bi + h[r - k] * ai for bi, ai in zip(b, a)]
    return [h[r] / dim] + [sum(bi * sum((g * w)[a_, a_] for a_ in range(d))
                               for bi, w in zip(b, powers)) / scale for g in gens]


class TestFrameJacobian:
    """Frame coefficients on V = counter exp(-i tau H_x), and at r = 1 sym_frame_tangents
    with dV from the Frechet derivative."""

    CASES = ("generic", "identity", "phase", "counter")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d,r", JACOBIAN_PAIRS)
    def test_matches_mpmath(self, d, r, case):
        model, x, star, tau = stage_path(case, d, r)
        ref_c, ref = mp_reference(case, d, r)
        v, dv = numpy_path(model, star, tau)(x)
        c = sym_frame_coefficients(v, model.generators, r)
        assert np.max(np.abs(c - ref_c)) < 5e-12
        if r == 1:
            c, dc = sym_frame_tangents(v, dv, model.generators)
            assert np.max(np.abs(c - ref_c)) < 5e-12
            rel = np.max(np.abs(dc - ref)) / np.max(np.abs(ref))
            assert rel < 1e-9, rel

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d,r", JACOBIAN_PAIRS)
    def test_matches_richardson(self, d, r, case):
        # the step-1e-3 difference carries the coefficients' rounding divided
        # by the step, which grows with r: its own error, not the Jacobian's.
        # At r >= 2, where no analytic Jacobian is computed, the difference of
        # sym_frame_coefficients is held to the mpmath derivative instead.
        model, x, star, tau = stage_path(case, d, r)
        path = numpy_path(model, star, tau)
        dc = (sym_frame_tangents(*path(x), model.generators)[1] if r == 1
              else mp_reference(case, d, r)[1])
        ref = richardson_derivative(
            lambda y: sym_frame_coefficients(path(y)[0], model.generators, r), x, 1e-3)
        rel = np.max(np.abs(dc - ref.T)) / np.max(np.abs(dc))
        assert rel < 2e-11 * r, rel


class TestTraceMoments:
    def test_worked_second_moment(self):
        mom = collective_trace_moments(sym_space(2, 2), SZ / math.sqrt(2))
        assert mom["m2_actual"] == pytest.approx(4 / 3, abs=1e-12)
        assert mom["m2_predicted"] == pytest.approx(4 / 3, abs=1e-12)

    def test_worked_fourth_moment(self):
        mom = collective_trace_moments(sym_space(2, 2), SZ / math.sqrt(2))
        # spectrum (sqrt2, 0, -sqrt2): F4 * 1/2 + F22 * 1 = 10/6 + 1 = 8/3
        assert mom["F4"] == pytest.approx(10 / 3, abs=1e-12)
        assert mom["F22"] == pytest.approx(1.0, abs=1e-12)
        assert mom["m4_actual"] == pytest.approx(8 / 3, abs=1e-12)
        assert mom["m4_predicted"] == pytest.approx(8 / 3, abs=1e-12)

    def test_single_channel_reduction(self):
        # r = 1: coefficients collapse to F2 = F4 = 1/d, F22 = 0, so the
        # normalized moments reduce to Tr X^2 / d and Tr X^4 / d
        for d in (2, 3):
            space = sym_space(d, 1)
            assert f2_coeff(d, 1) == pytest.approx(1 / d)
            assert f4_coeff(d, 1) == pytest.approx(1 / d)
            assert f22_coeff(d, 1) == 0.0
            x = random_hermitian(d, np.random.default_rng(d), traceless=True)
            mom = collective_trace_moments(space, x)
            assert mom["m2_actual"] == pytest.approx(
                float(np.trace(x @ x).real) / d, abs=1e-12)
            assert mom["m4_actual"] == pytest.approx(
                float(np.trace(x @ x @ x @ x).real) / d, abs=1e-12)

    def test_identities_random_grid(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for r in (1, 2, 3, 4):
                space = sym_space(d, r)
                for _ in range(10):
                    x = random_hermitian(d, rng, traceless=True)
                    mom = collective_trace_moments(space, x)
                    assert abs(mom["m2_actual"] - mom["m2_predicted"]) < 1e-9
                    assert abs(mom["m4_actual"] - mom["m4_predicted"]) < 1e-9

    def test_hs_norm_scaling(self):
        rng = np.random.default_rng(4)
        for d, r in [(2, 3), (3, 4)]:
            space = sym_space(d, r)
            x = random_hermitian(d, rng, traceless=True)
            cx = collective(space, x)
            assert hs_inner(cx, cx).real == pytest.approx(
                space.D * f2_coeff(d, r) * hs_inner(x, x).real, rel=1e-9)

    def test_cross_orthogonality(self):
        model = make_model("full", 2)
        space = sym_space(2, 3)
        ops = [collective(space, x) for x in model.generators]
        for j, a in enumerate(ops):
            for k, b in enumerate(ops):
                expect = f2_coeff(2, 3) if j == k else 0.0
                assert hs_inner(a, b).real / space.D == pytest.approx(
                    expect, abs=1e-9)

    def test_rejects_traced_input(self):
        with pytest.raises(ValidationError):
            collective_trace_moments(sym_space(2, 2), np.eye(2))


class TestMagnus:
    def test_perfect_feedback(self):
        h = SZ * 0.4
        assert np.max(np.abs(magnus_operator(h, h, 0.9))) < 1e-12

    def test_commuting_exact(self):
        h_star = np.diag([0.3, -0.3]).astype(complex)
        h_theta = np.diag([0.1, -0.1]).astype(complex)
        m = magnus_operator(h_star, h_theta, 0.7)
        assert np.max(np.abs(m - (h_theta - h_star))) < 1e-12

    def test_defining_property(self):
        rng = np.random.default_rng(5)
        h_star = random_hermitian(3, rng) * 0.3
        h_theta = random_hermitian(3, rng) * 0.3
        tau = 0.4
        m = magnus_operator(h_star, h_theta, tau)
        lhs = hermitian_expm(m, tau)
        rhs = hermitian_expm(h_star, -tau) @ hermitian_expm(h_theta, tau)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_small_time_distance_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            h_star = random_hermitian(2, rng)
            h_theta = random_hermitian(2, rng)
            nrm = max(np.linalg.norm(h_star, 2), np.linalg.norm(h_theta, 2))
            tau = 0.2 * rng.random() / nrm
            if tau * nrm < 1e-3:
                continue
            m = magnus_operator(h_star, h_theta, tau)
            diff = m - (h_theta - h_star)
            lhs = math.sqrt(hs_inner(diff, diff).real)
            bound = (2.0 * tau * math.sqrt(hs_inner(h_star, h_star).real)
                     * math.sqrt(hs_inner(h_theta - h_star,
                                          h_theta - h_star).real))
            assert lhs <= bound + 1e-12

    def test_branch_cut_propagates(self):
        with pytest.raises(BranchCutError):
            magnus_operator(np.zeros((2, 2)), SZ * np.pi, 1.0)

    def test_zero_tau_rejected(self):
        with pytest.raises(ValidationError):
            magnus_operator(SZ, SZ, 0.0)
