import math
import pickle

import numpy as np
import pytest

from hamest.errors import ValidationError
from hamest.linalg import hs_inner, su_basis
from hamest.model import hamiltonian, make_model, max_energy
from hamest.probe import Schedule, mes, qfi_matrix
from hamest.verify import sym_space

SZ = np.diag([1.0, -1.0]).astype(complex)


def test_full_d2():
    model = make_model("full", 2)
    assert model.m == 3
    assert np.allclose(model.x_sum, 1.5 * np.eye(2), atol=1e-12)
    assert abs(model.c - 1.5) < 1e-12
    assert model.spherical


def test_offdiag_d3_nonspherical():
    model = make_model("offdiag", 3)
    assert model.m == 2
    assert abs(model.c - 1.0) < 1e-12          # (d - 1) / 2
    assert not model.spherical


@pytest.mark.parametrize("d", [3, 4, 5])
def test_offdiag_c_closed_form(d):
    assert abs(make_model("offdiag", d).c - (d - 1) / 2) < 1e-12


def test_phase_d2():
    model = make_model("phase", 2)
    assert model.m == 1
    assert np.allclose(model.generators[0], SZ / math.sqrt(2), atol=1e-12)
    assert np.allclose(model.x_sum, 0.5 * np.eye(2), atol=1e-12)
    assert model.spherical


def test_custom_accepts_orthonormal_set():
    gens = su_basis(3)[:4]
    model = make_model("custom", 3, gens)
    assert model.m == 4


def test_custom_rejects_nonorthonormal():
    bad = [SZ / math.sqrt(2), SZ / math.sqrt(2)]
    with pytest.raises(ValidationError, match="Gram"):
        make_model("custom", 2, bad)


def test_unknown_kind():
    with pytest.raises(ValidationError):
        make_model("bogus", 2)


def test_hamiltonian_linearity():
    model = make_model("full", 2)
    assert np.max(np.abs(hamiltonian(model, np.zeros(3)))) == 0
    assert np.allclose(hamiltonian(model, [0, 0, math.sqrt(2)]), SZ, atol=1e-12)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    lhs = hamiltonian(model, a) + hamiltonian(model, b)
    assert np.max(np.abs(lhs - hamiltonian(model, a + b))) < 1e-12


@pytest.mark.parametrize("kind,d", [("full", 3), ("phase", 4), ("offdiag", 5)])
def test_hamiltonian_matches_generator_loop(kind, d):
    # the stacked product adds theta_j X_j in the loop's order, so it is bit-identical
    model, rng = make_model(kind, d), np.random.default_rng(9)
    for _ in range(20):
        theta = rng.standard_normal(model.m)
        h = np.zeros((d, d), dtype=complex)
        for coeff, x in zip(theta, model.generators):
            h += coeff * x
        assert np.array_equal(hamiltonian(model, theta), h)


def test_generator_stack_read_only():
    model = make_model("full", 2)
    assert model.generators.shape == (3, 2, 2)
    with pytest.raises(ValueError):
        model.generators[0, 0, 0] = 1.0


def test_x_sum_read_only():
    model = make_model("offdiag", 3)
    with pytest.raises(ValueError):
        model.x_sum[0, 0] = 5
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(model)).x_sum[0, 0] = 5


def test_hamiltonian_length_mismatch():
    with pytest.raises(ValidationError):
        hamiltonian(make_model("full", 2), [1.0, 2.0])


def test_max_energy_values():
    model = make_model("full", 2)
    assert abs(max_energy(model, 1.0) - math.sqrt(1.5)) < 1e-12
    assert max_energy(model, 0.0) == 0.0
    for kind, d in [("full", 3), ("phase", 4)]:
        spherical = make_model(kind, d)
        assert spherical.spherical
        assert abs(max_energy(spherical, 2.0)
                   - 2.0 * math.sqrt(spherical.m / d)) < 1e-12


@pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gram_identity_all_builtin(kind, d):
    model = make_model(kind, d)
    gram = np.array([[hs_inner(a, b) for b in model.generators]
                     for a in model.generators])
    assert np.max(np.abs(gram - np.eye(model.m))) < 1e-8


@pytest.mark.parametrize("kind,d", [("full", 2), ("full", 3), ("phase", 3),
                                    ("phase", 6), ("offdiag", 2)])
def test_spherical_proportionality(kind, d):
    model = make_model(kind, d)
    if model.spherical:
        assert np.max(np.abs(model.x_sum - model.m / d * np.eye(d))) <= 1e-8


@pytest.mark.parametrize("kind,d", [("full", 2), ("offdiag", 3), ("phase", 4)])
def test_max_energy_dominates_spectral_radius(kind, d):
    model = make_model(kind, d)
    rng = np.random.default_rng(17)
    e_radius = 1.3
    bound = max_energy(model, e_radius)
    for _ in range(10_000):
        theta = rng.standard_normal(model.m)
        theta *= e_radius * rng.random() / np.linalg.norm(theta)
        radius = np.max(np.abs(np.linalg.eigvalsh(hamiltonian(model, theta))))
        assert radius <= bound + 1e-9


def _schedule():
    return Schedule(r=1, initial=mes(2), steps=((0.5, None),))


@pytest.mark.parametrize("build", [
    lambda: make_model("full", 2),
    lambda: mes(2),
    _schedule,
    lambda: qfi_matrix(make_model("full", 2), np.zeros(3), _schedule()),
    lambda: sym_space(2, 3),
], ids=["HamiltonianModel", "PureState", "Schedule", "QfiReport", "SymSpace"])
def test_array_holding_records_compare_by_identity(build):
    # value equality over array fields is ambiguous; identity equality never raises
    a, rebuilt = build(), build()
    assert a == a
    assert (a != rebuilt) is True
    assert len({a, rebuilt}) == 2
