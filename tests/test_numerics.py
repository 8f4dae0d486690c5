import numpy as np
import pytest

from dpris.exceptions import ModelInconsistencyError

import oracles

#: A unit-diagonal symmetric matrix with a negative eigenvalue.
NON_PSD = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])


def test_eigendecomposition_identity_and_diagonal():
    values, vectors = oracles.symmetric_eigendecomposition(np.eye(4))
    assert np.array_equal(values, np.ones(4))
    assert np.array_equal(vectors, np.eye(4))
    values, vectors = oracles.symmetric_eigendecomposition(np.diag([3.0, 1.0]))
    assert np.allclose(values, [3.0, 1.0])
    assert np.allclose(np.abs(vectors), np.eye(2))


def test_eigendecomposition_reconstructs_random_gram():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        gram = a @ a.T
        values, vectors = oracles.symmetric_eigendecomposition(gram)
        assert np.all(np.diff(values) <= 0)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        scale = np.linalg.norm(gram)
        assert np.linalg.norm(rebuilt - gram) <= 1e-10 * scale
        assert np.linalg.norm(vectors.T @ vectors - np.eye(8)) <= 1e-10


def test_det2_trivial_cases():
    zero = np.zeros((2, 2), dtype=complex)
    assert oracles.det2_hermitian_form(zero, 0.5, 0.5, 3.0) == 1.0
    g = np.array([[1 + 1j, 0.3], [0.2j, 2.0]])
    assert oracles.det2_hermitian_form(g, 0.0, 0.0, 3.0) == 1.0


def test_det2_matches_generic_determinant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lv, lh = rng.uniform(0, 1, 2)
        rho = rng.uniform(0.01, 100)
        lam = np.diag([lv, lh])
        reference = np.linalg.det(np.eye(2) + rho * g @ lam @ g.conj().T).real
        value = oracles.det2_hermitian_form(g, lv, lh, rho)
        assert value == pytest.approx(reference, rel=1e-12)
        assert value >= 1.0


def test_log2_det2_accurate_for_tiny_shift():
    g = np.array([[1e-7 + 0j, 0.0], [0.0, 1e-7]])
    value = oracles.log2_det2(g, 0.5, 0.5, 1.0)
    expected = np.log1p(1e-14 + 0.25 * 1e-28) / np.log(2.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value > 0.0


def test_gauss_legendre_integrates_polynomial():
    x, w = oracles.gauss_legendre(8, 0.0, 2.0)
    assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.gauss_legendre(0, 0.0, 1.0)


@pytest.mark.parametrize(
    "oracle,args,error",
    [
        pytest.param(
            oracles.correlation_sqrt,
            (NON_PSD,),
            ModelInconsistencyError,
            id="correlation-sqrt-non-psd",
        ),
        pytest.param(
            oracles.correlation_sqrt,
            (2.0 * np.eye(3),),
            ValueError,
            id="correlation-sqrt-bad-diagonal",
        ),
        pytest.param(
            oracles.symmetric_eigendecomposition,
            (np.array([[1.0, 2.0], [0.5, 1.0]]),),
            ValueError,
            id="eigendecomposition-nonsymmetric",
        ),
        pytest.param(
            oracles.det2_hermitian_form,
            (np.zeros((2, 2), dtype=complex), -0.1, 0.5, 1.0),
            ValueError,
            id="det2-negative-weights",
        ),
    ],
)
def test_oracle_rejects_bad_input(oracle, args, error):
    """A test oracle rejects an input outside its domain, as the package's
    own checks would, so a broken oracle cannot pass a wrong value."""
    with pytest.raises(error) as excinfo:
        oracle(*args)
    if error is ModelInconsistencyError:
        # the rejection names the eigenvalue that makes the matrix non-PSD
        assert excinfo.value.details["min_eigenvalue"] < 0
