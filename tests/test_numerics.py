import numpy as np
import pytest

from dpris import numerics

import oracles


def test_db_round_trip():
    for value in (1e-14, 0.2, 1.0, 37.5, 1e12):
        assert numerics.db_to_linear(10.0 * np.log10(value)) == pytest.approx(value, rel=1e-12)
    for db in (-96.0, -49.7, 0.0, 17.0):
        assert 10.0 * np.log10(numerics.db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_db_reference_values():
    # -96 dBm and -49.7 dB are the stock noise/pathloss figures
    assert numerics.dbm_to_watts(-96.0) == pytest.approx(2.5118864315095801e-13, rel=1e-12)
    assert numerics.db_to_linear(-49.7) == pytest.approx(1.0715193052376064e-05, rel=1e-12)
    assert numerics.db_to_linear(0.0) == 1.0


def test_stream_factory_reproducible():
    a = oracles.SeededStreamFactory(1234)
    b = oracles.SeededStreamFactory(1234)
    for index in (0, 1, 17):
        draws_a = a.stream(index).standard_normal(1_000_000)
        draws_b = b.stream(index).standard_normal(1_000_000)
        assert np.array_equal(draws_a, draws_b)


def test_stream_factory_streams_differ():
    factory = oracles.SeededStreamFactory(5)
    x = factory.stream(0).standard_normal(1000)
    y = factory.stream(1).standard_normal(1000)
    assert not np.allclose(x, y)
    # crude independence check: correlation of independent streams is ~0
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.12


def test_stream_factory_rejects_negative_index():
    with pytest.raises(ValueError):
        oracles.SeededStreamFactory(1).stream(-1)


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


def test_eigendecomposition_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        oracles.symmetric_eigendecomposition(np.array([[1.0, 2.0], [0.5, 1.0]]))


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


def test_det2_rejects_negative_weights():
    with pytest.raises(ValueError):
        oracles.det2_hermitian_form(np.zeros((2, 2), dtype=complex), -0.1, 0.5, 1.0)


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
