import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poolscreen.model import (
    NoiseModel,
    UniformLoad,
    apply_noise_vec,
    generate_signal_fixed_k,
    _irwin_hall_pdf,
)


# ---------------------------------------------------------------- signals


def test_generate_signal_fixed_k_support_and_box():
    law = UniformLoad(1.0, 1000.0)
    sig = generate_signal_fixed_k(200, 17, law, np.random.default_rng(3))
    assert sig.shape == (200,) and sig.dtype == np.float64
    support = np.flatnonzero(sig)
    assert len(support) == 17
    vals = sig[support]
    assert np.all((vals >= 1.0) & (vals <= 1000.0))
    with pytest.raises(ValueError, match="read-only"):
        sig[0] = 1.0


# ---------------------------------------------------------------- noise


@given(
    y=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_apply_noise_preserves_zero_exactly(y, seed):
    [z] = apply_noise_vec(np.array([y]), NoiseModel(), np.random.default_rng(seed))
    assert (z == 0.0) == (y == 0.0)
    assert z >= 0.0


def test_apply_noise_noiseless_limit():
    [z] = apply_noise_vec(np.array([5.0]), NoiseModel(sigma_eps=1e-12), np.random.default_rng(7))
    assert abs(z - 5.0) < 1e-9


def test_apply_noise_scale_equivariance_same_seed():
    # identical noise draw, so readings scale exactly with the input
    noise = NoiseModel()
    [z1] = apply_noise_vec(np.array([1.0]), noise, np.random.default_rng(11))
    [z100] = apply_noise_vec(np.array([100.0]), noise, np.random.default_rng(11))
    assert z100 == pytest.approx(100.0 * z1, rel=1e-15)


def test_noise_log_moments():
    # ln z - ln y ~ N(0, sigma_eps^2); check both moments at 3 sigma
    noise = NoiseModel()  # sigma = 0.1 * ln 1.95
    rng = np.random.default_rng(5)
    draws = 100_000
    logs = np.log(apply_noise_vec(np.ones(draws), noise, rng))
    se_mean = noise.sigma_eps / math.sqrt(draws)
    se_sd = noise.sigma_eps / math.sqrt(2 * draws)
    assert abs(logs.mean()) < 3 * se_mean
    assert abs(logs.std(ddof=1) - noise.sigma_eps) < 3 * se_sd


def test_apply_noise_vec_one_draw_per_entry():
    # each entry consumes one noise draw even when its quantity is zero,
    # so later entries see the same draws regardless of earlier zeros
    noise = NoiseModel()
    za = apply_noise_vec(np.array([0.0, 5.0, 2.0]), noise, np.random.default_rng(9))
    zb = apply_noise_vec(np.array([3.0, 5.0, 2.0]), noise, np.random.default_rng(9))
    assert za[0] == 0.0 and zb[0] > 0.0
    assert za[1] == zb[1] and za[2] == zb[2]


def test_apply_noise_rejects_negative():
    with pytest.raises(ValueError):
        apply_noise_vec(np.array([-1.0]), NoiseModel(), np.random.default_rng(0))


def test_noise_model_validation():
    for sigma in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            NoiseModel(sigma_eps=sigma)


# ---------------------------------------------------------------- load laws


def test_uniform_load_sum_density_k1():
    law = UniformLoad(1.0, 1000.0)
    got = law.sum_density(np.array([1]), np.array([500.0, 0.5, 1000.5]))[0]
    assert got[0] == pytest.approx(1.0 / 999.0, rel=1e-12)
    assert got[1] == 0.0
    assert got[2] == 0.0


def test_uniform_load_sum_density_k2_triangle():
    # oracle: sum of two U[1,1000] has the triangle density peaking at 1001
    law = UniformLoad(1.0, 1000.0)
    w = 999.0
    ys = np.array([1001.0, 500.0, 800.0, 1400.0, 1900.0])
    got = law.sum_density(np.array([2]), ys)[0]
    assert got[0] == pytest.approx(1.0 / w, rel=1e-10)
    for y, g in zip(ys[1:], got[1:]):
        expected = (w - abs(y - 1001.0)) / w**2 if abs(y - 1001.0) < w else 0.0
        assert g == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_sum_density_gives_one_row_per_count():
    law = UniformLoad(1.0, 1000.0)
    ks, ys = np.array([1, 2, 3, 12, 13, 31]), np.array([30.0, 1700.0, 2500.0, 9000.0])
    got = law.sum_density(ks, ys)
    assert got.shape == (6, 4)
    for k, row in zip(ks, got):
        assert np.array_equal(row, law.sum_density(np.array([k]), ys)[0])


def test_irwin_hall_integrates_to_one():
    for k in (3, 7, 12, 13, 20, 31):
        x = np.linspace(0.0, k, 20_001)
        total = np.trapezoid(_irwin_hall_pdf(x, np.array([k]))[0], x)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_irwin_hall_is_zero_past_its_support():
    # exact zeros on both sides, with no overflow at the extremes
    ks = np.array([1, 2, 3, 11, 12, 13, 20, 31])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(_irwin_hall_pdf(np.array([1e30]), np.array([12])), [[0.0]])
        got = _irwin_hall_pdf(np.array([-1e30, -0.5, 31.5, 40.0, 1e30]), ks)
    assert np.array_equal(got, np.zeros((8, 5)))


def test_sum_density_past_k12_matches_scipy_irwin_hall():
    # unit-width loads on [1, 2], so the sum density is the standard
    # Irwin-Hall density shifted by k, with no rescaling rounding
    law = UniformLoad(1.0, 2.0)
    for k in (13, 20, 31):
        x = np.linspace(-0.5, k + 0.5, 4_001)
        y = k + x
        [got] = law.sum_density(np.array([k]), y)
        want = stats.irwinhall(k).pdf(y - k)
        assert np.abs(got - want).max() <= 1e-15, k


def test_load_law_validation():
    with pytest.raises(ValueError):
        UniformLoad(5.0, 2.0)
    with pytest.raises(ValueError):
        UniformLoad(0.0, 10.0)
    with pytest.raises(ValueError):
        UniformLoad(1.0, math.inf)
    with pytest.raises(ValueError):
        UniformLoad(math.nan, 10.0)

