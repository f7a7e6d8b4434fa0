"""Decoder tests: screening, count posteriors, subset scores, list decoding.

Reference values come from independent oracles: scipy's Irwin-Hall
distribution and adaptive quadrature for densities, dense grid search for
the one-dimensional load fit, and bounded least squares for noiseless
feasibility.
"""

import functools
import hashlib
import itertools
import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from poolscreen.matrices import builtin_matrix
from poolscreen import recovery
from poolscreen.model import NoiseModel, UniformLoad
from poolscreen.recovery import (
    BudgetExceeded,
    DecoderConfig,
    ReducedInstance,
    comp,
    estimate_pool_count,
    estimate_prevalence,
    map_list_decode,
    _optimize_loads,
    sum_measurement_logpdf,
)

LAW = UniformLoad()
NOISE = NoiseModel()


def _instance(matrix, x, noise, rng, stage1=True):
    """The decode matrix and noisy readings for signal x, with an all-ones row first."""
    a = matrix.astype(float)
    if stage1:
        a = np.vstack([np.ones((1, a.shape[1])), a])
    y = a @ x
    z = np.where(y > 0, y * np.exp(rng.normal(0.0, noise.sigma_eps, size=y.shape)), 0.0)
    return a, z


def _exact_instance(matrix, x, stage1=True):
    """Same but with readings exactly equal to the pooled sums."""
    a = matrix.astype(float)
    if stage1:
        a = np.vstack([np.ones((1, a.shape[1])), a])
    return a, a @ x


# scoring scale for exact-reading tests: small enough to crush misfits,
# wide enough that the load search can reach the likelihood peak
QUIET = NoiseModel(sigma_eps=3e-4)


# ---------------------------------------------------------------------------
# comp


def test_comp_identity_keeps_positive_column():
    red = comp(np.eye(3), np.array([0.0, 5.2, 0.0]))
    assert red.survivors.tolist() == [1]
    assert red.active_rows.tolist() == [1]
    assert red.m_star == 1 and red.s_star == 1


def test_comp_all_positive_keeps_everything():
    rng = np.random.default_rng(0)
    a = (rng.random((4, 9)) < 0.5).astype(float)
    z = rng.uniform(1.0, 10.0, size=4)
    red = comp(a, z)
    assert red.survivors.tolist() == list(range(9))
    assert red.m_star == 4


def test_comp_matches_bruteforce_column_scan():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = (rng.random((8, 31)) < 0.3).astype(float)
        x = np.zeros(31)
        sup = rng.choice(31, size=3, replace=False)
        x[sup] = rng.uniform(1.0, 1000.0, size=3)
        z = a @ x
        red = comp(a, z)
        expected = [
            j for j in range(31) if not any(z[i] == 0 and a[i, j] for i in range(8))
        ]
        assert red.survivors.tolist() == expected
        assert set(sup.tolist()) <= set(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_comp_survivors_cover_true_support(seed):
    rng = np.random.default_rng(seed)
    m, n = 6, 20
    a = (rng.random((m, n)) < 0.4).astype(float)
    k = int(rng.integers(0, 4))
    x = np.zeros(n)
    if k:
        x[rng.choice(n, size=k, replace=False)] = rng.uniform(1.0, 1000.0, size=k)
    y = a @ x
    z = np.where(y > 0, y * np.exp(rng.normal(0.0, NOISE.sigma_eps, size=m)), 0.0)
    red = comp(a, z)
    assert set(np.flatnonzero(x).tolist()) <= set(red.survivors.tolist())


def test_pool_instance_validation():
    with pytest.raises(ValueError, match="matrix must be 2-D"):
        comp(np.ones(2), np.array([1.0]))
    with pytest.raises(ValueError, match="matrix must be 0/1"):
        comp(np.array([[0.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="one measurement per matrix row"):
        comp(np.eye(2), np.array([1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        comp(np.eye(2), np.array([1.0, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_pool_instance_rejects_a_reading_that_is_not_finite(bad):
    # a NaN would pass a sign test and decode to nothing
    with pytest.raises(ValueError, match="finite"):
        comp(np.eye(2), np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_reduced_instance_rejects_a_reading_that_is_not_finite(bad):
    # a hand-built instance skips comp's check; a NaN would decode
    # to nothing
    with pytest.raises(ValueError, match="finite"):
        ReducedInstance(
            survivors=np.arange(2),
            active_rows=np.arange(2),
            sub_matrix=np.array([[1.0, 0.0], [1.0, 1.0]]),
            sub_measurements=np.array([bad, 5.0]),
        )


# ---------------------------------------------------------------------------
# prevalence


def test_prevalence_endpoints():
    assert estimate_prevalence(0, 31, 31) == 0.0
    assert estimate_prevalence(31, 31, 31) == 1.0


def test_prevalence_against_high_precision_value():
    getcontext().prec = 50
    oracle = 1 - (1 - Decimal(9) / Decimal(31)).ln().__truediv__(Decimal(31)).exp()
    got = estimate_prevalence(9, 31, 31)
    assert math.isclose(got, float(oracle), rel_tol=1e-12)


def test_prevalence_increases_in_t():
    vals = [estimate_prevalence(t, 31, 31) for t in range(32)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_prevalence_validation():
    with pytest.raises(ValueError):
        estimate_prevalence(-1, 31, 31)
    with pytest.raises(ValueError):
        estimate_prevalence(5, 4, 31)
    with pytest.raises(ValueError):
        estimate_prevalence(1, 0, 31)


# ---------------------------------------------------------------------------
# count posterior


def _oracle_count_logpost(z1, s, p, noise, ks):
    """Independent posterior: scipy Irwin-Hall density, quadrature in noise."""
    eps = stats.lognorm(s=noise.sigma_eps)
    out = []
    for k in ks:
        ih = stats.irwinhall(k)

        def integrand(e, k=k, ih=ih):
            y = z1 / e
            return ih.pdf((y - k) / 999.0) / 999.0 * eps.pdf(e) / e

        # integrate only where both factors can be nonzero, the noise over
        # e^(+-16 sigma), past the quadrature's outermost node at 14.9 sigma
        lo = max(z1 / (1000.0 * k), math.exp(-16 * noise.sigma_eps))
        hi = min(z1 / k, math.exp(16 * noise.sigma_eps))
        val = integrate.quad(integrand, lo, hi, limit=400)[0] if lo < hi else 0.0
        prior = math.comb(s, k) * p**k * (1 - p) ** (s - k)
        out.append(math.log(prior * val) if prior * val > 0 else -math.inf)
    return np.array(out)


def _log_prior(s, p):
    ks = np.arange(1, s + 1)
    binom = np.array([math.lgamma(s + 1) - math.lgamma(k + 1) - math.lgamma(s - k + 1) for k in ks])
    return binom + ks * math.log(p) + (s - ks) * math.log1p(-p)


def _count_log_posterior(z1, s, p, noise, law):
    """Full-posterior reference: the unnormalized log posterior over k = 1..s
    for one positive pool read as z1, every count scored."""
    like = sum_measurement_logpdf(np.array([z1]), np.arange(1, s + 1), law, noise)
    return _log_prior(s, p) + like[:, 0]


def test_sum_logpdf_closed_form_single_load():
    # one load, reading deep inside the box: density is E[1/eps]/999 exactly
    [[got]] = sum_measurement_logpdf(np.array([30.0]), np.array([1]), LAW, NOISE)
    want = -math.log(999.0) + NOISE.sigma_eps**2 / 2.0
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="k must be"):
        sum_measurement_logpdf(np.array([30.0]), np.array([1, 0]), LAW, NOISE)


def test_sum_logpdf_matches_quadrature_oracle():
    # quadrature tolerance is loosest where the sum density kinks (small k)
    for k, z, tol in [(1, 30.0, 1e-9), (2, 1700.0, 2e-3), (3, 2900.0, 2e-3),
                      (5, 2444.5, 2e-3), (14, 7777.0, 2e-3), (20, 9876.0, 2e-3),
                      (31, 15000.0, 2e-3)]:
        [[got]] = sum_measurement_logpdf(np.array([z]), np.array([k]), LAW, NOISE)
        want = _oracle_count_logpost(z, 31, 0.5, NOISE, [k])[0]
        want -= math.log(math.comb(31, k) * 0.5**31)
        assert got == pytest.approx(want, abs=tol)


def test_count_estimate_single_load_scale():
    assert estimate_pool_count(np.array([30.0]), 31, 0.01, NOISE, LAW).tolist() == [1]
    oracle = _oracle_count_logpost(30.0, 31, 0.01, NOISE, range(1, 9))
    assert int(np.argmax(oracle)) + 1 == 1


def test_count_estimate_forced_past_two_loads():
    # 2900 exceeds twice the maximum load, so k >= 3 and the prior picks 3
    assert estimate_pool_count(np.array([2900.0]), 31, 0.01, NOISE, LAW).tolist() == [3]
    oracle = _oracle_count_logpost(2900.0, 31, 0.01, NOISE, range(1, 9))
    assert int(np.argmax(oracle)) + 1 == 3


@pytest.mark.parametrize(
    "z, p, want",
    [(5.0, 0.6, 1), (24_000.0, 0.001, 15), (30_000.0, 0.001, 17), (28_000.0, 0.05, 22)],
)
def test_count_estimate_matches_oracle_argmax_at_every_count(z, p, want):
    # a light reading that only a few loads can sum to, against a prior
    # that favours about 19 positives; and heavy pools whose counts lie
    # past k = 12, where every count must be scored exactly
    assert estimate_pool_count(np.array([z]), 31, p, NOISE, LAW).tolist() == [want]
    oracle = _oracle_count_logpost(z, 31, p, NOISE, range(1, 32))
    assert int(np.argmax(oracle)) + 1 == want


def test_count_posterior_matches_oracle_curve():
    got = _count_log_posterior(777.0, 31, 0.05, NOISE, LAW)[:8]
    want = _oracle_count_logpost(777.0, 31, 0.05, NOISE, range(1, 9))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-5, atol=1e-6)


def test_count_oracle_covers_the_quadrature_range():
    # counts 11 to 13 reach a reading of 5 only with the noise factor between
    # e^(-12 sigma) and e^(-14.9 sigma), the package quadrature's outermost node
    assert np.sqrt(2.0) * np.polynomial.hermite.hermgauss(64)[0].max() < 16.0
    oracle = _oracle_count_logpost(5.0, 31, 0.6, NOISE, range(11, 14))
    assert np.all(np.isfinite(oracle))


def test_count_estimate_rejects_nonpositive_reading():
    with pytest.raises(ValueError):
        estimate_pool_count(np.array([30.0, 0.0]), 31, 0.01, NOISE, LAW)
    with pytest.raises(ValueError):
        estimate_pool_count(np.array([-3.0]), 31, 0.01, NOISE, LAW)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_count_estimate_rejects_a_reading_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        estimate_pool_count(np.array([30.0, bad]), 31, 0.01, NOISE, LAW)


GH_NODES = np.polynomial.hermite.hermgauss(64)


@functools.lru_cache(maxsize=None)
def _scalar_log_like(z1, k, noise, law):
    """Reference log density of reading z1 for count k alone: one B-spline
    recursion over the k shifted unit boxes (the closed box for k = 1), then
    one Gauss-Hermite quadrature.  Cached, since it reads neither s nor p."""

    def irwin_hall(x):
        if k == 1:
            return ((x >= 0.0) & (x <= 1.0)).astype(float)
        shifts = [x - i for i in range(k)]
        m = [((t >= 0.0) & (t < 1.0)).astype(float) for t in shifts]
        for j in range(2, k + 1):
            m = [(shifts[i] * m[i] + (j - shifts[i]) * m[i + 1]) / (j - 1) for i in range(k - j + 1)]
        return m[0]

    x, w = GH_NODES
    u = math.sqrt(2.0) * noise.sigma_eps * x
    width = law.hi - law.lo
    fy = irwin_hall((z1 * np.exp(-u) - k * law.lo) / width) / width
    val = float(np.sum(w * fy * np.exp(-u))) / math.sqrt(math.pi)
    return math.log(val) if val > 0.0 else -math.inf


def _scalar_count_log_posterior(z1, s, p, noise, law):
    """Reference: the count posterior evaluated one k at a time."""
    ks = np.arange(1, s + 1)
    binom = np.array(
        [math.lgamma(s + 1) - math.lgamma(k + 1) - math.lgamma(s - k + 1) for k in ks]
    )
    log_prior = binom + ks * math.log(p) + (s - ks) * math.log1p(-p)
    return log_prior + np.array([_scalar_log_like(z1, int(k), noise, law) for k in ks])


def test_count_posterior_equals_per_count_reference():
    # same arithmetic in the same order, so equal to the last bit; readings
    # span the whole range and sit on the kinks of the sum density
    lo, hi = LAW.lo, LAW.hi
    zs = np.concatenate([np.geomspace(0.5, 3e4, 41), np.arange(1, 32) * lo, np.arange(1, 31) * hi])
    for p in (1e-3, 0.05, 0.125, 0.3):
        for s in (1, 12, 13, 31):
            for z in zs.tolist():
                want = _scalar_count_log_posterior(z, s, p, NOISE, LAW)
                got = _count_log_posterior(z, s, p, NOISE, LAW)
                assert np.array_equal(got, want), (z, s, p)


def test_count_pass_equals_full_posterior(monkeypatch):
    # the prior's mode lies past k = 1 at p = 0.3; every count the pass
    # scores is the full posterior's value to the last bit, and the pass
    # scores fewer counts than the full posterior where the prior rules
    # them out
    lo, hi = LAW.lo, LAW.hi
    zs = np.concatenate([np.geomspace(0.5, 3e4, 41), np.arange(1, 32) * lo, np.arange(1, 31) * hi])
    full = sum_measurement_logpdf
    scored = []

    def recorded(z, ks, law, noise):
        out = full(z, ks, law, noise)
        scored.append((z, ks, out))
        return out

    monkeypatch.setattr(recovery, "sum_measurement_logpdf", recorded)
    for p in (1e-3, 0.05, 0.125, 0.3):
        for s in (1, 12, 13, 31):
            want = {z: _scalar_count_log_posterior(z, s, p, NOISE, LAW) for z in zs.tolist()}
            scored.clear()
            got = estimate_pool_count(zs, s, p, NOISE, LAW)
            assert got.tolist() == [int(np.argmax(want[z])) + 1 for z in zs.tolist()], (s, p)
            prior = _log_prior(s, p)
            for z, ks, out in scored:
                for k, row in zip(ks.tolist(), out):
                    assert np.array_equal(prior[k - 1] + row, [want[x][k - 1] for x in z.tolist()])
            if p == 1e-3 and s == 31:
                assert sum(out.size for _, _, out in scored) < zs.size * s


def test_count_estimate_does_not_depend_on_its_batch():
    zs = np.concatenate([np.geomspace(0.5, 3e4, 41), np.arange(1, 31) * LAW.hi])
    for p in (1e-3, 0.125, 0.3):
        got = estimate_pool_count(zs, 31, p, NOISE, LAW)
        alone = [int(estimate_pool_count(np.array([z]), 31, p, NOISE, LAW)[0]) for z in zs.tolist()]
        assert got.tolist() == alone
        assert np.array_equal(estimate_pool_count(zs[::-1], 31, p, NOISE, LAW), got[::-1])


def test_count_posterior_is_finite_at_a_wide_noise_scale():
    # at sigma 5 the quadrature reads the sum densities far past their
    # support, where they must be exact zeros
    noise = NoiseModel(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        post = _count_log_posterior(500.0, 31, 0.05, noise, LAW)
        k_hat = estimate_pool_count(np.array([500.0]), 31, 0.05, noise, LAW)
    shrink = np.exp(-math.sqrt(2.0) * noise.sigma_eps * GH_NODES[0])
    ceiling = math.log((GH_NODES[1] * shrink).sum() / math.sqrt(math.pi) / (LAW.hi - LAW.lo))
    like = post - _log_prior(31, 0.05)
    assert np.all(np.isfinite(like)) and np.all(like <= ceiling + 1e-12)
    assert k_hat.tolist() == [int(np.argmax(post)) + 1]


# ---------------------------------------------------------------------------
# subset scoring


def _single_row_reduced(z):
    return ReducedInstance(
        survivors=np.array([0]),
        active_rows=np.array([0]),
        sub_matrix=np.ones((1, 1)),
        sub_measurements=np.array([z]),
    )


def test_score_single_column_matches_grid_search():
    z, p = 5.0, 0.01
    cfg = DecoderConfig(alpha=1.0)
    res = map_list_decode(_single_row_reduced(z), cfg, p, NOISE, LAW)
    grid = np.arange(1.0, 1000.0 + 0.0005, 0.001)
    # the reading's log-normal density given the load, from scipy
    vals = stats.lognorm.logpdf(z, s=NOISE.sigma_eps, scale=grid)
    best = int(np.argmax(vals))
    log_prior = math.log(p) - math.log(999.0)
    assert res.best.subset == (0,)
    assert res.best.log_score == pytest.approx(vals[best] + log_prior, abs=1e-5)
    assert res.best.converged


@pytest.mark.parametrize("z", [30.0, 420.0])
def test_score_likelihood_integrates_to_the_count_density(z):
    # the decoder and the count path score one model: for one column read
    # once, the score's likelihood part as a function of the load, integrated
    # over the uniform load law, is the count path's k = 1 density
    p, sig2 = 0.01, NOISE.sigma_eps**2
    cfg = DecoderConfig(alpha=1.0)
    res = map_list_decode(_single_row_reduced(z), cfg, p, NOISE, LAW)
    one, v = np.ones((1, 1, 1)), np.array([math.log(z)])

    def phi(x):
        return float(recovery._load_objective(one, np.array([[x]]), v, sig2)[0][0])

    # the best load reads z exactly, so the score less the prior and phi
    # there is the decoder's constant
    const = res.best.log_score - recovery._prior_part(1, 1, p, LAW) - phi(z)
    val = integrate.quad(lambda x: math.exp(phi(x) + const), LAW.lo, LAW.hi, points=[z], limit=400)[0]
    val /= LAW.hi - LAW.lo
    [[want]] = sum_measurement_logpdf(np.array([z]), np.array([1]), LAW, NOISE)
    assert math.log(val) == pytest.approx(want, abs=1e-9)


def test_score_zero_when_row_uncovered(monkeypatch):
    # the zero reading clears columns 0 and 2, so the first reading pools no
    # survivor: no candidate is scored and nothing explains the readings
    a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    red = comp(a, np.array([4.0, 0.0, 7.0]))
    assert red.survivors.tolist() == [1] and red.m_star == 2
    res = map_list_decode(red, DecoderConfig(), 0.1, NOISE, LAW)
    assert res.scored_count == 0
    assert res.best is None and res.estimate == ()

    # with 20 survivors, the decode returns before listing any of their
    # 2^20 subsets
    calls = []
    row_counts = recovery._row_counts
    monkeypatch.setattr(
        recovery, "_row_counts", lambda *args: calls.append(1) or row_counts(*args)
    )
    a = np.zeros((3, 21))
    a[0, 20] = a[1, 20] = 1.0  # the first reading pools only column 20, which the zero clears
    a[2, :20] = 1.0
    red = comp(a, np.array([300.0, 0.0, 2000.0]))
    assert red.s_star == 20 and red.m_star == 2
    res = map_list_decode(red, DecoderConfig(), 0.1, NOISE, LAW)
    assert calls == []
    assert res.scored_count == 0
    assert res.best is None and res.estimate == ()

    # with no positive reading, nothing is left to explain
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    red = comp(a, np.zeros(2))
    assert red.survivors.tolist() == [2] and red.m_star == 0
    res = map_list_decode(red, DecoderConfig(), 0.1, NOISE, LAW)
    assert res == recovery.DecodeResult((), None, 0, False)
    assert calls == []


def test_decode_returns_nothing_when_every_score_overflows():
    # at a noise scale near the smallest NoiseModel accepts, a reading far
    # above the load box's top misfits by more than a float can hold: every
    # candidate scores -inf, and none leads the list
    # with one row pooling four or eight columns, some Newton blocks
    # overflow too far for eigvalsh, and their starts must settle
    tiny = NoiseModel(sigma_eps=1.5e-154)
    cases = [
        (np.ones((1, 1)), 1e6, 1),
        (np.eye(2), 1e6, 1),
        (np.ones((1, 4)), 1e9, 15),
        (np.ones((1, 8)), 1e9, 255),
    ]
    for a, z, scored in cases:
        red = ReducedInstance(
            survivors=np.arange(a.shape[1]),
            active_rows=np.arange(a.shape[0]),
            sub_matrix=a,
            sub_measurements=np.full(a.shape[0], z),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            res = map_list_decode(red, DecoderConfig(), 0.1, tiny, LAW)
        assert res == recovery.DecodeResult((), None, scored, False)


# ---------------------------------------------------------------------------
# load optimizer


def _phi_on_grid(a, v, sigma, axes):
    """The load objective at every point of the grid spanned by axes (one per column).

    That is the readings' log-normal log likelihood, from scipy, less its
    value where every row's pooled load equals its reading.
    """
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, a.shape[1])
    z = np.exp(v)
    fit = stats.lognorm.logpdf(z, s=sigma, scale=z)
    return (stats.lognorm.logpdf(z, s=sigma, scale=mesh @ a.T) - fit).sum(axis=1), mesh


def log_posterior_gradient(red, subset, loads, noise):
    """Gradient of the load log-objective at loads > 0 for one subset.

    The reference the optimizer's KKT checks use; every positive reading
    must pool at least one subset column.
    """
    a = red.sub_matrix[:, np.asarray(subset, dtype=np.intp)]
    y = a @ loads
    v = np.log(red.sub_measurements)
    u = np.log(y)
    return a.T @ ((v - u) / (noise.sigma_eps**2 * y))


def _kkt_residual(red, subset, loads):
    """Largest move of a projected gradient step; zero exactly at a KKT point."""
    g = log_posterior_gradient(red, subset, loads, NOISE)
    return float(np.abs(np.clip(loads + g, LAW.lo, LAW.hi) - loads).max())


def _optimize_subset(red, subset):
    a = red.sub_matrix[:, list(subset)]
    v = np.log(red.sub_measurements)
    G, X, conv = _optimize_loads(a[None], v, NOISE.sigma_eps**2, LAW.lo, LAW.hi)
    return float(G[0]), X[0], bool(conv[0]), a, v


def test_score_concentrates_on_true_support_noiseless():
    mat = builtin_matrix(6, 31)
    x = np.zeros(31)
    x[[4, 17]] = [300.0, 88.0]
    red = comp(*_exact_instance(mat, x))
    loc = {int(c): i for i, c in enumerate(red.survivors)}
    # every pair that pools each positive reading, the true one among them;
    # pairs share their prior terms, so the load objective ranks them
    pairs = [
        pair for pair in itertools.combinations(range(red.s_star), 2)
        if red.sub_matrix[:, list(pair)].any(axis=1).all()
    ]
    a = np.stack([red.sub_matrix[:, list(pair)] for pair in pairs])
    v = np.log(red.sub_measurements)
    G, X, _ = _optimize_loads(a, v, QUIET.sigma_eps**2, LAW.lo, LAW.hi)
    top = pairs.index((loc[4], loc[17]))
    assert np.allclose(X[top], [300.0, 88.0], rtol=1e-3)
    assert G[top] > np.delete(G, top).max()


def _best_of_random_starts(a, v, rng, n=64):
    """Per candidate of a, the best optimum of n starts drawn uniformly from the box."""
    starts = rng.uniform(LAW.lo, LAW.hi, size=(a.shape[0] * n, a.shape[2]))
    G, _, _ = recovery._newton_ascent(
        np.repeat(a, n, axis=0), np.log(starts), v, NOISE.sigma_eps**2,
        math.log(LAW.lo), math.log(LAW.hi),
    )
    return G.reshape(a.shape[0], n).max(axis=1)


def test_score_multistart_runs_agree():
    # the one start reaches the best optimum that many random starts find:
    # on three noisy positives of a shipped 7x31 design, on every covering
    # pair of one mixed pool, and on batches that push loads onto the bounds
    rng = np.random.default_rng(11)
    mat = builtin_matrix(7, 31)
    x = np.zeros(31)
    sup = [2, 9, 25]
    x[sup] = rng.uniform(1.0, 1000.0, size=3)
    red = comp(*_instance(mat, x, NOISE, rng))
    loc = {int(c): i for i, c in enumerate(red.survivors)}
    G, _, conv, a, v = _optimize_subset(red, tuple(loc[c] for c in sup))
    G_random = _best_of_random_starts(a[None], v, rng)[0]
    assert conv
    assert G >= G_random - 1e-9
    assert G == pytest.approx(G_random, abs=1e-6)

    x = np.zeros(62)
    x[[int(rng.integers(0, 31)), int(rng.integers(31, 62))]] = rng.uniform(1.0, 1000.0, size=2)
    red = comp(*_instance(_mixed_matrix(), x, NOISE, rng, stage1=False))
    pairs = [
        (i, j) for i, j in itertools.combinations(range(red.s_star), 2)
        if red.survivors[i] < 31 <= red.survivors[j]
        and red.sub_matrix[:, [i, j]].any(axis=1).all()
    ]
    assert len(pairs) > 1
    batches = [(np.stack([red.sub_matrix[:, list(pair)] for pair in pairs]),
                np.log(red.sub_measurements))]
    batches += [_bound_and_shift_batch(k, seed) for k, seed in ((2, 0), (3, 1), (4, 4))]
    for a, v in batches:
        G, _, _ = _optimize_loads(a, v, NOISE.sigma_eps**2, LAW.lo, LAW.hi)
        assert np.all(G >= _best_of_random_starts(a, v, rng) - 1e-9), a.shape


@pytest.mark.parametrize("z", [[40.0, 55.0, 47.0, 61.0], [1500.0, 1400.0, 1700.0], [0.3, 0.5]])
def test_single_column_closed_form_matches_grid(z):
    # the one column pools every row; the last two cases clip at hi and lo
    m = len(z)
    red = ReducedInstance(
        survivors=np.array([0]),
        active_rows=np.arange(m),
        sub_matrix=np.ones((m, 1)),
        sub_measurements=np.array(z),
    )
    G, X, conv, a, v = _optimize_subset(red, (0,))
    grid = np.linspace(LAW.lo, LAW.hi, 999_001)  # spacing 0.001
    vals, mesh = _phi_on_grid(a, v, NOISE.sigma_eps, [grid])
    best = int(np.argmax(vals))
    assert conv
    assert G >= vals[best] - 1e-12
    assert G == pytest.approx(vals[best], abs=1e-5)
    assert X[0] == pytest.approx(mesh[best, 0], abs=1e-3)


def _shipped_instance(rows, k, seed):
    """Noisy readings of k random loads on the shipped rows x 31 design."""
    rng = np.random.default_rng(seed)
    x = np.zeros(31)
    sup = np.sort(rng.choice(31, size=k, replace=False))
    x[sup] = rng.uniform(1.0, 1000.0, size=k)
    red = comp(*_instance(builtin_matrix(rows, 31), x, NOISE, rng))
    loc = {int(c): i for i, c in enumerate(red.survivors)}
    return red, tuple(loc[c] for c in sup)


@pytest.mark.parametrize("seed", range(4))
def test_two_column_optimum_reaches_grid_and_kkt(seed):
    red, subset = _shipped_instance(6, 2, seed)
    G, X, conv, a, v = _optimize_subset(red, subset)
    axis = np.linspace(LAW.lo, LAW.hi, 1999)
    vals, _ = _phi_on_grid(a, v, NOISE.sigma_eps, [axis, axis])
    assert conv
    assert G >= vals.max() - 1e-9
    assert _kkt_residual(red, subset, X) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_three_column_optimum_reaches_grid_and_kkt(seed):
    red, subset = _shipped_instance(7, 3, 10 + seed)
    G, X, conv, a, v = _optimize_subset(red, subset)
    axis = np.linspace(LAW.lo, LAW.hi, 150)
    grid_max = max(_phi_on_grid(a, v, NOISE.sigma_eps, [[x0], axis, axis])[0].max() for x0 in axis)
    assert conv
    assert G >= grid_max - 1e-9
    assert _kkt_residual(red, subset, X) <= 1e-6


def test_optimizer_kkt_on_a_bound():
    # column 0 alone explains a reading far above hi, so its load sits at hi
    a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    red = ReducedInstance(
        survivors=np.arange(2),
        active_rows=np.arange(3),
        sub_matrix=a,
        sub_measurements=np.array([5000.0, 5200.0, 200.0]),
    )
    G, X, conv, _, _ = _optimize_subset(red, (0, 1))
    assert conv
    assert X[0] == LAW.hi
    assert _kkt_residual(red, (0, 1), X) <= 1e-6


def _bound_and_shift_batch(k, seed, n=12, m=7):
    """n random covering patterns of k columns over m readings from 0.05 to 20 000.

    Readings far below lo or above hi drive loads onto the bounds, and
    starts high in the box, far above a small reading, make Newton blocks
    indefinite (see _off_centre_starts).
    """
    rng = np.random.default_rng(seed)
    z = np.exp(rng.uniform(math.log(0.05), math.log(20000.0), size=m))
    a = (rng.random((n, m, k)) < 0.5).astype(float)
    empty = ~a.any(axis=2)
    a[empty, rng.integers(0, k, size=int(empty.sum()))] = 1.0
    return a, np.log(z)


def _off_centre_starts(a, S=4):
    """Each candidate of a repeated S times, and its S starts in ln x: start j
    puts coordinate c in the middle of slice (j + c) mod S of S equal slices
    of [lo, hi]."""
    n, _, k = a.shape
    slot = np.add.outer(np.arange(S), np.arange(k)) % S
    x = LAW.lo + (LAW.hi - LAW.lo) * (slot + 0.5) / S
    return np.repeat(a, S, axis=0), np.log(np.tile(x, (n, 1)))


def _on_bound(X):
    return (X == LAW.lo) | (X == LAW.hi)


@pytest.mark.parametrize(
    "k, seed, newton_digest, optimizer_digest",
    [
        (2, 0, "98f1e6db37349e73b5e9834b3c60672b0c75f428e98b72920509b2e06ac74512",
         "2221938da34dc8c4dcc46487cbc941de02569db2c0a91413284b15b1dfafdc62"),
        (3, 1, "51631c50760720487a2e855648fdff822ce44b4206523bf3d4133e78d3714062",
         "4a39acaaf0d66c6894d01648bb139dad2b70480b0608b0a13cfebe664df87eff"),
        (4, 4, "f8d6041ca249e70464f1a0815be07bbcd9681b03cfb749e4b3fca5037862e074",
         "4c72c8f8c5107947957152bb35c79f09726b8fc7e643ab7ba79a6b2d3fe06eec"),
    ],
    ids=["k2", "k3", "k4"],
)
def test_optimizer_output_is_pinned(monkeypatch, k, seed, newton_digest, optimizer_digest):
    # the optimizer's arithmetic must not move unless a change means it to;
    # digests taken with numpy 2.4 on x86-64.  The Newton runs start off
    # centre, where they reach the eigenvalue shift and both bounds; the
    # optimizer runs on the same batch from its own start
    smallest = []
    eigvalsh = np.linalg.eigvalsh

    def spy(h):
        lam = eigvalsh(h)
        smallest.append(lam[:, 0].min())
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    a, v = _bound_and_shift_batch(k, seed)
    sig2, t_lo, t_hi = NOISE.sigma_eps**2, math.log(LAW.lo), math.log(LAW.hi)
    G, T, settled = recovery._newton_ascent(*_off_centre_starts(a), v, sig2, t_lo, t_hi)
    assert min(smallest) < 0.0
    assert (T == t_lo).any() and (T == t_hi).any()
    got = hashlib.sha256(G.tobytes() + T.tobytes() + settled.tobytes()).hexdigest()
    assert got == newton_digest
    G, X, settled = _optimize_loads(a, v, sig2, LAW.lo, LAW.hi)
    assert (X == LAW.lo).any() and (X == LAW.hi).any()
    got = hashlib.sha256(G.tobytes() + X.tobytes() + settled.tobytes()).hexdigest()
    assert got == optimizer_digest


def test_optimizer_result_depends_on_the_candidate_alone(monkeypatch):
    # each candidate's result must not move, down to the last bit, with the
    # other candidates of its call, their order, the layout of A or the
    # Newton block size; the second batch mixes candidates whose loads end on
    # a bound with candidates whose loads end inside the box
    red, _ = _shipped_instance(7, 3, 5)
    covering = [
        sub for sub in itertools.combinations(range(red.s_star), 3)
        if red.sub_matrix[:, list(sub)].any(axis=1).all()
    ]
    shipped = (
        np.stack([red.sub_matrix[:, list(sub)] for sub in covering[:5]]),
        np.log(red.sub_measurements),
    )
    batches = [shipped, _bound_and_shift_batch(3, 1)]

    def run(a, v):
        return _optimize_loads(a, v, NOISE.sigma_eps**2, LAW.lo, LAW.hi)

    for a, v in batches:
        alone = [run(a[i : i + 1], v) for i in range(a.shape[0])]
        want = [np.concatenate(parts) for parts in zip(*alone)]
        settings = {
            "batch": run(a, v),
            "reversed": [out[::-1] for out in run(a[::-1], v)],
            "fortran": run(np.asfortranarray(a), v),
            # the layout of the decoder's gather, M[:, subsets].transpose(1, 0, 2)
            "gather": run(a.transpose(1, 0, 2).copy().transpose(1, 0, 2), v),
        }
        for block in (1, 2):
            monkeypatch.setattr(recovery, "_NEWTON_BLOCK", block)
            settings[f"block {block}"] = run(a, v)
        monkeypatch.undo()
        for name, got in settings.items():
            for g, w in zip(got, want):
                assert np.array_equal(g, w), name
    hits = _on_bound(want[1]).any(axis=1)  # the second batch's loads
    assert hits.any() and not hits.all()


# ---------------------------------------------------------------------------
# list decoding


@pytest.mark.parametrize("k", range(1, 6))
def test_row_counts_and_coverage_match_gather_reference(k):
    # the reference takes the (m*, N, k) gathers the filter once used; the
    # layout must match too, since it fixes the order of the bound's row sums
    rng = np.random.default_rng(k)
    s_star = 9
    subsets = np.array(list(itertools.combinations(range(s_star), k)), dtype=np.intp)
    for m_star in (1, 2, 5, 8, 13):
        M = (rng.random((m_star, s_star)) < 0.3).astype(float)
        cnt = recovery._row_counts(M, subsets)
        ref_cnt = M[:, subsets].sum(axis=2).T
        ref_covered = (M[:, subsets] > 0).any(axis=2).all(axis=0)
        assert np.array_equal(cnt, ref_cnt)
        assert cnt.flags.c_contiguous == ref_cnt.flags.c_contiguous
        assert np.array_equal((cnt > 0).all(axis=1), ref_covered)


def test_decode_alpha_one_returns_unique_argmax():
    mat = builtin_matrix(6, 31)
    x = np.zeros(31)
    x[[4, 17]] = [300.0, 88.0]
    red = comp(*_exact_instance(mat, x))
    res = map_list_decode(red, DecoderConfig(alpha=1.0), 0.05, QUIET, LAW)
    assert res.estimate == (4, 17)
    assert res.best.subset == (4, 17)


def _rel_residual(a_sub, z):
    res = optimize.lsq_linear(a_sub, z, bounds=(1.0, 1000.0))
    return math.sqrt(2.0 * res.cost) / np.linalg.norm(z)


def test_decode_exact_on_noiseless_distinguishable_instances():
    """Exact data, unique exactly-consistent pair: the decoder returns it.

    Instances where a wrong pair or a singleton comes close to exact
    consistency are skipped; there the list union legitimately widens.
    """
    cfg = DecoderConfig(alpha=0.8)
    hits = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mat = builtin_matrix(6, 31)
        x = np.zeros(31)
        sup = np.sort(rng.choice(31, size=2, replace=False))
        x[sup] = rng.uniform(1.0, 1000.0, size=2)
        red = comp(*_exact_instance(mat, x))
        a_full = red.sub_matrix
        z_act = red.sub_measurements
        pair_res = {
            (i, j): _rel_residual(a_full[:, [i, j]], z_act)
            for i in range(red.s_star)
            for j in range(i + 1, red.s_star)
        }
        singles = [_rel_residual(a_full[:, [i]], z_act) for i in range(red.s_star)]
        loc = {int(c): i for i, c in enumerate(red.survivors)}
        truth = (loc[sup[0]], loc[sup[1]])
        others = [r for t, r in pair_res.items() if t != truth]
        distinguishable = (
            pair_res[truth] < 1e-9
            and min(others, default=1.0) > 3e-3
            and min(singles, default=1.0) > 3e-3
        )
        res = map_list_decode(red, cfg, 0.05, QUIET, LAW)
        if distinguishable:
            assert res.estimate == tuple(int(c) for c in sup)
            hits += 1
    assert hits >= 5  # most draws are distinguishable


def test_decode_alpha_near_zero_unions_every_candidate():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    z = np.array([40.0, 70.0])
    red = comp(a, z)
    res = map_list_decode(red, DecoderConfig(alpha=1e-12), 0.3, NOISE, LAW)
    # oracle: every subset of sizes 1..3 whose columns cover both rows
    covering = []
    for size in (1, 2, 3):
        from itertools import combinations

        for t in combinations(range(3), size):
            if all(a[i, list(t)].sum() > 0 for i in range(2)):
                covering.append(t)
    want = sorted({c for t in covering for c in t})
    assert list(res.estimate) == want
    assert res.scored_count == len(covering)


def test_decode_alpha_monotone_in_list_size():
    mat = builtin_matrix(7, 31)
    for seed in range(5):
        rng = np.random.default_rng(90 + seed)
        x = np.zeros(31)
        sup = rng.choice(31, size=3, replace=False)
        x[sup] = rng.uniform(1.0, 1000.0, size=3)
        red = comp(*_instance(mat, x, NOISE, rng))
        prev = None
        for alpha in (1.0, 0.95, 0.8, 0.5):
            res = map_list_decode(red, DecoderConfig(alpha=alpha), 0.05, NOISE, LAW)
            if prev is not None:
                assert set(prev) <= set(res.estimate)
            prev = res.estimate


def test_decode_budget_overflow_carries_partial_result():
    rng = np.random.default_rng(1)
    mat = builtin_matrix(8, 31)
    x = np.zeros(31)
    x[rng.choice(31, size=4, replace=False)] = rng.uniform(1.0, 1000.0, size=4)
    red = comp(*_instance(mat, x, NOISE, rng))
    cfg = DecoderConfig(alpha=0.9, enumeration_cap=10)
    with pytest.raises(BudgetExceeded) as err:
        map_list_decode(red, cfg, 0.05, NOISE, LAW)
    partial = err.value.result
    assert partial.budget_exceeded
    assert partial.scored_count == 10


def test_decode_meeting_the_cap_exactly_is_no_budget_hit():
    # only column 0 pools the first reading and every other column the
    # second: no single column is covered, and the 91 covered pairs all lie
    # in the first of the two enumeration chunks of size 2; the second holds
    # none.  Each of them fits both readings exactly, so the prior rules out
    # every larger size and nothing more is listed
    mat = np.zeros((2, 92))
    mat[0, 0] = 1.0
    mat[1, 1:] = 1.0
    red = comp(mat, np.array([50.0, 400.0]))

    def decode(cap):
        cfg = DecoderConfig(alpha=0.9, enumeration_cap=cap)
        return map_list_decode(red, cfg, 0.05, NOISE, LAW)

    roomy = decode(92)
    exact = decode(91)
    assert exact == roomy
    assert not exact.budget_exceeded and exact.scored_count == 91
    with pytest.raises(BudgetExceeded) as err:
        decode(90)
    assert err.value.result.scored_count == 90


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_decoding_needs_prevalence_strictly_inside_0_1(p):
    with pytest.raises(ValueError, match="p must lie"):
        estimate_pool_count(np.array([50.0]), 31, p, NOISE, LAW)
    with pytest.raises(ValueError, match="p must lie"):
        map_list_decode(_single_row_reduced(5.0), DecoderConfig(), p, NOISE, LAW)


def test_decode_is_deterministic():
    mat = builtin_matrix(7, 31)
    rng = np.random.default_rng(17)
    x = np.zeros(31)
    x[rng.choice(31, size=3, replace=False)] = rng.uniform(1.0, 1000.0, size=3)
    red = comp(*_instance(mat, x, NOISE, rng))
    cfg = DecoderConfig(alpha=0.9)
    a = map_list_decode(red, cfg, 0.05, NOISE, LAW)
    b = map_list_decode(red, cfg, 0.05, NOISE, LAW)
    assert a == b


def test_decode_does_not_depend_on_the_chunk_size(monkeypatch):
    # the chunk size decides which candidates share a load search and which
    # the running best prunes; neither may move a result, to the last bit
    cfg = DecoderConfig()
    for seed in range(30):
        red, _ = _shipped_instance(8, 3, seed)
        results = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(recovery, "_CHUNK", chunk)
            results.append(map_list_decode(red, cfg, 0.01, NOISE, LAW))
        want = results[-1]
        for got in results[:-1]:
            assert got == want, seed
            assert got.best.log_score.hex() == want.best.log_score.hex(), seed


def _brute_force_list(red, cfg, p, law=LAW):
    """Score every covered candidate of every size; return the alpha-list.

    Gives the estimate, the first best candidate (as survivor columns) with
    its score, and the number of covered candidates of each size.
    """
    v = np.log(red.sub_measurements)
    const = float(-v.sum() - red.m_star * math.log(NOISE.sigma_eps * math.sqrt(2.0 * math.pi)))
    subsets, scores, covered = [], [], {}
    for size in range(1, red.s_star + 1):
        subs = itertools.combinations(range(red.s_star), size)
        subs = [sub for sub in subs if red.sub_matrix[:, list(sub)].any(axis=1).all()]
        covered[size] = len(subs)
        if subs:
            a = np.stack([red.sub_matrix[:, list(sub)] for sub in subs])
            phi, _, _ = _optimize_loads(a, v, NOISE.sigma_eps**2, law.lo, law.hi)
            prior = recovery._prior_part(size, red.s_star, p, law)
            subsets += subs
            scores += list(phi + prior + const)
    top = int(np.argmax(scores))
    threshold = math.log(cfg.alpha) + scores[top]
    cols = red.survivors
    union = {int(cols[j]) for sub, f in zip(subsets, scores) if f >= threshold for j in sub}
    best = tuple(int(cols[j]) for j in subsets[top])
    return tuple(sorted(union)), best, scores[top], covered


def test_decode_equals_the_brute_force_list_and_skips_windows(monkeypatch):
    # the per-row bound and the size skip may only save work: the list, the
    # best and its score are those of scoring every covered candidate of
    # every size, and only the candidates of sizes the decoder lists count
    # as scored
    listed = []
    row_counts = recovery._row_counts

    def spy(M, subsets):
        listed.append(subsets.shape[1])
        return row_counts(M, subsets)

    monkeypatch.setattr(recovery, "_row_counts", spy)
    cfg = DecoderConfig(alpha=0.5)
    # instances of at most 12 survivors, which the brute force lists in full
    instances = [(_shipped_instance(rows, k, seed)[0], 0.05, LAW)
                 for rows, k, seeds in ((7, 2, (0, 1, 3, 4)), (8, 3, (5, 6, 7))) for seed in seeds]
    for seed in range(4):
        # one positive per pool, as in most stamp pairs
        rng = np.random.default_rng(300 + seed)
        x = np.zeros(62)
        x[[rng.integers(0, 31), rng.integers(31, 62)]] = rng.uniform(1.0, 1000.0, size=2)
        red = comp(*_instance(_mixed_matrix(), x, NOISE, rng, stage1=False))
        instances.append((red, 0.05, LAW))
    # a prior that grows with the size, p / (1 - p) above the box's width:
    # no size may be skipped, the largest included
    narrow = UniformLoad(lo=1.0, hi=1.5)
    rng = np.random.default_rng(1)
    x = np.zeros(31)
    sup = rng.choice(31, size=3, replace=False)
    x[sup] = rng.uniform(1.0, 1.5, size=3)
    red = comp(*_instance(builtin_matrix(7, 31), x, NOISE, rng))
    instances.append((red, 0.6, narrow))
    skipped = 0
    for red, p, law in instances:
        listed.clear()
        res = map_list_decode(red, cfg, p, NOISE, law)
        estimate, best, score, covered = _brute_force_list(red, cfg, p, law)
        assert res.estimate == estimate
        assert res.best.subset == best
        assert res.best.log_score == score
        sizes = set(listed)
        assert res.scored_count == sum(covered[size] for size in sizes)
        if law is narrow:
            assert sizes == set(covered)
        skipped += len(covered) - len(sizes)
    assert skipped > 0


# ---------------------------------------------------------------------------
# mixed decoding


def _mixed_matrix():
    """Two width-31 pools measured together: per-pool rows plus a 9x62 code."""
    mat = builtin_matrix(9, 62).astype(float)
    head = np.zeros((2, 62))
    head[0, :31] = 1.0
    head[1, 31:] = 1.0
    return np.vstack([head, mat])


def test_mixed_decode_recovers_one_per_half_noiseless():
    cfg = DecoderConfig(alpha=0.8)
    exact = 0
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        x = np.zeros(62)
        left = int(rng.integers(0, 31))
        right = int(rng.integers(31, 62))
        x[[left, right]] = rng.uniform(1.0, 1000.0, size=2)
        red = comp(_mixed_matrix(), _mixed_matrix() @ x)
        res = map_list_decode(red, cfg, 0.03, QUIET, LAW)
        assert set(res.estimate) >= {left, right}
        if res.estimate == (left, right):
            exact += 1
    assert exact >= 4


# ---------------------------------------------------------------------------
# gradient


def test_gradient_vanishes_at_unconstrained_optimum():
    red = _single_row_reduced(5.0)
    x_star = 5.0
    g = log_posterior_gradient(red, (0,), np.array([x_star]), NOISE)
    assert abs(g[0]) < 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-5
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        a = (rng.random((m, k)) < 0.6).astype(float)
        if not np.all(a.sum(axis=1) > 0):
            continue
        loads = rng.uniform(10.0, 900.0, size=k)
        z = a @ loads * np.exp(rng.normal(0.0, NOISE.sigma_eps, size=m))
        red = ReducedInstance(
            survivors=np.arange(k),
            active_rows=np.arange(m),
            sub_matrix=a,
            sub_measurements=z,
        )

        def objective(v):
            return float(np.sum(stats.lognorm.logpdf(z, s=NOISE.sigma_eps, scale=a @ v)))

        g = log_posterior_gradient(red, np.arange(k), loads, NOISE)
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (objective(loads + e) - objective(loads - e)) / (2.0 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        checked += 1


def test_gradient_quadratic_part_scales_with_sigma():
    rng = np.random.default_rng(55)
    a = (rng.random((4, 3)) < 0.7).astype(float)
    a[a.sum(axis=1) == 0, 0] = 1.0
    loads = rng.uniform(5.0, 500.0, size=3)
    z = a @ loads * rng.uniform(0.9, 1.1, size=4)
    red = ReducedInstance(
        survivors=np.arange(3),
        active_rows=np.arange(4),
        sub_matrix=a,
        sub_measurements=z,
    )
    # the log likelihood's only dependence on the loads is its quadratic
    # part, so the whole gradient scales with 1 / sigma^2
    g1 = log_posterior_gradient(red, np.arange(3), loads, NoiseModel(sigma_eps=0.05))
    g2 = log_posterior_gradient(red, np.arange(3), loads, NoiseModel(sigma_eps=0.10))
    assert np.allclose(g2, g1 / 4.0, rtol=1e-10)


# ---------------------------------------------------------------------------
# configuration validation


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(alpha=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(alpha=1.5)
    with pytest.raises(ValueError):
        DecoderConfig(enumeration_cap=0)
