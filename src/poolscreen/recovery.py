"""Decoding noisy pooled readings: screening, counting, and list recovery.

The pipeline for one positive pool: COMP screening drops every column that
appears in a zero reading (zeros are exact under multiplicative noise), a
posterior over the number of positives picks a window of candidate support
sizes, and a list decoder scores every candidate support in the window by
the best explanation its loads can give the readings.  Two pools mixed into
one read decode the same way, with one size window per pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NoiseModel, UniformLoad

_SQRT_PI = math.sqrt(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, eq=False)
class PoolInstance:
    """One pool's decode matrix (stage-1 rows included) and its readings."""

    matrix: np.ndarray
    measurements: np.ndarray

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        meas = np.asarray(self.measurements, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.all((matrix == 0) | (matrix == 1)):
            raise ValueError("matrix must be 0/1")
        if meas.shape != (matrix.shape[0],):
            raise ValueError("one measurement per matrix row required")
        if np.any(meas < 0):
            raise ValueError("measurements must be non-negative")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "measurements", meas)


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """What COMP leaves: surviving columns and strictly positive readings."""

    survivors: np.ndarray
    active_rows: np.ndarray
    sub_matrix: np.ndarray
    sub_measurements: np.ndarray

    def __post_init__(self):
        if np.any(self.sub_measurements <= 0):
            raise ValueError("reduced instances keep only strictly positive readings")

    @property
    def m_star(self) -> int:
        """Number of positive readings."""
        return self.sub_matrix.shape[0]

    @property
    def s_star(self) -> int:
        """Number of surviving columns."""
        return self.sub_matrix.shape[1]


def comp(instance: PoolInstance) -> ReducedInstance:
    """Screen columns: anything read as zero rules out every column it pools.

    The survivors are a superset of the true support whenever readings are
    exact zeros precisely on empty pools, which multiplicative noise grants.
    """
    z = instance.measurements
    zero_rows = z == 0.0
    killed = (instance.matrix[zero_rows] > 0).any(axis=0)
    survivors = np.flatnonzero(~killed)
    active = np.flatnonzero(~zero_rows)
    sub = instance.matrix[np.ix_(active, survivors)]
    return ReducedInstance(
        survivors=survivors,
        active_rows=active,
        sub_matrix=sub,
        sub_measurements=z[active],
    )


# ---------------------------------------------------------------------------
# prevalence and pool-count estimates


def estimate_prevalence(t: int, q: int, s: int) -> float:
    """Maximum-likelihood prevalence from t positive pools out of q, size s."""
    if q < 1 or s < 1:
        raise ValueError("q and s must be positive")
    if not 0 <= t <= q:
        raise ValueError("t must lie in [0, q]")
    return 1.0 - (1.0 - t / q) ** (1.0 / s)


# Gauss-Hermite nodes and weights for integrating out the log-normal noise
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(64)


def sum_measurement_logpdf(
    z: float, ks: np.ndarray, law: UniformLoad, noise: NoiseModel
) -> np.ndarray:
    """Log density at z > 0 of (sum of k iid loads) times the noise factor.

    ks is a 1-D array of counts >= 1, giving one log density per count.  The
    noise is integrated out with Gauss-Hermite quadrature in log space, all
    counts in one pass.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    u = math.sqrt(2.0) * noise.sigma_eps * _GH_X
    shrink = np.exp(-u)
    fy = law.sum_density(ks, z * shrink)
    vals = (_GH_W * fy * shrink).sum(axis=1) / _SQRT_PI
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in vals.tolist()])


@lru_cache(maxsize=8)
def _log_binomial(s: int) -> np.ndarray:
    """log C(s, k) for k = 1..s."""
    out = np.array(
        [math.lgamma(s + 1) - math.lgamma(k + 1) - math.lgamma(s - k + 1) for k in range(1, s + 1)]
    )
    out.flags.writeable = False
    return out


def count_log_posterior(
    z1: float, s: int, p: float, noise: NoiseModel, law: UniformLoad
) -> np.ndarray:
    """Unnormalized log posterior over k = 1..s given a positive pool reading.

    Binomial(s, p) prior, 0 < p < 1, restricted to k >= 1 times the reading
    density.
    """
    if z1 <= 0:
        raise ValueError("the pool reading must be positive")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    ks = np.arange(1, s + 1)
    log_prior = _log_binomial(s) + ks * math.log(p) + (s - ks) * math.log1p(-p)
    return log_prior + sum_measurement_logpdf(z1, ks, law, noise)


def estimate_pool_count(
    z1: float, s: int, p: float, noise: NoiseModel, law: UniformLoad
) -> int:
    """Most probable number of positives in a pool read as z1 > 0.

    Ties resolve toward the smaller count.
    """
    post = count_log_posterior(z1, s, p, noise, law)
    return int(np.argmax(post)) + 1  # first maximum = smallest k


# ---------------------------------------------------------------------------
# subset scoring


# Multi-start projected Newton ascent over the load box (see _optimize_loads):
# each start takes Newton steps on the coordinates not held at a bound, with
# Armijo backtracking from the full step.
_STARTS = 5  # 1 reading-proportional start + the rest fixed points of the box
_NEWTON_ITERS = 500  # cap on Newton iterations per start
_REL_TOL = 1e-9  # a start settles once a step's predicted gain is below this, relative
_ARMIJO = 1e-4  # sufficient-increase fraction of the backtracking


@dataclass
class DecoderConfig:
    alpha: float = 0.9
    k_window: int = 1
    enumeration_cap: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.k_window < 0:
            raise ValueError("k_window must be non-negative")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be positive")


@dataclass(frozen=True)
class CandidateScore:
    """The best candidate support of a decode and its joint log score.

    The subset holds column indices of the decoded instance.  converged
    reports whether the load search met its tolerance within the iteration
    budget; the score is the best found either way.
    """

    subset: tuple[int, ...]
    log_score: float
    converged: bool = True


@dataclass(frozen=True)
class DecodeResult:
    estimate: tuple[int, ...]  # column indices of the pool instance
    best: CandidateScore | None
    scored_count: int
    budget_exceeded: bool


class BudgetExceeded(RuntimeError):
    """Enumeration hit the cap; carries the best-effort partial result."""

    def __init__(self, result: DecodeResult):
        super().__init__(f"enumeration cap hit after {result.scored_count} candidate supports")
        self.result = result


def _prior_part(k: int, s_star: int, p: float, law: UniformLoad) -> float:
    """Log prior of one support of k columns among s_star, with its loads' density."""
    return k * (math.log(p) + law.log_density_inside) + (s_star - k) * math.log1p(-p)


def _row_counts(M: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """How many subset columns each row of M pools: (N, m).

    Summed one column gather at a time; the counts are small integers, so
    the order of the sum does not matter.  The result is the transpose of an
    (m, N) gather and so C-contiguous, the layout that fixes the summation
    order of the list decoder's bound.
    """
    cnt = M[:, subsets[:, 0]]
    for j in range(1, subsets.shape[1]):
        cnt += M[:, subsets[:, j]]
    return cnt.T


def _load_objective(A, X, v, sig2):
    """phi(x) = sum_i u_i - (v_i - u_i)^2 / (2 sig2), u = ln(A x), per row of X.

    Returns phi (P,) and the pooled loads y = A x (P, m).
    """
    y = np.matmul(A, X[:, :, None])[:, :, 0]
    u = np.log(y)
    r = v - u
    return (u - r * r / (2.0 * sig2)).sum(axis=1), y


_TINY = np.finfo(float).tiny


def _newton_direction(H, g, X, lo, hi, eye):
    """Projected Newton ascent direction for a batch of box-constrained problems.

    H is the negative Hessian (P, k, k) and g the gradient (P, k) at X; eye
    is np.eye(k).  A coordinate on a bound whose gradient points out of the
    box is frozen: its step is zero and it is dropped from the Newton system.
    The free block of H can be indefinite (in t = ln x, where a coordinate's
    gradient is positive, or once a row's residual v - u falls below
    -(1 + sig2)); it is then shifted by its smallest eigenvalue until
    positive definite.  A free coordinate on a bound that the step would push
    out of the box is frozen too, and the system solved again without it.

    When no start in the batch has a coordinate on a bound, nothing can be
    frozen, so H and g go to the solver unmasked; when every block is
    positive definite, no shift is added.  Either way each start's
    arithmetic is the same as with the masks and a zero shift.
    """
    at_lo, at_hi = X <= lo, X >= hi
    mag = np.abs(H).max(axis=(1, 2))
    bounded = at_lo.any() or at_hi.any()
    if bounded:
        k = g.shape[1]
        free = ~((at_lo & (g < 0)) | (at_hi & (g > 0)))
        # frozen coordinates get a diagonal above every free eigenvalue
        # (Gershgorin), so the smallest eigenvalue below is the free block's
        frozen_diag = (k * mag + 1.0)[:, None, None] * eye

        def masked(free):
            pair = free[:, :, None] & free[:, None, :]
            return np.where(pair, H, frozen_diag), np.where(free, g, 0.0)

        Hf, gf = masked(free)
    else:
        Hf, gf = H, g
    lam = np.linalg.eigvalsh(Hf)[:, 0]
    tiny = 1e-9 * mag + _TINY
    # a positive definite block stays as it is; otherwise its smallest
    # eigenvalue is lifted to tiny + |lam|
    definite = lam >= tiny
    shift = None
    if not definite.all():
        shift = np.where(definite, 0.0, tiny - 2.0 * np.minimum(lam, 0.0))[:, None, None] * eye
    # ends: each pass that does not return freezes a coordinate, and with
    # every coordinate frozen d = 0
    while True:
        d = np.linalg.solve(Hf if shift is None else Hf + shift, gf[:, :, None])[:, :, 0]
        if not bounded:
            return d
        out = free & ((at_lo & (d < 0)) | (at_hi & (d > 0)))
        if not out.any():
            return d
        free &= ~out
        Hf, gf = masked(free)


# Candidates whose starts share one batch of Newton iterations.  The starts
# are independent, so this bounds the working memory of a large call
# without changing any result.
_NEWTON_BLOCK = 256


def _optimize_loads(A, v, sig2, lo, hi):
    """Multi-start projected Newton ascent of the load log-objective.

    A: (N, m, k) pooling patterns in which every row pools at least one
    column, v: (m,) debiased log readings.  Maximizes phi (see
    _load_objective) over the box [lo, hi]^k from _STARTS starts per
    instance, each run by _newton_ascent: one that splits each reading evenly
    over the columns it pools, and S = _STARTS - 1 fixed points, a cyclic
    Latin design in which start j puts coordinate c in the middle of slice
    (j + c) mod S of S equal slices of [lo, hi].  The starts are built in x;
    the search runs in t = ln x over [ln lo, ln hi], where a row that pools
    one column is exactly quadratic.  A coordinate the search leaves on a
    bound comes back as lo or hi exactly, and phi is evaluated at the loads
    returned.

    With k = 1 every row pools the single column, so phi is concave in
    u = ln x and peaks at x = exp(mean(v) + sig2) clipped to the box; that
    closed form, which is Newton's first step in t, replaces the search.

    Each instance's result depends on its own A and v alone: not on the
    other instances, their order, A's memory layout (the heuristic start's
    row sum follows it, so A is made C-contiguous) or _NEWTON_BLOCK.

    Returns the best objective value, its maximizer and whether that start
    converged, per instance.
    """
    A = np.ascontiguousarray(A)
    N, m, k = A.shape
    if k == 1:
        X = np.full((N, 1), min(max(math.exp(v.mean() + sig2), lo), hi))
        return _load_objective(A, X, v, sig2)[0], X, np.ones(N, dtype=bool)

    # heuristic start: split each reading evenly over the columns it pools,
    # then average the per-column shares over the rows that see the column
    cnt = A.sum(axis=2)  # (N, m)
    shares = np.exp(v)[None, :] / np.maximum(cnt, 1.0)
    colw = A.sum(axis=1)  # (N, k)
    x0 = np.einsum("nmk,nm->nk", A, shares) / np.maximum(colw, 1.0)
    x0[colw == 0] = 0.5 * (lo + hi)
    np.clip(x0, lo, hi, out=x0)
    S = _STARTS - 1
    slot = np.add.outer(np.arange(S), np.arange(k)) % S  # (S, k)
    fixed = lo + (hi - lo) * (slot + 0.5) / S
    T = np.log(np.concatenate([x0[:, None, :], np.broadcast_to(fixed, (N, S, k))], axis=1))
    t_lo, t_hi = math.log(lo), math.log(hi)
    G = np.empty((N, _STARTS))
    settled = np.empty((N, _STARTS), dtype=bool)
    for first in range(0, N, _NEWTON_BLOCK):
        block = slice(first, first + _NEWTON_BLOCK)
        n = T[block].shape[0]
        g, t, c = _newton_ascent(np.repeat(A[block], _STARTS, axis=0),
                                 T[block].reshape(n * _STARTS, k), v, sig2, t_lo, t_hi)
        G[block], T[block], settled[block] = (
            g.reshape(n, _STARTS), t.reshape(n, _STARTS, k), c.reshape(n, _STARTS))
    best = G.argmax(axis=1)
    rows = np.arange(N)
    T = T[rows, best]
    # exp(ln hi) need not be hi: a coordinate on a bound is that bound
    X = np.where(T <= t_lo, lo, np.where(T >= t_hi, hi, np.exp(T)))
    return _load_objective(A, X, v, sig2)[0], X, settled[rows, best]


def _newton_ascent(A, T, v, sig2, lo, hi):
    """Run projected Newton ascent in t = ln x from each start; A: (P, m, k), T: (P, k).

    lo and hi bound t.  With x = exp(t) and q = d phi / d y at y = A x, the
    gradient is g = x * (A^T q) and the negative Hessian
    diag(x) A^T W A diag(x) - diag(g), W = -d2 phi / d y2 per row.  Each
    iteration takes the step of _newton_direction with Armijo backtracking
    from a step length of 1.  A start settles when the step's predicted gain
    g.d is at most _REL_TOL * (1 + |phi|) (that last step is still tried
    once), or when backtracking finds no ascent; it is non-converged if
    _NEWTON_ITERS iterations pass first.  Returns phi at exp(t), the final
    t and the settled flags, per start.

    The full step is tried for every unsettled start at once, with no
    gathers; only the starts it fails go on to the halved steps.  The
    unsettled set is compacted only in an iteration where some start
    settles.
    """
    P, k = T.shape
    G, Y = _load_objective(A, np.exp(T), v, sig2)
    T = T.copy()
    settled = np.zeros(P, dtype=bool)
    eye = np.eye(k)
    diag = np.arange(k)

    # the unsettled starts, compacted whenever some settle
    alive = np.arange(P)
    Aa, Ta, Ga, Ya = A, T.copy(), G.copy(), Y
    AaT = Aa.transpose(0, 2, 1)
    for _ in range(_NEWTON_ITERS):
        Xa = np.exp(Ta)
        r = v - np.log(Ya)
        q = (1.0 + r / sig2) / Ya  # d phi / d y
        g = Xa * np.matmul(AaT, q[:, :, None])[:, :, 0]
        w = (1.0 + (1.0 + r) / sig2) / (Ya * Ya)  # - d2 phi / d y2
        H = np.matmul(AaT * w[:, None, :], Aa)
        H *= Xa[:, :, None] * Xa[:, None, :]
        H[:, diag, diag] -= g
        d = _newton_direction(H, g, Ta, lo, hi, eye)
        final = (g * d).sum(axis=1) <= _REL_TOL * (1.0 + np.abs(Ga))

        # projected Armijo backtracking from a step of 1; a final step gets
        # only that one try
        trial = np.minimum(np.maximum(Ta + d, lo), hi)
        Gt, Yt = _load_objective(Aa, np.exp(trial), v, sig2)
        gain = ((trial - Ta) * g).sum(axis=1)
        ok = Gt >= Ga + _ARMIJO * np.maximum(gain, 0.0)
        Tn = np.where(ok[:, None], trial, Ta)
        Gn = np.where(ok, Gt, Ga)
        Yn = np.where(ok[:, None], Yt, Ya)
        pend = np.flatnonzero(~ok & ~final)
        step = 1.0
        for _ in range(59):
            if pend.size == 0:
                break
            step *= 0.5
            Tp, dp = Ta[pend], d[pend]
            trial = np.minimum(np.maximum(Tp + step * dp, lo), hi)
            Gt, Yt = _load_objective(Aa[pend], np.exp(trial), v, sig2)
            gain = ((trial - Tp) * g[pend]).sum(axis=1)
            good = Gt >= Ga[pend] + _ARMIJO * np.maximum(gain, 0.0)
            hit = pend[good]
            Tn[hit], Gn[hit], Yn[hit] = trial[good], Gt[good], Yt[good]
            ok[hit] = True
            pend = pend[~good]
        # a start whose backtracking found no ascent sits at a stationary point
        done = final | ~ok
        if done.any():
            T[alive], G[alive] = Tn, Gn
            settled[alive[done]] = True
            keep = ~done
            alive = alive[keep]
            if alive.size == 0:
                return G, T, settled
            Aa, Tn, Gn, Yn = Aa[keep], Tn[keep], Gn[keep], Yn[keep]
            AaT = Aa.transpose(0, 2, 1)
        Ta, Ga, Ya = Tn, Gn, Yn
    T[alive], G[alive] = Ta, Ga
    return G, T, settled


# ---------------------------------------------------------------------------
# list decoding

_CHUNK = 4096


def _block_chunks(blocks, sizes):
    """Yield candidate supports taking sizes[i] columns of blocks[i], as row arrays.

    The supports run through the product of each block's combinations in
    lexicographic order, the first block varying slowest.  Every later block
    is listed in full; the first is read lazily, max(1, _CHUNK // R) of its
    combinations per yield, R being the number of rows the later blocks give.
    """
    rest = None
    for block, k in zip(blocks[1:], sizes[1:]):
        combos = np.array(list(itertools.combinations(block.tolist(), k)), dtype=np.intp)
        combos = combos.reshape(combos.shape[0] if k else 1, k)
        rest = combos if rest is None else _cross(rest, combos)
    it = itertools.combinations(blocks[0].tolist(), sizes[0])
    step = max(1, _CHUNK // (1 if rest is None else rest.shape[0]))
    while True:
        head = list(itertools.islice(it, step))
        if not head:
            return
        head = np.array(head, dtype=np.intp).reshape(len(head), sizes[0])
        yield head if rest is None else _cross(head, rest)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every row of a joined with every row of b, a varying slowest."""
    return np.concatenate([np.repeat(a, b.shape[0], axis=0), np.tile(b, (a.shape[0], 1))], axis=1)


def map_list_decode(
    reduced: ReducedInstance,
    k_hats,
    width: int,
    cfg: DecoderConfig,
    p: float,
    noise: NoiseModel,
    law: UniformLoad,
) -> DecodeResult:
    """Score candidate supports around the count estimates; return the union
    of every candidate scoring within a factor alpha of the best.

    The decoded instance reads len(k_hats) pools side by side, width columns
    each: survivor j belongs to block survivors[j] // width, and a survivor
    past the last block raises ValueError.  Each block contributes a size
    window around its own count estimate (k_hats[i] +- cfg.k_window, within
    [1, block size]); an estimate above the block size reads as the block
    size, since more positives than survivors means all of them.  A block
    with no survivors contributes size 0, and with no survivors at all the
    result is empty.  Candidates are every choice of one size per block, and
    of that many columns from each.  A candidate's score depends on that
    candidate and the readings alone (see _optimize_loads), so the result
    does not depend on how the candidates are batched for the load search.

    A candidate must pool every positive reading.  A covered candidate whose
    per-row bound misses log alpha + the running best is not worth a load
    search, since it can neither join the list nor lead it.  Before a choice
    of sizes is listed, the same test is made on the best that any candidate
    of that choice could score: its prior plus every row at its own peak
    density.  A choice whose prior alone rules it out is skipped without
    listing it.  The covered candidates of the choices listed count against
    cfg.enumeration_cap, and the skipped ones do not; once a covered
    candidate is left unscored, the decode stops and raises BudgetExceeded
    with what it has.
    """
    if reduced.m_star < 1:
        raise ValueError("decoding needs at least one positive reading")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if np.any(reduced.survivors >= len(k_hats) * width):
        last = int(reduced.survivors.max())
        raise ValueError(f"survivor {last} lies past the {len(k_hats)} x {width} block columns")
    block_of = reduced.survivors // width
    blocks = [np.flatnonzero(block_of == i) for i in range(len(k_hats))]
    windows = []
    for k_hat, block in zip(k_hats, blocks):
        size = block.shape[0]
        if size == 0:
            windows.append([0])
            continue
        if k_hat < 1:
            raise ValueError(f"k_hat must be >= 1, got {k_hat}")
        k_hat = min(k_hat, size)
        windows.append(range(max(k_hat - cfg.k_window, 1), min(k_hat + cfg.k_window, size) + 1))
    if reduced.s_star == 0:
        return DecodeResult((), None, 0, False)

    M = reduced.sub_matrix
    v = np.log(reduced.sub_measurements)  # (m*,)
    sig2 = noise.sigma_eps**2
    # constants of the log objective: the per-row density normalizers
    const = float(-v.sum() - reduced.m_star * math.log(noise.sigma_eps * math.sqrt(2.0 * math.pi)))
    # The bound on log f maximizes each row's term u - (v-u)^2/(2 sig^2)
    # independently: it is concave in u = ln(pooled load) and peaks at
    # v + sig^2, and u lies in [ln(c*lo), ln(c*hi)] for a row that pools c
    # of the candidate's columns.  The clamped peaks sum to an upper bound.
    peak = v + sig2
    log_lo, log_hi = math.log(law.lo), math.log(law.hi)
    log_alpha = math.log(cfg.alpha)
    # A row's term peaks at u = v + sig^2 with the value v + sig^2 / 2, and
    # const holds -sum(v), so no candidate's bound exceeds ceiling + prior:
    # a size window is skipped when its prior alone rules it out.  The
    # candidates' bounds round their m* terms, their sums and the added
    # constants, by a few ulps of |peak| + sig^2 per row, |const| and |prior|
    # each, and the ceiling by a few of its own; the test gets that much
    # slack.
    ceiling = reduced.m_star * (0.5 * sig2 - math.log(noise.sigma_eps * math.sqrt(2.0 * math.pi)))
    ulps = 4.0 * (reduced.m_star + 2) * np.finfo(float).eps
    scale = float(np.abs(peak).sum()) + reduced.m_star * sig2 + abs(const) + abs(ceiling)

    scored = 0
    exceeded = False
    best_logf = -math.inf
    best_subset: tuple[int, ...] | None = None
    best_converged = True
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for sizes in itertools.product(*windows):
        prior = _prior_part(sum(sizes), reduced.s_star, p, law)
        if ceiling + prior + ulps * (scale + abs(prior)) < log_alpha + best_logf:
            continue  # no candidate of this window can reach the list
        for chunk in _block_chunks(blocks, sizes):
            cnt = _row_counts(M, chunk)
            covered = (cnt > 0).all(axis=1)
            subsets, cnt = chunk[covered], cnt[covered]
            room = cfg.enumeration_cap - scored
            if subsets.shape[0] > room:
                subsets, cnt = subsets[:room], cnt[:room]
                exceeded = True
            scored += subsets.shape[0]
            log_cnt = np.log(np.maximum(cnt, 1.0))
            u = np.clip(peak, log_cnt + log_lo, log_cnt + log_hi)
            bound = (u - (v - u) ** 2 / (2.0 * sig2)).sum(axis=1) + prior + const
            keep = bound >= log_alpha + best_logf
            if np.any(keep):
                subsets = subsets[keep]
                A = M[:, subsets].transpose(1, 0, 2)  # (N, m*, k)
                phi, _, conv = _optimize_loads(A, v, sig2, law.lo, law.hi)
                logf = phi + prior + const
                top = int(np.argmax(logf))
                if logf[top] > best_logf:
                    best_logf = float(logf[top])
                    best_subset = tuple(int(j) for j in subsets[top])
                    best_converged = bool(conv[top])
                sel = logf >= log_alpha + best_logf
                if np.any(sel):
                    kept.append((subsets[sel], logf[sel]))
            if exceeded:
                break
        if exceeded:
            break

    if best_subset is None:
        # nothing admissible explains the readings
        result = DecodeResult((), None, scored, exceeded)
    else:
        threshold = log_alpha + best_logf
        cols = reduced.survivors
        union = {int(cols[j]) for subs, logf in kept for j in subs[logf >= threshold].flat}
        best = CandidateScore(
            subset=tuple(int(cols[j]) for j in best_subset),
            log_score=best_logf,
            converged=best_converged,
        )
        result = DecodeResult(tuple(sorted(union)), best, scored, exceeded)
    if exceeded:
        raise BudgetExceeded(result)
    return result
