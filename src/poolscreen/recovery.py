"""Decoding noisy pooled readings: screening, counting, and list recovery.

The pipeline for one positive pool: COMP screening drops every column that
appears in a zero reading (zeros are exact under multiplicative noise), a
posterior over the number of positives estimates the pool's count, which
sizes its stage 2, and a list decoder scores candidate supports of every
size by the best explanation their loads can give the readings.  Two pools
mixed into one read decode the same way, as one instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NoiseModel, UniformLoad

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# screening


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """What COMP leaves: surviving columns and strictly positive readings."""

    survivors: np.ndarray
    active_rows: np.ndarray
    sub_matrix: np.ndarray
    sub_measurements: np.ndarray

    def __post_init__(self):
        z = self.sub_measurements
        if not np.all((z > 0) & (z < math.inf)):  # NaN fails both
            raise ValueError("reduced instances keep only positive, finite readings")

    @property
    def m_star(self) -> int:
        """Number of positive readings."""
        return self.sub_matrix.shape[0]

    @property
    def s_star(self) -> int:
        """Number of surviving columns."""
        return self.sub_matrix.shape[1]


def comp(matrix: np.ndarray, measurements: np.ndarray) -> ReducedInstance:
    """Screen columns: anything read as zero rules out every column it pools.

    matrix is a pool's 0/1 decode matrix (stage-1 rows included) and
    measurements holds one reading per row.  The survivors are a superset of
    the true support whenever readings are exact zeros precisely on empty
    pools, which multiplicative noise grants.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    z = np.asarray(measurements, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all((matrix == 0) | (matrix == 1)):
        raise ValueError("matrix must be 0/1")
    if z.shape != (matrix.shape[0],):
        raise ValueError("one measurement per matrix row required")
    if not np.all((z >= 0) & (z < math.inf)):  # NaN fails both
        raise ValueError("measurements must be non-negative and finite")
    zero_rows = z == 0.0
    killed = (matrix[zero_rows] > 0).any(axis=0)
    survivors = np.flatnonzero(~killed)
    active = np.flatnonzero(~zero_rows)
    sub = matrix[np.ix_(active, survivors)]
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


@lru_cache(maxsize=8)
def _noise_shrink(sigma_eps: float) -> np.ndarray:
    """The load factors exp(-u) at the quadrature's nodes, read-only."""
    shrink = np.exp(-(math.sqrt(2.0) * sigma_eps * _GH_X))
    shrink.flags.writeable = False
    return shrink


def sum_measurement_logpdf(
    z: np.ndarray, ks: np.ndarray, law: UniformLoad, noise: NoiseModel
) -> np.ndarray:
    """Log density at each reading z > 0 of (sum of k iid loads) times the noise factor.

    z and ks are 1-D arrays, ks of counts >= 1; row i, column j is the log
    density of count ks[i] at reading z[j].  The noise is integrated out with
    Gauss-Hermite quadrature in log space, every count and reading in one
    pass; each entry is computed as for its count and reading alone.
    """
    shrink = _noise_shrink(noise.sigma_eps)
    fy = law.sum_density(ks, (z[:, None] * shrink).ravel())
    vals = (_GH_W * fy.reshape(ks.shape[0], z.shape[0], _GH_X.shape[0]) * shrink).sum(axis=2)
    vals /= _SQRT_PI
    return np.array(
        [math.log(v) if v > 0.0 else -math.inf for v in vals.ravel().tolist()]
    ).reshape(vals.shape)


@lru_cache(maxsize=64)
def _log_prior(s: int, p: float) -> np.ndarray:
    """Binomial(s, p) log prior of k = 1..s positives, read-only."""
    ks = np.arange(1, s + 1)
    log_binomial = np.array(
        [math.lgamma(s + 1) - math.lgamma(k + 1) - math.lgamma(s - k + 1) for k in range(1, s + 1)]
    )
    out = log_binomial + ks * math.log(p) + (s - ks) * math.log1p(-p)
    out.flags.writeable = False
    return out


def estimate_pool_count(
    z: np.ndarray, s: int, p: float, noise: NoiseModel, law: UniformLoad
) -> np.ndarray:
    """Most probable number of positives in each pool, read as z > 0.

    The posterior over k = 1..s is the Binomial(s, p) prior, 0 < p < 1,
    restricted to k >= 1, times the reading density.  Counts are scored in
    blocks, k = 1 first and then blocks that double in size, each only for
    the pools whose best score so far a count of the block could beat: that
    count's log prior plus the ceiling of the log density must reach it.  A
    score and the ceiling each round a 64-term sum, its log and an added
    prior, by a few ulps each, and the test gets that much slack.  So each
    estimate is its posterior's argmax, and depends on its pool's reading
    alone.  Ties resolve toward the smaller count.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all((z > 0) & (z < math.inf)):  # NaN fails both
        raise ValueError("pool readings must be positive and finite")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    ks = np.arange(1, s + 1)
    log_prior = _log_prior(s, p)
    # no sum of loads uniform on [lo, hi] has a density above 1 / (hi - lo),
    # so no count's quadrature exceeds the one with that density at every node
    shrink = _noise_shrink(noise.sigma_eps)
    ceiling = math.log(float((_GH_W * shrink).sum()) / (_SQRT_PI * (law.hi - law.lo)))
    ulps = 4.0 * (_GH_X.shape[0] + 2) * np.finfo(float).eps
    prior = log_prior.tolist()
    best = np.full(z.shape[0], -math.inf)
    k_hat = np.ones(z.shape[0], dtype=np.intp)
    first = 1
    while first <= s:
        block = slice(first - 1, 2 * first - 1)
        top = max(prior[block])
        reach = top + ceiling + ulps * (1.0 + abs(top) + abs(ceiling))
        live = np.flatnonzero(reach >= best)
        if live.size:
            post = log_prior[block, None] + sum_measurement_logpdf(z[live], ks[block], law, noise)
            at = post.argmax(axis=0)  # first maximum = smallest k
            score = post[at, np.arange(live.size)]
            win = score > best[live]
            best[live[win]], k_hat[live[win]] = score[win], first + at[win]
        first *= 2
    return k_hat


# ---------------------------------------------------------------------------
# subset scoring


# Projected Newton ascent over the load box from one start per candidate (see
# _optimize_loads): Newton steps on the coordinates not held at a bound, with
# Armijo backtracking from the full step.
_NEWTON_ITERS = 500  # cap on Newton iterations per start
_REL_TOL = 1e-9  # a start settles once a step's predicted gain is below this, relative
_ARMIJO = 1e-4  # sufficient-increase fraction of the backtracking


@dataclass
class DecoderConfig:
    alpha: float = 0.9
    enumeration_cap: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
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
    """phi(x) = -sum_i (v_i - u_i)^2 / (2 sig2), u = ln(A x), per row of X.

    Plus the decoder's constant, this is the log density of the readings,
    ln z = v, given the pooled loads y = A x under the log-normal noise.

    Returns phi (P,) and the pooled loads y = A x (P, m).
    """
    y = np.matmul(A, X[:, :, None])[:, :, 0]
    r = v - np.log(y)
    return -(r * r).sum(axis=1) / (2.0 * sig2), y


_TINY = np.finfo(float).tiny


def _newton_direction(H, g, X, lo, hi, eye):
    """Projected Newton ascent direction for a batch of box-constrained problems.

    H is the negative Hessian (P, k, k) and g the gradient (P, k) at X; eye
    is np.eye(k).  A coordinate on a bound whose gradient points out of the
    box is frozen: its step is zero and it is dropped from the Newton system.
    The free block of H can be indefinite (in t = ln x, where a coordinate's
    gradient is positive, or once a row's residual v - u falls below
    -1); it is then shifted by its smallest eigenvalue until
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
    try:
        lam = np.linalg.eigvalsh(Hf)[:, 0]
    except np.linalg.LinAlgError:
        # a block that overflowed (at a noise scale near the smallest
        # NoiseModel accepts) may have no eigenvalues; solved block by block,
        # each such block gets a zero step, and its start settles
        if H.shape[0] == 1:
            return np.zeros_like(g)
        one = [slice(i, i + 1) for i in range(H.shape[0])]
        return np.concatenate([_newton_direction(H[i], g[i], X[i], lo, hi, eye) for i in one])
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


# Candidates that share one batch of Newton iterations.  The candidates are
# independent, so this bounds the working memory of a large call without
# changing any result.
_NEWTON_BLOCK = 256


def _optimize_loads(A, v, sig2, lo, hi):
    """Projected Newton ascent of the load log-objective from one start.

    A: (N, m, k) pooling patterns in which every row pools at least one
    column, v: (m,) log readings.  Maximizes phi (see
    _load_objective) over the box [lo, hi]^k, each instance by one run of
    _newton_ascent from the reading-proportional start: each reading split
    evenly over the columns it pools, each column's shares averaged over
    its rows, clipped to the box.  The search runs in t = ln x over
    [ln lo, ln hi], where a row that pools one column is exactly quadratic.
    A coordinate the search leaves on a bound comes back as lo or hi
    exactly, and phi is evaluated at the loads returned.

    One start suffices in practice: on 64 862 candidates captured from
    simulate (stamp k = 2, 10 and 20, stap2 k = 5), the best of this start
    and four fixed points spread over the box exceeded this start's optimum
    by more than 1e-9 once, by 0.29 nats at phi = -838, far below any list.

    With k = 1 every row pools the single column, so phi is concave in
    u = ln x and peaks at x = exp(mean(v)) clipped to the box; that
    closed form, which is Newton's first step in t, replaces the search.

    Each instance's result depends on its own A and v alone: not on the
    other instances, their order, A's memory layout (the start's row sum
    follows it, so A is made C-contiguous) or _NEWTON_BLOCK.

    Returns the objective value, its maximizer and whether the search
    converged, per instance.
    """
    A = np.ascontiguousarray(A)
    N, m, k = A.shape
    if k == 1:
        X = np.full((N, 1), min(max(math.exp(v.mean()), lo), hi))
        return _load_objective(A, X, v, sig2)[0], X, np.ones(N, dtype=bool)

    cnt = A.sum(axis=2)  # (N, m)
    shares = np.exp(v)[None, :] / cnt
    colw = A.sum(axis=1)  # (N, k)
    x0 = np.einsum("nmk,nm->nk", A, shares) / np.maximum(colw, 1.0)
    x0[colw == 0] = 0.5 * (lo + hi)
    np.clip(x0, lo, hi, out=x0)
    T = np.log(x0)
    t_lo, t_hi = math.log(lo), math.log(hi)
    G = np.empty(N)
    settled = np.empty(N, dtype=bool)
    for first in range(0, N, _NEWTON_BLOCK):
        block = slice(first, first + _NEWTON_BLOCK)
        G[block], T[block], settled[block] = _newton_ascent(A[block], T[block], v, sig2, t_lo, t_hi)
    # exp(ln hi) need not be hi: a coordinate on a bound is that bound
    X = np.where(T <= t_lo, lo, np.where(T >= t_hi, hi, np.exp(T)))
    return _load_objective(A, X, v, sig2)[0], X, settled


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
        q = r / (sig2 * Ya)  # d phi / d y
        g = Xa * np.matmul(AaT, q[:, :, None])[:, :, 0]
        w = (1.0 + r) / (sig2 * Ya * Ya)  # - d2 phi / d y2
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


def map_list_decode(
    reduced: ReducedInstance,
    cfg: DecoderConfig,
    p: float,
    noise: NoiseModel,
    law: UniformLoad,
) -> DecodeResult:
    """Score candidate supports of every size; return the union of every
    candidate scoring within a factor alpha of the best.

    Zeros are exact, so when no reading is positive, or some positive
    reading pools no survivor, nothing can explain the readings: the result
    is empty and nothing is scored.  Otherwise some candidate is scored, and
    the result is empty only if every score overflows to -inf (at a noise
    scale near the smallest NoiseModel accepts).

    The sizes run from 1 to the survivor count in ascending order, and each
    size's candidates are the combinations of that many survivors, listed in
    lexicographic order, _CHUNK at a time.  A candidate's score is its
    support's prior plus the readings' log likelihood at its best loads, and
    depends on that candidate and the readings alone (see _optimize_loads),
    so the result does not depend on how the candidates are batched for the
    load search.  A mixed pair of pools decodes like one pool: the prior
    depends on the total size alone.

    A candidate must pool every positive reading.  A covered candidate whose
    per-row bound misses log alpha + the running best is not worth a load
    search, since it can neither join the list nor lead it.  Before a size
    is listed, the same test is made on the best that any candidate of that
    size could score: its prior plus every row at its own peak density.  A
    size whose prior alone rules it out ends the loop unlisted, since every
    larger size is ruled out too.  The prior falls with the size unless
    p / (1 - p) exceeds the load box's width, and then no size is skipped.
    The covered candidates of the sizes listed count against
    cfg.enumeration_cap, and the skipped ones do not; once a covered
    candidate is left unscored, the decode stops and raises BudgetExceeded
    with what it has.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    M = reduced.sub_matrix
    if reduced.m_star == 0 or not M.any(axis=1).all():
        return DecodeResult((), None, 0, False)

    v = np.log(reduced.sub_measurements)  # (m*,)
    sig2 = noise.sigma_eps**2
    # constants of the log likelihood: the per-row log-normal normalizers
    const = float(-v.sum() - reduced.m_star * math.log(noise.sigma_eps * math.sqrt(2.0 * math.pi)))
    # The bound on log f maximizes each row's term -(v - u)^2 / (2 sig^2)
    # independently: it peaks at u = v, and u = ln(pooled load) lies in
    # [ln(c*lo), ln(c*hi)] for a row that pools c of the candidate's
    # columns.  The clamped peaks sum to an upper bound.
    log_lo, log_hi = math.log(law.lo), math.log(law.hi)
    log_alpha = math.log(cfg.alpha)

    scored = 0
    exceeded = False
    best_logf = -math.inf
    best_subset: tuple[int, ...] | None = None
    best_converged = True
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for size in range(1, reduced.s_star + 1):
        prior = _prior_part(size, reduced.s_star, p, law)
        # every row's term is at most 0, so no candidate's bound exceeds
        # const + prior; the bound adds prior and then const to a sum of
        # terms <= 0 and rounding is monotone, so that holds as computed too.
        # No larger size can reach the list either: _prior_part is linear in
        # the size, so a skipped size means the prior falls with the size,
        # and best_logf only rises.  Where the prior rises with the size no
        # size is skipped, since the best score so far is at most const plus
        # the prior of a smaller size.
        if const + prior < log_alpha + best_logf:
            break  # no candidate of this size or larger can reach the list
        combos = itertools.combinations(range(reduced.s_star), size)
        while not exceeded:
            chunk = np.array(list(itertools.islice(combos, _CHUNK)), dtype=np.intp)
            if chunk.shape[0] == 0:
                break
            cnt = _row_counts(M, chunk)
            covered = (cnt > 0).all(axis=1)
            subsets, cnt = chunk[covered], cnt[covered]
            room = cfg.enumeration_cap - scored
            if subsets.shape[0] > room:
                subsets, cnt = subsets[:room], cnt[:room]
                exceeded = True
            scored += subsets.shape[0]
            log_cnt = np.log(cnt)
            u = np.clip(v, log_cnt + log_lo, log_cnt + log_hi)
            bound = -((v - u) ** 2).sum(axis=1) / (2.0 * sig2) + prior + const
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

    if best_subset is None:
        # every score overflowed to -inf
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
