"""Signal generation and the multiplicative measurement noise model.

Quantitative pooled tests report a non-negative reading per pool.  A reading
is the underlying pooled quantity times a log-normal factor, so zero readings
are exact: noise never turns a zero into a positive or vice versa.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# Readings below this are indistinguishable from zero in double precision.
MEASUREMENT_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# viral-load laws


@dataclass(frozen=True)
class UniformLoad:
    """Loads drawn uniformly from [lo, hi], 0 < lo < hi < inf."""

    lo: float = 1.0
    hi: float = 1000.0

    def __post_init__(self):
        # a nan bound fails the comparison; an infinite hi would not
        if not (0.0 < self.lo < self.hi < math.inf):
            raise ValueError(f"need finite 0 < lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def log_density_inside(self) -> float:
        # constant log-density of one load inside the box
        return -math.log(self.hi - self.lo)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def sum_density(self, ks: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Density of the sum of k independent loads at the points y, one row per count.

        ks is a 1-D array of counts >= 1 and y a 1-D array.  Exact piecewise
        polynomial (Irwin-Hall rescaled from [0,1]^k) for k <= 12; a
        matched-moment normal approximation beyond, where the alternating-sum
        form loses too many digits to cancellation.
        """
        if np.any(ks < 1):
            raise ValueError("k must be >= 1")
        kcol = ks[:, None]
        width = self.hi - self.lo
        out = np.empty((ks.shape[0], y.shape[0]))
        exact = ks <= 12
        if exact.any():
            u = (y - kcol[exact] * self.lo) / width
            out[exact] = _irwin_hall_pdf(u, ks[exact]) / width
        if not exact.all():
            kn = kcol[~exact]
            mean = kn * 0.5 * (self.lo + self.hi)
            var = kn * width * width / 12.0
            out[~exact] = np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
        return out


# Irwin-Hall terms of the counts k = 1..12, row k - 1: (-1)^j C(k, j) for j = 0..12, and (k-1)!
_IH_COEF = np.array([[(-1.0) ** j * math.comb(k, j) for j in range(13)] for k in range(1, 13)])
_IH_GAMMA = np.array([math.gamma(k) for k in range(1, 13)])


def _irwin_hall_pdf(x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Standard Irwin-Hall density (sum of k uniforms on [0,1]) at x, one row per count.

    f(x) = 1/(k-1)! * sum_j (-1)^j C(k,j) max(x-j, 0)^(k-1); terms with
    j > floor(x) vanish through the max, so no explicit floor is needed.
    ks is a 1-D array of counts in [1, 12]; x holds one row per count,
    or one row for all.  Each row is summed over j in increasing order, as
    for its count alone.  Past the support, x > k, the density is exactly 0:
    there the sum only cancels to rounding noise, or overflows to nan.
    """
    kcol = ks[:, None]
    inside = x <= kcol
    box = (inside & (x >= 0.0)).astype(float)  # k = 1: the indicator of [0, 1]
    kmax = int(ks.max())
    if kmax == 1:
        # the count pass scores k = 1 alone for most pools, and the sum below
        # would cost that call about as much again for the same box
        return box
    coef, gamma = _IH_COEF[ks - 1], _IH_GAMMA[ks - 1, None]
    squared = kcol == 3  # numpy squares a scalar power of 2; an array power would not
    x = np.where(inside, x, 0.0)
    total = np.zeros(x.shape)
    # terms with j > k, or with j >= max(x), are exact zeros, and adding them
    # changes nothing
    stop = kmax + 1
    top = x.max(initial=-np.inf)
    if top < stop:
        stop = max(0, math.ceil(top))
    for j in range(stop):
        base = np.clip(x - j, 0.0, None)
        power = base ** (kcol - 1)
        np.copyto(power, np.square(base), where=squared)
        total += coef[:, j, None] * power
    # cancellation can leave tiny negative dust near the support edges
    out = np.where(inside, np.clip(total / gamma, 0.0, None), 0.0)
    return np.where(kcol == 1, box, out)


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative log-normal noise: z = y * eps, ln eps ~ N(0, sigma^2).

    The default scale matches an amplification-efficiency spread of about
    5 percent per cycle on a base-1.95 reaction (sigma_eps = 0.1 * ln 1.95).
    """

    sigma_eps: float = 0.1 * math.log(1.95)

    def __post_init__(self):
        # nan would fail no sign test and turn every reading into nan; the
        # decoder divides by the square, which must neither underflow nor
        # overflow (on a float s * s gives inf where s**2 would raise
        # OverflowError; on an int it is exact)
        s = self.sigma_eps
        if not (0.0 < s and sys.float_info.min <= s * s <= sys.float_info.max):
            raise ValueError(
                f"sigma_eps must be positive, with a finite square of at least "
                f"{sys.float_info.min}, got {s}"
            )

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        g = rng.standard_normal(size)
        return np.exp(self.sigma_eps * g)


def apply_noise_vec(y: np.ndarray, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Noisy readings for pooled quantities y >= 0; zero stays exactly zero.

    Draws exactly len(y) noise factors (one physical measurement per entry,
    whatever its value), then zeroes the entries where y == 0.  A reading
    below the measurement floor is clamped to 0, with a warning.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("pooled quantities must be non-negative")
    z = y * noise.sample(rng, y.shape[0])
    tiny = (z > 0.0) & (z < MEASUREMENT_FLOOR)
    if np.any(tiny):
        logger.warning("%d readings underflowed the measurement floor; clamped to 0", int(tiny.sum()))
        z[tiny] = 0.0
    z[y == 0.0] = 0.0
    return z


# ---------------------------------------------------------------------------
# signals


@dataclass(frozen=True)
class Signal:
    """A length-n non-negative vector plus its support (indices of positives)."""

    values: np.ndarray
    support: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if np.any(values < 0):
            raise ValueError("signal values must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", tuple(int(j) for j in np.flatnonzero(values > 0)))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def generate_signal_fixed_k(
    n: int, k: int, law: UniformLoad, rng: np.random.Generator
) -> Signal:
    """Draw a signal with exactly k positives at uniformly random positions."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    values = np.zeros(n)
    if k:
        support = rng.choice(n, size=k, replace=False)
        values[support] = law.sample(rng, k)
    return Signal(values)

