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

        ks is a 1-D array of counts >= 1 and y a 1-D array.  The Irwin-Hall
        density rescaled from [0,1]^k to [lo, hi]^k, exact at every count.
        """
        if np.any(ks < 1):
            raise ValueError("k must be >= 1")
        width = self.hi - self.lo
        return _irwin_hall_pdf((y - ks[:, None] * self.lo) / width, ks) / width


def _irwin_hall_pdf(x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Standard Irwin-Hall density (sum of k uniforms on [0,1]) at x, one row per count.

    The cardinal B-spline recursion
    M_j(x) = (x M_{j-1}(x) + (j - x) M_{j-1}(x - 1)) / (j - 1), run on the
    shifts M_j(x - i) from the half-open unit boxes M_1(x - i), i = 0..k-1;
    k = 1 is the closed box [0, 1].  Both terms of a step are non-negative
    where they are nonzero, so nothing cancels or overflows, and the density
    is exactly 0 outside its support.  ks is a 1-D array of counts >= 1; x
    holds one row per count, or one row for all.  Each row is computed as
    for its count alone.
    """
    kcol = ks[:, None]
    x = np.broadcast_to(x, (ks.shape[0], x.shape[-1]))
    out = ((x >= 0.0) & (x <= 1.0)).astype(float)
    kmax = int(ks.max())
    t = x[:, None, :] - np.arange(kmax)[:, None]  # x - i: counts x shifts x points
    m = ((t >= 0.0) & (t < 1.0)).astype(float)
    for j in range(2, kmax + 1):
        n = kmax - j + 1
        m = (t[:, :n] * m[:, :n] + (j - t[:, :n]) * m[:, 1:]) / (j - 1)
        np.copyto(out, m[:, 0], where=kcol == j)
    return out


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

