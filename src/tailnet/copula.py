"""Risk-vector models: exact Pareto margins coupled by one of three
dependence families (independence, Gaussian copula, Marshall-Olkin copula),
with reproducible sampling and exact/numeric survival-copula evaluation.

Margins are *exactly* Pareto rather than merely Pareto-tailed: the survival
function is F_bar(t) = theta * t**(-alpha) on [theta**(1/alpha), inf) and 1
below.  This keeps every scale function and tail formula downstream exact,
so validation tolerances are pure Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Optional, Union

import numpy as np
from scipy.special import ndtr, ndtri

from . import rng
from .errors import CapacityError, DomainError, ModelError
from .orthant import normal_orthant_survival

MO_DIM_CAP = 16


@dataclass(frozen=True)
class ParetoMargin:
    """Exact Pareto margin with tail index ``alpha`` and scale ``theta``."""

    alpha: float
    theta: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ModelError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.theta < math.inf:
            raise ModelError(f"theta must be finite and > 0, got {self.theta}")

    @property
    def support_floor(self) -> float:
        return self.theta ** (1.0 / self.alpha)

    def sf(self, t):
        """Survival function, exact: theta * t**-alpha above the floor."""
        t = np.asarray(t, dtype=float)
        return np.minimum(1.0, self.theta * np.power(np.maximum(t, 1e-300), -self.alpha))

    def cdf(self, t):
        return 1.0 - self.sf(t)

    def quantile_tail(self, u):
        """Inverse survival function: (theta/u)**(1/alpha) for u in (0, 1]."""
        u = np.asarray(u, dtype=float)
        # fmin/fmax skip NaN: a NaN level passes through, any other bad
        # level raises, in one pass each and without a mask array
        if u.size and (np.fmin.reduce(u, axis=None) <= 0
                       or np.fmax.reduce(u, axis=None) > 1):
            raise DomainError("tail level must lie in (0, 1]")
        return np.power(self.theta / u, 1.0 / self.alpha)

    def var(self, gamma: float) -> float:
        """Value-at-Risk at level gamma, exact for the Pareto margin."""
        if not 0 < gamma < 1:
            raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
        return float(self.quantile_tail(gamma))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Positive-definite correlation matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("correlation matrix must be square")
        if m.shape[0] < 2:
            raise ModelError("correlation matrix needs dimension >= 2")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ModelError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ModelError("correlation matrix must have unit diagonal")
        off = m[~np.eye(m.shape[0], dtype=bool)]
        if np.any(np.abs(off) >= 1.0):
            raise ModelError("off-diagonal correlations must lie in (-1, 1)")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ModelError("correlation matrix is not positive definite") from None
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def submatrix(self, subset) -> np.ndarray:
        idx = list(subset)
        return self.entries[np.ix_(idx, idx)]

    @classmethod
    def equicorrelation(cls, d: int, rho: float) -> "CorrelationMatrix":
        m = np.full((d, d), float(rho))
        np.fill_diagonal(m, 1.0)
        return cls(m)


def _all_subsets(d: int):
    items = range(d)
    for size in range(1, d + 1):
        yield from combinations(items, size)


@dataclass(frozen=True, eq=False)
class MoRateFamily:
    """Shock-rate assignment for the Marshall-Olkin survival copula.

    ``equal`` assigns one common rate to every nonempty subset and
    ``proportional`` a rate proportional to the subset's cardinality; the
    copula is invariant to the common factor in both, so it is fixed to 1.
    ``general`` takes an explicit positive rate for every nonempty subset.
    """

    d: int
    variant: str
    rates: Optional[Mapping[frozenset, float]] = None

    def __post_init__(self):
        if self.d < 1:
            raise ModelError("dimension must be >= 1")
        if self.variant not in ("equal", "proportional", "general"):
            raise ModelError(f"unknown rate variant {self.variant!r}")
        if self.variant == "general":
            if self.rates is None:
                raise ModelError("general variant requires an explicit rate map")
            have = {frozenset(s) for s in self.rates}
            # counted first: listing the subsets of a large d never ends
            if len(have) != 2 ** min(self.d, 64) - 1 or \
                    have != {frozenset(s) for s in _all_subsets(self.d)}:
                raise ModelError(
                    f"rate map must cover all 2^{self.d} - 1 nonempty subsets")
            if any(not v > 0 for v in self.rates.values()):
                raise ModelError("all shock rates must be strictly positive")
        elif self.rates is not None:
            raise ModelError("named variants do not take an explicit rate map")

    def rate(self, subset) -> float:
        s = frozenset(subset)
        if not s or not s <= set(range(self.d)):
            raise DomainError(f"invalid subset {sorted(subset)}")
        if self.variant == "equal":
            return 1.0
        if self.variant == "proportional":
            return float(len(s))
        return float(self.rates[s])

    def total_rate(self, j: int) -> float:
        """Sum of rates over all subsets containing coordinate j."""
        if not 0 <= j < self.d:
            raise DomainError(f"coordinate {j} out of range")
        if self.variant == "equal":
            return float(2 ** (self.d - 1))
        if self.variant == "proportional":
            # sum over subsets containing j of |S|
            return float(2 ** max(self.d - 2, 0) * (self.d + 1)) if self.d >= 2 else 1.0
        return float(sum(v for s, v in self.rates.items() if j in s))

    def eta(self, j: int, subset) -> float:
        """Exponent rate(S) / total_rate(j) attached to coordinate j in S."""
        s = frozenset(subset)
        if j not in s:
            raise DomainError(f"coordinate {j} not in subset {sorted(s)}")
        return self.rate(s) / self.total_rate(j)


@dataclass(frozen=True)
class Iid:
    pass


@dataclass(frozen=True, eq=False)
class Gaussian:
    sigma: CorrelationMatrix


@dataclass(frozen=True, eq=False)
class MarshallOlkin:
    rates: MoRateFamily


Dependence = Union[Iid, Gaussian, MarshallOlkin]


@dataclass(frozen=True, eq=False)
class RiskModel:
    """Common exact-Pareto margin plus a dependence family on d coordinates."""

    margin: ParetoMargin
    dependence: Dependence
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ModelError("dimension must be >= 1")
        if isinstance(self.dependence, Gaussian) and self.dependence.sigma.d != self.d:
            raise ModelError("correlation matrix dimension does not match d")
        if isinstance(self.dependence, MarshallOlkin) and self.dependence.rates.d != self.d:
            raise ModelError("rate family dimension does not match d")

    @classmethod
    def iid(cls, d: int, alpha: float, theta: float = 1.0) -> "RiskModel":
        return cls(ParetoMargin(alpha, theta), Iid(), d)

    @classmethod
    def gaussian(cls, sigma, alpha: float, theta: float = 1.0) -> "RiskModel":
        if not isinstance(sigma, CorrelationMatrix):
            sigma = CorrelationMatrix(np.asarray(sigma, dtype=float))
        return cls(ParetoMargin(alpha, theta), Gaussian(sigma), sigma.d)

    @classmethod
    def marshall_olkin(cls, d: int, variant: str, alpha: float,
                       theta: float = 1.0, rates=None) -> "RiskModel":
        fam = MoRateFamily(d, variant, rates)
        return cls(ParetoMargin(alpha, theta), MarshallOlkin(fam), d)


def _mo_shock_layout(rates: MoRateFamily, mo_dim_cap: int = MO_DIM_CAP):
    """(rates, subset membership, coordinate totals) of the 2^d - 1 shocks."""
    if rates.d > mo_dim_cap:
        raise CapacityError(
            f"shock enumeration walks 2^d - 1 subsets; d = {rates.d} exceeds "
            f"the cap {mo_dim_cap}", mo_dim_cap)
    subsets = list(_all_subsets(rates.d))
    lam = np.array([rates.rate(s) for s in subsets])
    member = np.zeros((len(subsets), rates.d), dtype=bool)
    for i, s in enumerate(subsets):
        member[i, list(s)] = True
    totals = np.array([rates.total_rate(j) for j in range(rates.d)])
    return lam, member, totals


def _draw_uniform_block(model: RiskModel, g: np.random.Generator, size: int,
                        layout) -> np.ndarray:
    """One block of copula-level draws U with P(U_j < u_j for all j) = C_hat(u)
    for the independence and Marshall-Olkin families.

    ``layout`` is what :func:`block_sampler` computes once: the shock table
    of a Marshall-Olkin model, None for independence.  The Marshall-Olkin
    shocks are drawn in consecutive cache-sized row chunks
    (:func:`rng.row_chunks`) and reduced while each chunk is in cache: the
    transposed chunk is scattered to one row per subset bitmask, so the
    subsets holding coordinate j are the rows with bit j set, a strided
    view that ``np.minimum`` reduces row by row.  RNG-order contract: the
    chunks consume ``g`` exactly as one ``(size, 2^d - 1)`` draw does, and
    the per-coordinate minimum does not depend on the order it is taken in,
    so the block is bit-identical to the whole-block computation.
    """
    d = model.d
    if layout is None:
        return 1.0 - g.random((size, d))
    lam, member, totals = layout
    unit = bool(np.all(lam == 1.0))     # x / 1.0 == x: skip the divide
    masks = member @ (1 << np.arange(d))
    u = np.empty((size, d))
    for lo, hi in rng.row_chunks(size, lam.size):
        m = hi - lo
        shocks = g.standard_exponential((m, lam.size))
        if not unit:
            shocks /= lam
        by_mask = np.empty((1 << d, m))     # row 0, the empty set, is unread
        by_mask[masks] = shocks.T
        t = np.empty((d, m))
        for j in range(d):
            np.minimum.reduce(by_mask.reshape(-1, 2, 1 << j, m)[:, 1],
                              axis=(0, 1), out=t[j])
        np.exp(-t.T * totals, out=u[lo:hi])
    return u


# Relative width of the score band a finish may misorder: scores closer than
# SCORE_TOL * max(1, |score|) can map to losses in either order.  scipy's
# ndtr is not monotone in the last bit: of 2e5 one-ulp steps of y near 1,
# about 4600 move ndtr(-y) up, none undone more than 2 ulps later.
SCORE_TOL = 1e-12


def identity(rows):
    """The finish of a kernel whose score is already its draw."""
    return rows


def gemm_rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` with each row on BLAS's gemm path, so row chunks give one
    call's bytes: a one-row ``x`` (numpy's gemv) is stacked with a zero row."""
    if len(x) == 1:
        return (np.vstack([x, np.zeros_like(x)]) @ m)[:1]
    return x @ m


@dataclass(frozen=True)
class BlockKernel:
    """A block sampler in two parts.  ``score(*args)`` draws the cheapest
    array whose columns order the rows as the draws do, and
    ``finish(rows)`` maps score rows to the draws, elementwise and, per
    column, non-decreasing for scores more than SCORE_TOL * max(1, |score|)
    apart.  Calling the kernel gives the draws, ``finish(score(*args))``,
    so a caller that keeps only the largest draws of a column can pick
    their rows on the score and finish just those rows.

    ``row_width`` is the float64 values a score call draws per row when
    consecutive calls ``score(g, m_i)`` on one generator give the bytes of
    one ``score(g, sum m_i)`` call, so that a caller may draw a block in
    row chunks; None when they need not, and such a kernel is drawn one
    whole block at a time.  Every :func:`block_sampler` kernel has one."""

    score: Callable
    finish: Callable = identity
    row_width: Optional[int] = None

    def __call__(self, *args):
        return self.finish(self.score(*args))


def block_sampler(model: RiskModel, mo_dim_cap: int = MO_DIM_CAP) -> BlockKernel:
    """Per-block kernel ``draw(g, size)``: ``size`` risk vectors, exact Pareto
    margins, from the block generator ``g``.  The layout is computed once
    here, not once per block.  A Gaussian kernel's score is the latent
    normal vector, which the Pareto margin maps up monotonically; the
    independence and Marshall-Olkin scores are the draws themselves.  Every
    kernel has a ``row_width`` (the Gaussian matmul is :func:`gemm_rows`)."""
    dep, margin = model.dependence, model.margin
    if isinstance(dep, Gaussian):
        chol_t = np.linalg.cholesky(dep.sigma.entries).T

        def score(g, size):
            return gemm_rows(g.standard_normal((size, model.d)), chol_t)

        def finish(y):
            return margin.quantile_tail(np.clip(ndtr(-y), 1e-300, 1.0))

        return BlockKernel(score, finish, row_width=model.d)
    layout, width = None, model.d
    if isinstance(dep, MarshallOlkin):
        layout = _mo_shock_layout(dep.rates, mo_dim_cap)
        width = layout[0].size
    return BlockKernel(lambda g, size: margin.quantile_tail(
        _draw_uniform_block(model, g, size, layout)), row_width=width)


def sample(model: RiskModel, n: int, seed: int, threads: int = 1,
           mo_dim_cap: int = MO_DIM_CAP) -> np.ndarray:
    """Draw an (n, d) matrix of the risk vector, exact Pareto margins.

    Deterministic given (model, n, seed): the :func:`block_sampler` blocks
    are stacked in counter order, so the result does not depend on
    ``threads``.
    """
    return rng.sample_blocked(n, seed, rng.STREAM_RISK,
                              block_sampler(model, mo_dim_cap), threads=threads)


def survival_copula(model: RiskModel, u, return_error: bool = False,
                    mo_dim_cap: int = MO_DIM_CAP):
    """Joint exceedance probability P(F_j(Z_j) > 1 - u_j for all j).

    Exact product formulas for the independence and Marshall-Olkin families;
    deterministic quasi-random normal integration for the Gaussian family
    (relative target 1e-3; pass ``return_error`` to get the integration
    error alongside the value).  The Marshall-Olkin sum walks all 2^d - 1
    subsets of the sampler's shock table, so d > ``mo_dim_cap`` raises
    CapacityError, as in :func:`sample`.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (model.d,):
        raise DomainError(f"u must have length {model.d}")
    if np.any(u <= 0) or np.any(u > 1):
        raise DomainError("all u_j must lie in (0, 1]")
    dep = model.dependence
    if isinstance(dep, Gaussian):
        lower = np.where(u >= 1.0, -np.inf, -ndtri(u))
        val, err = normal_orthant_survival(lower, dep.sigma.entries,
                                           return_error=True)
        return (float(val), float(err)) if return_error else float(val)
    if isinstance(dep, Iid):
        val = float(np.prod(u))
    else:
        lam, member, totals = _mo_shock_layout(dep.rates, mo_dim_cap)
        exps = np.where(member, lam[:, None] / totals * np.log(u), np.inf)
        # a running sum: the pairwise np.sum would move the last bits
        val = math.exp(np.cumsum(exps.min(axis=1))[-1])
    return (val, 0.0) if return_error else val


def mo_eta(rates: MoRateFamily, j: int, subset) -> float:
    """Exponent of coordinate j inside shock set S, Eq-level exact."""
    return rates.eta(j, subset)


@dataclass(frozen=True)
class BernsteinMixture:
    """Trivariate mixture (U, V, min(U, V)) with the minimum's slot uniformly
    randomised over the three coordinates.

    Pairwise joint exceedances decay like u^2 (pairwise asymptotic
    independence) while the triple exceedance has the same u^2 order, so the
    vector is not mutually asymptotically independent.
    """

    d: int = 3

    def marginal_cdf(self, z):
        z = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
        return (4.0 * z - z * z) / 3.0

    def tail_threshold(self, u: float) -> float:
        """z with P(Z_j > z) = u, i.e. the 1-u marginal quantile."""
        if not 0 < u <= 1:
            raise DomainError("u must lie in (0, 1]")
        return 2.0 - math.sqrt(1.0 + 3.0 * u)

    def pair_survival(self, u: float) -> float:
        """Exact two-coordinate joint exceedance at common level u."""
        return (math.sqrt(1.0 + 3.0 * u) - 1.0) ** 2

    def triple_survival(self, u: float) -> float:
        """Exact three-coordinate joint exceedance; equals the pair value."""
        return self.pair_survival(u)


def _mixture_block(g: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of the uniform-minimum permutation mixture: (U, V) fill
    two slots and min(U, V) the third, the branch picked by a third uniform."""
    raw = g.random((size, 3))
    u, v = raw[:, 0], raw[:, 1]
    branch = np.minimum((raw[:, 2] * 3).astype(np.int64), 2)
    m = np.minimum(u, v)
    return np.stack([np.where(branch == 2, m, u),
                     np.where(branch == 0, v, np.where(branch == 1, m, u)),
                     np.where(branch == 0, m, v)], axis=1)


def bernstein_mixture_sample(n: int, seed: int, threads: int = 1) -> np.ndarray:
    """Draw (n, 3) samples of the uniform-minimum permutation mixture."""
    return rng.sample_blocked(n, seed, rng.STREAM_MIXTURE, _mixture_block,
                              threads=threads)
