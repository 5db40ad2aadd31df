"""Torus rotations and trigonometric coefficient maps.

Every model in this package is driven by a rotation flow on a d-torus:
phases advance linearly at fixed frequencies and are reduced modulo one.
That rule, (theta + t * freqs) mod 1, is written once, in `_rotate`; every
module moves a phase along the flow through it or `advance_many`.
Coefficients that vary with the driving phase (neutral-term gains,
transport gains, inflows) are real trigonometric polynomials evaluated
along the rotation.

Phases are stored in cycles, i.e. in [0, 1), so modular reduction stays
exact for decimal inputs. Minimality of the rotation requires the
frequencies to be rationally independent together with 1; that is the
caller's obligation and is not machine-checked. The shipped default
GOLDEN_FREQ = (sqrt(5) - 1) / 2 satisfies it in one dimension.

Every sup over the torus is estimated on the phases of the flow's one
sampling plan, so all estimates of a run share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

GOLDEN_FREQ = (np.sqrt(5.0) - 1.0) / 2.0


def _frozen_array(values, dtype=float, ndim=None):
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _is_whole(n) -> bool:
    """True for an int, a NumPy integer or a float with no fractional part;
    False for a bool."""
    if isinstance(n, bool):
        return False
    if isinstance(n, (float, np.floating)):
        return float(n).is_integer()
    return isinstance(n, (int, np.integer))


@dataclass(frozen=True)
class SamplingConfig:
    """Phase-sampling plan: a uniform grid per torus dimension plus one orbit."""

    grid_per_dim: int = 64
    orbit_points: int = 512
    orbit_step: float = 0.37

    def __post_init__(self):
        for name in ("grid_per_dim", "orbit_points"):
            n = getattr(self, name)
            if not _is_whole(n):
                raise ValueError(f"{name} must be a whole number, got {n!r}")
            object.__setattr__(self, name, int(n))
        if self.grid_per_dim < 1:
            raise ValueError("grid_per_dim must be >= 1")
        if self.orbit_points < 0:
            raise ValueError("orbit_points must be >= 0")
        if not math.isfinite(self.orbit_step):
            raise ValueError("orbit_step must be finite")


@dataclass(frozen=True, eq=False)
class TorusFlow:
    """Rotation flow on the d-torus, d = len(freqs), with the sampling plan
    that every sup over its torus is estimated on."""

    freqs: np.ndarray
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def __post_init__(self):
        freqs = _frozen_array(np.atleast_1d(self.freqs), ndim=1)
        if freqs.size < 1:
            raise ValueError("at least one frequency is required")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("frequencies must be finite")
        object.__setattr__(self, "freqs", freqs)

    @property
    def dim(self) -> int:
        return self.freqs.size


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A phase on the torus, componentwise reduced to [0, 1)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.mod(np.atleast_1d(np.asarray(self.theta, dtype=float)), 1.0)
        object.__setattr__(self, "theta", _frozen_array(theta, ndim=1))

    @property
    def dim(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Real trigonometric polynomial on the torus.

    value(theta) = constant
                 + sum_k [cos_coeffs[k] * cos(2*pi*<k_vecs[k], theta>)
                        + sin_coeffs[k] * sin(2*pi*<k_vecs[k], theta>)]

    An empty term list represents a constant map and is dimension-agnostic.
    """

    constant: float = 0.0
    k_vecs: np.ndarray = field(default_factory=lambda: np.zeros((0, 1), dtype=int))
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k_vecs, dtype=int))
        c = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        s = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        if k.shape[0] != c.size or c.size != s.size:
            raise ValueError("k_vecs, cos_coeffs, sin_coeffs must have equal length")
        if not np.all(np.isfinite(np.concatenate([[float(self.constant)], c, s]))):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "k_vecs", _frozen_array(k, dtype=int, ndim=2))
        object.__setattr__(self, "cos_coeffs", _frozen_array(c, ndim=1))
        object.__setattr__(self, "sin_coeffs", _frozen_array(s, ndim=1))

    @classmethod
    def const(cls, value: float) -> "TrigPoly":
        return cls(constant=float(value))

    @classmethod
    def from_terms(cls, constant, terms) -> "TrigPoly":
        """Build from [(k_vec, cos_coeff, sin_coeff), ...]."""
        if not terms:
            return cls(constant=constant)
        ks = np.array([np.atleast_1d(t[0]) for t in terms], dtype=int)
        cs = np.array([t[1] for t in terms], dtype=float)
        ss = np.array([t[2] for t in terms], dtype=float)
        return cls(constant=constant, k_vecs=ks, cos_coeffs=cs, sin_coeffs=ss)

    @property
    def n_terms(self) -> int:
        return self.cos_coeffs.size

    @property
    def dim(self):
        """Torus dimension the terms refer to, or None for pure constants."""
        return None if self.n_terms == 0 else self.k_vecs.shape[1]

    def is_zero(self) -> bool:
        return self.is_constant() and self.constant == 0.0

    def is_constant(self) -> bool:
        return not (self.cos_coeffs.any() or self.sin_coeffs.any())

    def sup_bound(self) -> float:
        """Certified upper bound: constant + sum(|cos| + |sin|)."""
        return self.constant + float(
            np.sum(np.abs(self.cos_coeffs)) + np.sum(np.abs(self.sin_coeffs))
        )

    def inf_bound(self) -> float:
        """Certified lower bound: constant - sum(|cos| + |sin|)."""
        return self.constant - float(
            np.sum(np.abs(self.cos_coeffs)) + np.sum(np.abs(self.sin_coeffs))
        )


def _rotate(flow: TorusFlow, thetas, t) -> np.ndarray:
    """The rotation rule, (theta + t * freqs) mod 1 componentwise: phases of
    shape (d,) or (n, d) moved by one time t, or by one time per row."""
    t = np.asarray(t, dtype=float)
    return np.mod(thetas + (t[:, None] if t.ndim else t) * flow.freqs, 1.0)


def advance_many(flow: TorusFlow, p: TorusPoint, ts) -> np.ndarray:
    """Phases along the orbit at each time in ts; shape (len(ts), dim)."""
    if p.dim != flow.dim:
        raise DimensionMismatchError(
            f"point dim {p.dim} does not match flow dim {flow.dim}"
        )
    return _rotate(flow, p.theta, np.atleast_1d(ts))


# Phases per block of `plan_blocks`: a sup reduced block by block holds
# O(PLAN_BLOCK m^2) numbers at any plan size. Counted in phases, not numbers,
# so each of m^2 matrix entries is evaluated once per block; the default
# orbit is one block, the default 64^2 grid eight.
PLAN_BLOCK = 512


def plan_blocks(flow: TorusFlow):
    """The flow's sampling plan, built (n <= PLAN_BLOCK, dim) rows at a
    time: the uniform grid in C order, then the orbit."""
    plan, d = flow.sampling, flow.dim
    g, n_grid = plan.grid_per_dim, plan.grid_per_dim**d
    for lo in range(0, n_grid, PLAN_BLOCK):
        idx = np.unravel_index(np.arange(lo, min(lo + PLAN_BLOCK, n_grid)), (g,) * d)
        yield np.stack(idx, axis=1) / g
    for lo in range(0, plan.orbit_points, PLAN_BLOCK):
        ts = (np.arange(lo, min(lo + PLAN_BLOCK, plan.orbit_points)) + 1) * plan.orbit_step
        yield advance_many(flow, TorusPoint(np.zeros(d)), ts)


def sample_thetas(flow: TorusFlow) -> np.ndarray:
    """Phases of the flow's sampling plan, for sup estimation; shape (N, dim)."""
    return np.concatenate(list(plan_blocks(flow)))


def _angles(poly: TrigPoly, thetas: np.ndarray) -> np.ndarray:
    """2 pi <k, theta> per phase row and term of a polynomial with terms,
    shape (n, n_terms), its products summed over the torus left to right."""
    d = poly.dim
    if d != thetas.shape[1]:
        raise DimensionMismatchError(
            f"polynomial over a {d}-torus evaluated on a {thetas.shape[1]}-torus"
        )
    k = poly.k_vecs.T.astype(float)  # float rows: an int operand casts through a ufunc buffer
    dot = thetas[:, 0, None] * k[0]
    for i in range(1, d):
        dot = dot + thetas[:, i, None] * k[i]
    return 2.0 * np.pi * dot


def _sum_terms(acc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """acc + a[:, 0] + b[:, 0] + a[:, 1] + b[:, 1] + ..., left to right, so
    each row's sum is the same bits in a batch of any size."""
    for k in range(a.shape[1]):
        acc = acc + a[:, k] + b[:, k]
    return acc


def eval_trig_many(poly: TrigPoly, thetas: np.ndarray) -> np.ndarray:
    """Evaluate at an (n, d) array of phases; returns shape (n,)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if poly.n_terms == 0:
        return np.full(thetas.shape[0], poly.constant)
    angles = _angles(poly, thetas)
    return _sum_terms(
        poly.constant, np.cos(angles) * poly.cos_coeffs, np.sin(angles) * poly.sin_coeffs
    )


def derivative_along_flow_many(
    poly: TrigPoly, flow: TorusFlow, thetas: np.ndarray
) -> np.ndarray:
    """d/dt of the evaluation along the rotation, at t = 0, for each phase row."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if poly.n_terms == 0:
        return np.zeros(thetas.shape[0])
    angles = _angles(poly, thetas)
    if thetas.shape[1] != flow.dim:
        raise DimensionMismatchError(
            f"phases of dim {thetas.shape[1]} with a flow of dim {flow.dim}"
        )
    rates = 2.0 * np.pi * (poly.k_vecs @ flow.freqs)  # (n_terms,)
    a = (-np.sin(angles) * rates) * poly.cos_coeffs
    b = (np.cos(angles) * rates) * poly.sin_coeffs
    return _sum_terms(a[:, 0] + b[:, 0], a[:, 1:], b[:, 1:])
