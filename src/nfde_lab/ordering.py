"""Exponential-order cones on histories and their lift through the operator.

A quasipositive matrix A (off-diagonal entries nonnegative) and a horizon
define the cone of histories v with v >= 0 and
v(t) >= exp(A (t - s)) v(s) for s <= t inside the horizon. Because
exp(A h) is entrywise nonnegative, checking consecutive grid nodes chains
to every node pair, so membership on a grid costs O(J).

The cone margin of a gap history is defined here once, on rows oldest
first (`_end_margin`): the least gap or, if lower, the least decay slack
v(j) - exp(A h) v(j - 1) over the steps of the cone window, witnessed at
the oldest row where it is attained. `cone_membership` reads it at the
newest node, and the integrator's pair monitor at every logged row.

With the infinite horizon the matrix must additionally be Hurwitz; this is
verified exactly for triangular matrices and by the Gershgorin row test
otherwise, unless the caller explicitly vouches for it.

The transformed order compares two histories by lifting both through a
difference operator first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base_flow import TorusPoint
from .d_operator import DOperatorSpec, eval_Dhat_segment
from .errors import DimensionMismatchError, HorizonError
from .history import _EQ_TOL, _SNAP, HistoryGrid, TailPolicy, _nodes


def is_quasipositive(A: np.ndarray) -> bool:
    """True iff all off-diagonal entries are >= 0; A must be a square matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square and 2-d, got shape {A.shape}")
    off = A - np.diag(np.diagonal(A))
    return bool(np.all(off >= 0.0))


# Scaling and squaring with the [13/13] Pade approximant (Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM J.
# Matrix Anal. Appl. 26 (2005)): _THETA13 is the largest 1-norm for which
# the approximant meets double precision, _PADE13 its coefficients b_0..b_13.
_THETA13 = 5.371920351148152
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a square matrix; exactly the identity when A is zero."""
    n = A.shape[0]
    ident = np.eye(n)
    norm = float(np.max(np.sum(np.abs(A), axis=0)))
    if norm == 0.0:
        return ident
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    A = A / 2.0**s
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * ident
    )
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def matrix_exp(A: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) for t >= 0; diagonal matrices are exponentiated exactly."""
    if t < 0:
        raise ValueError("matrix_exp requires t >= 0")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.any(A - np.diag(np.diagonal(A))):
        return np.diag(np.exp(np.diagonal(A) * t))
    return _expm(A * t)


def _is_triangular(A: np.ndarray) -> bool:
    return not np.any(np.triu(A, 1)) or not np.any(np.tril(A, -1))


def _certify_hurwitz(A: np.ndarray, assume: bool) -> None:
    if _is_triangular(A):
        if np.all(np.diagonal(A) < 0):
            return
        raise ValueError("infinite-horizon cone needs all eigenvalues negative")
    radii = np.sum(np.abs(A - np.diag(np.diagonal(A))), axis=1)
    if np.all(np.diagonal(A) + radii < 0):
        return
    if assume:
        return
    raise ValueError(
        "cannot certify a negative spectrum for this matrix; "
        "pass assume_hurwitz=True to override"
    )


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Cone data: quasipositive matrix and a finite or infinite horizon."""

    A: np.ndarray
    horizon: float = math.inf
    assume_hurwitz: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float)).copy()
        if not is_quasipositive(A):
            raise ValueError("cone matrix must be quasipositive")
        if not (self.horizon > 0):
            raise ValueError("cone horizon must be positive")
        if math.isinf(self.horizon):
            _certify_hurwitz(A, self.assume_hurwitz)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def infinite(self) -> bool:
        return math.isinf(self.horizon)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a membership check.

    min_margin is the most negative slack found (0 when every check holds);
    witness locates the worst violation as (s, t, component).
    """

    ordered: bool
    min_margin: float
    witness: Optional[tuple]


def _window(n: int, cone: ConeSpec, h: float) -> int:
    """Steps of the cone window over n rows."""
    return n if cone.infinite else int(math.floor(cone.horizon / h + _SNAP))


def _decay_slack(V: np.ndarray, expAh: np.ndarray) -> np.ndarray:
    """v(j) - exp(A h) v(j - 1) per row j (oldest first) and component;
    +inf at row 0, where no step ends."""
    slack = np.full(V.shape, np.inf)
    slack[1:] = V[1:] - V[:-1] @ expAh.T
    return slack


def _end_margin(V: np.ndarray, cone: ConeSpec, expAh: np.ndarray, h: float) -> tuple:
    """Raw cone margin at the last row of V, rows oldest first: the least
    entry of V or, if lower, the least decay slack over the steps of the
    cone window ending there. Returns (margin, row, component, from_step),
    where the margin is attained at its oldest row; from_step tells that
    it is the slack of the step from row - 1 to row."""
    slack = _decay_slack(V, expAh)
    slack[: max(V.shape[0] - _window(V.shape[0], cone, h), 0)] = np.inf
    from_step = bool(np.min(slack) < np.min(V))
    worst = slack if from_step else V
    row, comp = divmod(int(np.argmin(worst)), V.shape[1])
    return float(worst[row, comp]), row, comp, from_step


def cone_membership(
    x: HistoryGrid, y: HistoryGrid, cone: ConeSpec, tol_cone: float = 1e-9
) -> OrderReport:
    """Is y - x in the cone, up to tol_cone, on the sampled grid?

    Checks the componentwise sign on the whole grid and the exponential
    decay condition on consecutive nodes within the horizon; chaining
    extends the pairwise condition to all node pairs because exp(A h) is
    entrywise nonnegative.
    """
    if x.m != y.m or cone.m != x.m:
        raise DimensionMismatchError("state dimensions disagree")
    if abs(x.step - y.step) > _EQ_TOL or x.J != y.J:
        raise DimensionMismatchError("histories must share one grid")
    if not cone.infinite and cone.horizon > x.horizon + _SNAP:
        raise HorizonError(
            f"grid horizon {x.horizon:.6g} does not cover cone horizon {cone.horizon:.6g}"
        )
    h = x.step
    V = y.samples[::-1] - x.samples[::-1]  # oldest first
    expAh = matrix_exp(cone.A, h)
    raw, row, comp, from_step = _end_margin(V, cone, expAh, h)
    j = x.J - row  # nodes back from the newest
    witness = (-(j + 1) * h if from_step else -j * h, -j * h, comp)
    if cone.infinite:
        # constant tail: one self-pair certifies every pair reaching into it
        tail = V[0] - expAh @ V[0]
        if np.min(tail) < raw:
            raw = float(np.min(tail))
            witness = (-math.inf, -x.J * h, int(np.argmin(tail)))
    return OrderReport(raw >= -tol_cone, min(0.0, raw), witness)


def transformed_cone_membership(
    dspec: DOperatorSpec,
    p: TorusPoint,
    x: HistoryGrid,
    y: HistoryGrid,
    cone: ConeSpec,
    tol_cone: float = 1e-9,
) -> OrderReport:
    """Membership of the pair after lifting both histories through the operator.

    The lift is evaluated on the part of the grid where it needs no tail
    data: depth = J - ceil(support / step).
    """
    if abs(x.step - y.step) > _EQ_TOL or x.J != y.J:
        raise DimensionMismatchError("histories must share one grid")
    n_s = _nodes(dspec.support, x.step)
    depth = x.J - n_s
    if depth < 1:
        raise HorizonError("history too short to evaluate the lifted order")
    Dx = eval_Dhat_segment(dspec, p, x, depth)
    Dy = eval_Dhat_segment(dspec, p, y, depth)
    return cone_membership(Dx, Dy, cone, tol_cone)


@dataclass(frozen=True, eq=False)
class ComparisonUpper:
    """A strictly positive cone member used to sandwich bounded data."""

    hist: HistoryGrid
    k0: float


def make_comparison_upper(
    cone: ConeSpec, m: int, step: float = 0.01, horizon: Optional[float] = None
) -> ComparisonUpper:
    """Canonical upper comparison history.

    Infinite horizon: the constant -A^{-1} 1 (requires A invertible, which
    the Hurwitz certification guarantees). Finite horizon rho: the solution
    of v' = A v + 1 started from the constant 1 at -rho, with 1 kept for
    older offsets. Both satisfy the cone conditions with positive slack and
    have all components at least k0 > 0.
    """
    if cone.m != m:
        raise DimensionMismatchError("cone matrix dimension does not match m")
    ones = np.ones(m)
    if cone.infinite:
        val = np.linalg.solve(cone.A, -ones)
        H = horizon if horizon is not None else 1.0
        J = _nodes(H, step)
        rows = np.tile(val, (J + 1, 1))
        k0 = float(np.min(val))
    else:
        rho = cone.horizon
        H = max(horizon if horizon is not None else rho, rho)
        J = _nodes(H, step)
        rows = np.ones((J + 1, m))
        # u = (v, 1) solves u' = M u, so u(tau) = exp(M tau) 1. The nodes with
        # tau_j = rho - j step > 0 are r0 + (j_max - j) step: start at the
        # oldest and advance one step at a time by the semigroup.
        M = np.zeros((2 * m, 2 * m))
        M[:m, :m] = cone.A
        M[:m, m:] = np.eye(m)
        taus = rho - step * np.arange(J + 1)
        j_max = int(np.count_nonzero(taus > _SNAP)) - 1
        if j_max >= 0:
            u = _expm(M * taus[j_max]).sum(axis=1)
            rows[j_max] = u[:m]
            Eh = _expm(M * step)
            for j in range(j_max - 1, -1, -1):
                u = Eh @ u
                rows[j] = u[:m]
        k0 = float(min(np.min(rows), 1.0))
    if k0 <= 0:
        raise ValueError("comparison history is not strictly positive")
    return ComparisonUpper(HistoryGrid(step, rows, TailPolicy.CONSTANT), k0)
