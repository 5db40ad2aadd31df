"""The non-autonomous difference operator, its history lift, and its inverse.

The operator acts on a history x as

    D(w, x) = B(w) x(0) - sum_k W_k(w) x(-s_k) - integral of the density,

with B and the delayed weights W_k matrices of trigonometric polynomials
over the driving torus and all delays strictly positive. Lifting along the
flow gives the history-to-history map

    (Dhat x)(s) = D(w . s, x_s),

which factors as Bhat o (I - Lhat) with Lhat the delayed part premultiplied
by B^{-1}. When the sampled sup of ||Lhat|| is below one the lift is
invertible. Its inverse and the integrator's z are one method of steps,
`StepPlan`: each row solves A x = target + delayed part, read at the
caller's stencils from older, solved rows, a tap on the row itself moved
into A. The inverse extends the past by a depth chosen a priori from the
geometric tail bound.

Only this module knows how the delayed part is laid out and summed: the
lift, the method of steps and the stored mass read x at
`AtomicMeasureFamily.delays` and sum the terms by its `add_into`, or
`DOperatorSpec.apply` for D itself.

Sups over the torus are estimated on the flow's sampling plan
(`base_flow.plan_blocks`), with the worst sampled phase. An operator
computes its stability estimate once, on first use of
`DOperatorSpec.stability`, where the inverse reads it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .base_flow import TorusFlow, TorusPoint, TrigPoly, advance_many, eval_trig_many, plan_blocks
from .base_flow import sample_thetas  # noqa: F401  perfbench's tracer wraps it here
from .errors import DimensionMismatchError, SingularBError, UnstableMarginError
from .history import FunctionHistory, HistoryGrid, _back_stencil, _nodes, gather, sup_norm


def identity_poly_matrix(m: int) -> list:
    """The m x m identity as a matrix of constant polynomials."""
    return [[TrigPoly.const(v) for v in row] for row in np.eye(m)]


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products of (..., m, m) and (..., m) as one stacked matmul."""
    return np.matmul(M, x[..., None])[..., 0]


def eval_poly_matrix_many(mat, thetas: np.ndarray) -> np.ndarray:
    """Evaluate an m x m matrix of polynomials at (n, d) phases -> (n, m, m).
    An entry without terms is written as its constant, not evaluated."""
    thetas = np.atleast_2d(thetas)
    m = len(mat)
    out = np.empty((thetas.shape[0], m, m))
    for i, row in enumerate(mat):
        if len(row) != m:
            raise DimensionMismatchError("polynomial matrix is not square")
        for j, poly in enumerate(row):
            out[:, i, j] = poly.constant if poly.n_terms == 0 else eval_trig_many(poly, thetas)
    return out


@dataclass(frozen=True, eq=False)
class MeasureAtom:
    """Point mass of the delayed part: weight matrix at a positive lag."""

    lag: float
    weight: list  # m x m nested list of TrigPoly

    def __post_init__(self):
        if not 0.0 < self.lag < math.inf:
            raise ValueError("delayed atoms must have a finite, strictly positive lag")
        object.__setattr__(self, "lag", float(self.lag))


@dataclass(frozen=True, eq=False)
class MeasureDensity:
    """Piecewise-constant matrix density on [-n_cells*step, 0).

    Cell l covers (-(l+1)*step, -l*step]; integration uses midpoints.
    """

    values: np.ndarray  # (n_cells, m, m)
    step: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise ValueError("density values must have shape (n_cells, m, m)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if not 0.0 < self.step < math.inf:
            raise ValueError("density step must be positive and finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "step", float(self.step))

    @property
    def support(self) -> float:
        return self.values.shape[0] * self.step

    @property
    def midpoints(self) -> np.ndarray:
        return -(np.arange(self.values.shape[0]) + 0.5) * self.step


@dataclass(frozen=True, eq=False)
class AtomicMeasureFamily:
    """Delayed part of the operator: atoms plus an optional density.

    No atom may sit at lag zero; the instantaneous part belongs to B.
    """

    atoms: tuple = ()
    density: Optional[MeasureDensity] = None

    def __post_init__(self):
        atoms = tuple(self.atoms)
        lags = [a.lag for a in atoms]
        if len(set(lags)) != len(lags):
            raise ValueError("atom lags must be distinct")
        object.__setattr__(self, "atoms", atoms)

    @property
    def support(self) -> float:
        s = max((a.lag for a in self.atoms), default=0.0)
        if self.density is not None:
            s = max(s, self.density.support)
        return s

    def is_empty(self) -> bool:
        return not self.atoms and self.density is None

    @property
    def delays(self) -> np.ndarray:
        """Lags the delayed part reads x at: atom lags, then density midpoints."""
        mids = [] if self.density is None else (-self.density.midpoints).tolist()
        return np.array([a.lag for a in self.atoms] + mids)

    def weights(self, thetas: np.ndarray) -> list:
        """Each atom's weight matrix at (n, d) phases, one (n, m, m) array per atom."""
        return [eval_poly_matrix_many(a.weight, thetas) for a in self.atoms]

    def add_into(self, acc: np.ndarray, W: list, rows: np.ndarray, op=np.add) -> np.ndarray:
        """Apply op(acc, term) in place to each term in turn and return acc:
        W_k x(-s_k) per atom, then step times the density's cells
        V_l x(-mid_l) summed left to right. acc is (n, m), W from `weights`
        at the n phases, rows (n, len(delays), m) x at `delays`. Each product
        is one stacked matmul, so a row does not depend on the batch size."""
        for k, Wk in enumerate(W):
            op(acc, _mv(Wk, rows[:, k]), out=acc)
        if self.density is not None:
            first, *rest = self.density.values
            cells = _mv(first, rows[:, len(W)])
            for k, V in enumerate(rest, start=len(W) + 1):
                cells += _mv(V, rows[:, k])
            op(acc, self.density.step * cells, out=acc)
        return acc


@dataclass(frozen=True, eq=False)
class StabilityEstimate:
    """Sampled contraction estimate for the lifted delayed part."""

    lam: float
    k_bound: float
    sup_Binv: float
    sample_count: int
    worst_point: TorusPoint


@dataclass(frozen=True, eq=False)
class DOperatorSpec:
    """Difference operator data: instantaneous matrix, delayed family, flow."""

    m: int
    B: list  # m x m nested list of TrigPoly
    nu: AtomicMeasureFamily
    flow: TorusFlow

    def __post_init__(self):
        if len(self.B) != self.m or any(len(row) != self.m for row in self.B):
            raise DimensionMismatchError("B must be an m x m polynomial matrix")
        for atom in self.nu.atoms:
            if len(atom.weight) != self.m or any(
                len(row) != self.m for row in atom.weight
            ):
                raise DimensionMismatchError("atom weights must be m x m")
        if self.nu.density is not None and self.nu.density.values.shape[1] != self.m:
            raise DimensionMismatchError("density blocks must be m x m")

    @property
    def support(self) -> float:
        return self.nu.support

    @property
    def offsets(self) -> np.ndarray:
        """Offsets D reads x at, the rows `apply` takes: 0, then -nu.delays."""
        return np.append(0.0, -self.nu.delays)

    def apply(self, thetas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """D at (n, d) phases, (n, m): B x(0) with each term of the delayed
        part subtracted in turn (not a negated add, which would flip the
        sign of an exact zero). rows (n, len(offsets), m) holds x at
        `offsets`."""
        if rows.shape[-1] != self.m:
            raise DimensionMismatchError(
                f"history dim {rows.shape[-1]} does not match operator dim {self.m}"
            )
        Bx = _mv(eval_poly_matrix_many(self.B, thetas), rows[:, 0])
        return self.nu.add_into(Bx, self.nu.weights(thetas), rows[:, 1:], np.subtract)

    @cached_property
    def stability(self) -> StabilityEstimate:
        """`stability_margin` on the flow's sampling plan, computed on first use."""
        return stability_margin(self)


def _batch_inverse(Bv: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """B^-1 at each phase, or SingularBError at the first where |det B| <
    1e-14 max(1, max|B|)^m; det is taken where Hadamard's bound on B^-1
    does not clear that by 1e3."""
    scale = np.maximum(1.0, np.max(np.abs(Bv), axis=(1, 2)) ** Bv.shape[1])
    try:
        Binv = np.linalg.inv(Bv)
    except np.linalg.LinAlgError:  # a zero pivot
        Binv = np.full_like(Bv, np.nan)
    with np.errstate(all="ignore"):  # a NaN or inf clears nothing
        bound = -0.5 * np.sum(np.log(np.einsum("nij,nij->ni", Binv, Binv)), axis=1)
        check = np.flatnonzero(~(np.isfinite(bound) & (bound >= np.log(1e-11 * scale))))
    dets = np.linalg.det(Bv[check])
    bad = np.flatnonzero(np.abs(dets) < 1e-14 * scale[check])
    if bad.size:
        raise SingularBError(TorusPoint(thetas[check[bad[0]]]), float(dets[bad[0]]))
    return Binv


# lam must stay this far below one for the delayed part to count as a contraction.
_STABILITY_GUARD = 1e-6


def stability_margin(spec: DOperatorSpec) -> StabilityEstimate:
    """Sampled sup of the weighted delayed mass, and the induced norm bound.

    lam is the max over sampled phases of the max row sum of
    sum_k |B^-1 W_k| plus the integrated |B^-1 density|; k_bound is
    sup||B^-1|| / (1 - lam). Raises when lam is not safely below one.
    Read by `plan_blocks`, in O(PLAN_BLOCK m^2) memory; the worst phase is
    the first attaining lam, and a singular B raises at its first phase.
    """
    lam, sup_Binv, count = -math.inf, -math.inf, 0
    for thetas in plan_blocks(spec.flow):
        Binv = _batch_inverse(eval_poly_matrix_many(spec.B, thetas), thetas)
        sup_Binv = np.maximum(sup_Binv, np.max(np.sum(np.abs(Binv), axis=2)))
        rows = np.zeros((thetas.shape[0], spec.m))
        for atom in spec.nu.atoms:
            Wv = eval_poly_matrix_many(atom.weight, thetas)
            rows += np.sum(np.abs(np.einsum("nab,nbc->nac", Binv, Wv)), axis=2)
        if spec.nu.density is not None:
            dens = spec.nu.density
            for l in range(dens.values.shape[0]):
                prod = np.abs(np.einsum("nab,bc->nac", Binv, dens.values[l]))
                rows += dens.step * np.sum(prod, axis=2)
        per_point = np.max(rows, axis=1)
        idx = int(np.argmax(per_point))  # the first maximum, or the first NaN
        if np.argmax([lam, per_point[idx]]):  # and so across blocks
            lam, worst = float(per_point[idx]), TorusPoint(thetas[idx])
        count += thetas.shape[0]
    sup_Binv = float(sup_Binv)
    if not lam < 1.0 - _STABILITY_GUARD:  # NaN data fails here too
        raise UnstableMarginError(lam)
    return StabilityEstimate(
        lam=lam,
        k_bound=sup_Binv / (1.0 - lam),
        sup_Binv=sup_Binv,
        sample_count=count,
        worst_point=worst,
    )


def eval_D(spec: DOperatorSpec, p: TorusPoint, hist) -> np.ndarray:
    """Apply the operator at one phase: B(w) x(0) minus the delayed mass."""
    return spec.apply(p.theta[None, :], hist.sample_many(spec.offsets)[None])[0]


def eval_Dhat_segment(
    spec: DOperatorSpec, p: TorusPoint, hist: HistoryGrid, depth: int
) -> HistoryGrid:
    """Lift along the flow: node j holds D(w . (-j h), x_{-j h}), j = 0..depth,
    read from the history cut at j (`HistoryGrid.read_back`), never from a
    newer row: it is `eval_D` on that cut bit for bit."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    h = hist.step
    nodes = np.arange(depth + 1)
    thetas = advance_many(spec.flow, p, -h * nodes)
    out = spec.apply(thetas, hist.read_back(nodes, -spec.offsets / h))
    return HistoryGrid(h, out, hist.tail)


class StepPlan:
    """The method of steps: row r, at phase theta[r], solves A x = acc + the
    delayed part of x, read at stencils (idx, w) for the columns `cols` of
    nu.delays; A = B - sum w0 W takes a row's taps w0 on itself. A tap of
    weight 0 still reads its row, which must be written: it may hold NaN.
    reach[r] is the newest row rows 0 .. r read."""

    __slots__ = ("nu", "cols", "W", "Ainv", "idx", "w", "reach")

    def __init__(self, spec, theta, idx, w, w0=0.0, cols=slice(None)):
        n = theta.shape[0]
        B, W = eval_poly_matrix_many(spec.B, theta), spec.nu.weights(theta)
        if np.any(w0):  # B - sum w0 W, column by column
            for i, e in enumerate(np.eye(spec.m)):
                B[:, :, i] -= spec.nu.add_into(np.zeros((n, spec.m)), W, w0[..., None] * e)
        self.nu, self.cols, self.W, self.idx, self.w = spec.nu, cols, W, idx, w
        self.Ainv = _batch_inverse(B, theta)
        self.reach = np.maximum.accumulate(idx.reshape(n, -1).max(axis=1, initial=0)).tolist()

    def end(self, written: int) -> int:
        """One past the last row that, as all before it, reads only `written` rows."""
        return bisect.bisect_right(self.reach, written - 1)

    def read(self, X: np.ndarray, lo: int, hi: int, acc: np.ndarray) -> np.ndarray:
        """Rows lo .. hi - 1 read from X: one `gather` of every column, returned,
        and one `add_into` of the delayed part into acc."""
        rows = gather(X, self.idx[lo:hi], self.w[lo:hi])
        self.nu.add_into(acc, [Wk[lo:hi] for Wk in self.W], rows[:, self.cols])
        return rows


def invert_Dhat(
    spec: DOperatorSpec,
    p: TorusPoint,
    yhat: HistoryGrid,
    tol: float,
    n_terms: Optional[int] = None,
) -> HistoryGrid:
    """Invert the lift by the method of steps, a `StepPlan` over the grid.

    x solves B x = yhat + delayed part of x on a working grid extended N
    delay spans into the past, N from the geometric tail bound of
    `spec.stability` unless n_terms sets it. Its nodes, oldest first, are
    the plan's rows, read back from each by the lift's causal rule, past
    the grid at its oldest row as it stands (0 under a ZERO tail), and a
    tap on the row itself moves into A. The oldest gap rows, gap the least
    distance from a row to an older row it reads, read A^-1 yhat: an error
    damped by lam^N at the returned rows, which reach one support past the
    input's, or to the oldest row its nodes' stencils read, so a round trip
    through eval_Dhat_segment at the input depth stays within tol.
    """
    if spec.m != yhat.m:
        raise DimensionMismatchError(
            f"target dim {yhat.m} does not match operator dim {spec.m}"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    if n_terms is not None and not (n_terms >= 0 and float(n_terms).is_integer()):
        raise ValueError("n_terms must be a whole number >= 0")
    est = spec.stability
    lam = est.lam
    h = yhat.step
    ynorm = sup_norm(yhat)
    n_s = _nodes(spec.support, h)
    if n_terms is not None:
        N = int(n_terms)
    elif lam <= 0.0 or ynorm == 0.0 or spec.nu.is_empty():
        N = 0
    else:
        target = tol * (1.0 - lam) / (est.sup_Binv * ynorm)
        N = 0 if target >= 1.0 else int(np.ceil(np.log(target) / np.log(lam)))
    pos = spec.nu.delays / h
    reach = int(np.max(_back_stencil(pos, n_s + 4)[0], initial=0))
    J_ret = yhat.J + max(n_s, reach)
    K = J_ret + N * n_s + 1
    s_nodes = -h * np.arange(K - 1, -1, -1)  # oldest first
    y = yhat.sample_many(s_nodes)
    r = np.arange(K)[:, None]  # row r comes after r rows
    b, w, beyond = _back_stencil(pos, r + 1)
    live = (w != 0.0) & ~beyond[..., None]
    own = live & (b == 0)
    gap = int(np.min(b, where=live & (b > 0), initial=K))
    # taps on the row itself read the row before with weight 0 (row 0 its
    # starting value); the live one's weight moves into A
    idx = np.maximum(r[..., None] - np.maximum(b, 1), 0)
    w0 = np.where(own, w, 0.0).sum(axis=-1)
    plan = StepPlan(spec, advance_many(spec.flow, p, s_nodes), idx, np.where(own, 0.0, w), w0)
    x = np.empty((K, spec.m))
    x[:gap] = np.einsum("jab,jb->ja", plan.Ainv[:gap], y[:gap])  # what the first window reads
    lo, hi = 0, gap
    while lo < K:
        plan.read(x, lo, hi, y[lo:hi])
        x[lo:hi] = np.einsum("jab,jb->ja", plan.Ainv[lo:hi], y[lo:hi])
        lo, hi = hi, plan.end(hi)
    return HistoryGrid(h, x[::-1][: J_ret + 1], yhat.tail)


def extract_atom_at_zero(spec: DOperatorSpec, p: TorusPoint, rho: float) -> np.ndarray:
    """Recover the instantaneous matrix by probing with short plateau functions.

    The probe is 1 on (-rho, 0], falls linearly to 0 on (-2 rho, -rho], and
    vanishes earlier; column i is the operator applied to probe * e_i. For
    atom-only delayed parts with 2 rho below the smallest lag this equals
    B(w) exactly.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= -2.0 * rho, 0.0, np.where(s <= -rho, s / rho + 2.0, 1.0))

    out = np.empty((spec.m, spec.m))
    for i, e in enumerate(np.eye(spec.m)):
        probe = FunctionHistory(lambda s, e=e: phi(s)[:, None] * e[None, :], spec.m)
        out[:, i] = eval_D(spec, p, probe)
    return out
