"""Compartmental transport networks and their monotonicity condition checkers.

Material moves between m compartments through pipes with discrete transit
time distributions; each transport rate is a phase-dependent gain times a
fixed shape of the donor content. `CompartmentalSystem` is the one system
type that integration, mass and operator functions take. Its subclass
`NeutralDiagSystem` is the neutral-diagonal family: each compartment is
coupled to its own delayed content through a coefficient c_i below one in
absolute size, one delay alpha_i per compartment, and a transit lag rho_ij
per pipe, with no exchange with the environment.

Condition checkers evaluate closed-form inequalities in the gains, the
delayed self-coupling coefficients, and an exponential rate vector a <= 0
over a sampled set of driving phases. Margins are reported per component
and per sub-inequality with the worst sampled phase as witness. Identifiers
G3, G4, G5, G8, G9 name the alternative sufficient conditions accepted by
`check_condition`; they differ in the structural relation they require
between rho_ii and alpha_i and in whether the coefficients c_i must be
differentiable along the flow.

Because transport shapes have closed-form derivative ranges, all margins
here are exact at the sampled phases rather than sampled in the state
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base_flow import (
    TorusFlow,
    TorusPoint,
    TrigPoly,
    _is_whole,
    _rotate,
    advance_many,
    derivative_along_flow_many,
    eval_trig_many,
    plan_blocks,
)
from .d_operator import AtomicMeasureFamily, DOperatorSpec, MeasureAtom, identity_poly_matrix
from .errors import (
    DimensionMismatchError,
    HorizonError,
    StructuralPreconditionError,
)
from .history import _EQ_TOL, _SNAP, HistoryGrid, _nodes, _read_back


CONDITIONS = ("G3", "G4", "G5", "G8", "G9")


@dataclass(frozen=True)
class ShapeFn:
    """Shape factor of a transport rate: C^1, nondecreasing, zero at zero.

    identity:   s(v) = v,              derivative range (1, 1)
    sine_bend:  s(v) = v + eps sin v,  derivative range (1-eps, 1+eps)
    saturate:   s(v) = v / (1 + |v|),  derivative range (0, 1)
    """

    kind: str = "identity"
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "sine_bend", "saturate"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "sine_bend" and not (0.0 <= self.eps < 1.0):
            raise ValueError("sine_bend needs eps in [0, 1)")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def sine_bend(cls, eps: float):
        return cls("sine_bend", eps)

    @classmethod
    def saturate(cls):
        return cls("saturate")

    def value(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v
        if self.kind == "sine_bend":
            return v + self.eps * np.sin(v)
        return v / (1.0 + np.abs(v))

    def value_scalar(self, v: float) -> float:
        if self.kind == "identity":
            return v
        if self.kind == "sine_bend":
            return v + self.eps * math.sin(v)
        return v / (1.0 + abs(v))

    def deriv_bounds(self) -> tuple:
        if self.kind == "identity":
            return (1.0, 1.0)
        if self.kind == "sine_bend":
            return (1.0 - self.eps, 1.0 + self.eps)
        return (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class TransportSpec:
    """Transport rate g(w, v) = gain(w) * shape(v); gain must stay >= 0."""

    gain: TrigPoly
    shape: ShapeFn = field(default_factory=ShapeFn.identity)

    def is_zero(self) -> bool:
        return self.gain.is_zero()

    def eval_at(self, thetas: np.ndarray, v) -> np.ndarray:
        return eval_trig_many(self.gain, thetas) * self.shape.value(v)

    @classmethod
    def zero(cls):
        return cls(TrigPoly.const(0.0))

    @classmethod
    def linear(cls, gain) -> "TransportSpec":
        if not isinstance(gain, TrigPoly):
            gain = TrigPoly.const(gain)
        return cls(gain, ShapeFn.identity())


@dataclass(frozen=True)
class PipeSpec:
    """Discrete transit-time distribution: positive weights at lags, summing to 1."""

    atoms: tuple = ((0.0, 1.0),)

    def __post_init__(self):
        atoms = tuple((float(r), float(w)) for r, w in self.atoms)
        if not atoms:
            raise ValueError("a pipe needs at least one atom")
        if any(r < 0 for r, _ in atoms):
            raise ValueError("transit lags must be >= 0")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("transit weights must be positive")
        if abs(sum(w for _, w in atoms) - 1.0) > _EQ_TOL:
            raise ValueError("transit weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def instant(cls):
        return cls(((0.0, 1.0),))

    @classmethod
    def delta(cls, lag: float):
        return cls(((float(lag), 1.0),))


def _as_transport_grid(transports, m: int):
    grid = tuple(tuple(row) for row in transports)
    if len(grid) != m or any(len(row) != m for row in grid):
        raise DimensionMismatchError("transports must form an m x m grid")
    return grid


@dataclass(frozen=True, eq=False)
class CompartmentalSystem:
    """General network: transports g_ij (from j into i), pipes, in/outflows.

    The balance law for compartment i reads

        d/dt D_i(w . t, z_t) = -g_0i(w . t, z_i) - sum_j g_ji(w . t, z_i)
                               + sum_j sum_pipe w_k g_ij(w . (t - r_k), z_j(t - r_k))
                               + I_i(w . t).
    """

    m: int
    transports: tuple  # [i][j] -> TransportSpec, flow from j into i
    outflows: tuple  # per compartment, toward the environment
    inflows: tuple  # per compartment, TrigPoly
    pipes: tuple  # [i][j] -> PipeSpec for the j -> i pipe
    dspec: DOperatorSpec
    flow: TorusFlow

    def __post_init__(self):
        object.__setattr__(self, "transports", _as_transport_grid(self.transports, self.m))
        pipes = tuple(tuple(row) for row in self.pipes)
        if len(pipes) != self.m or any(len(row) != self.m for row in pipes):
            raise DimensionMismatchError("pipes must form an m x m grid")
        object.__setattr__(self, "pipes", pipes)
        if len(self.outflows) != self.m or len(self.inflows) != self.m:
            raise DimensionMismatchError("outflows and inflows must have length m")
        object.__setattr__(self, "outflows", tuple(self.outflows))
        object.__setattr__(self, "inflows", tuple(self.inflows))
        if self.dspec.m != self.m:
            raise DimensionMismatchError("operator dimension does not match m")
        self.dspec.stability  # raises when the delayed part is not a contraction
        self._check_gains()
        object.__setattr__(self, "_terms", _BalanceTerms(self))

    def _check_gains(self) -> None:
        """Raise StructuralPreconditionError for a transport or outflow gain
        below zero: a constant gain directly, a phase-dependent one at the
        flow's sampled phases. A NeutralDiagSystem runs its c_i check on the
        same phases before this, and the condition checkers read them too."""
        gains = [
            (f"transport gain for pair ({i},{j})", self.transports[i][j].gain)
            for i in range(self.m)
            for j in range(self.m)
        ] + [(f"outflow gain of compartment {i}", tr.gain) for i, tr in enumerate(self.outflows)]
        for name, gain in gains:
            if gain.is_constant():
                low = gain.constant
            else:
                low = np.min([np.min(eval_trig_many(gain, th)) for th in plan_blocks(self.flow)])
            if low < -_EQ_TOL:
                raise StructuralPreconditionError(f"negative {name}")

    @property
    def max_pipe_lag(self) -> float:
        return self._terms.lags[-1]


class _BalanceTerms:
    """The balance law of a network as a table of coefficient columns.

    Column n, `cols[n] = (poly, r)`, is a gain or an inflow read at the
    phase r back. `lags` holds 0.0 and then each distinct positive lag of an
    active pipe. `rows[i]` holds compartment i's terms in the order its
    balance sums them: (column, shape) per active outflow and out-transport
    (into j, by j), the inflow's column, and (j, n, w, column, shape) per
    atom of an active pipe into i, which reads z_j at lags[n] back.
    """

    __slots__ = ("flow", "cols", "lags", "rows")

    def __init__(self, g: CompartmentalSystem):
        m = g.m
        active = [(i, j) for i in range(m) for j in range(m) if not g.transports[i][j].is_zero()]
        pipe = {r for i, j in active for r, _ in g.pipes[i][j].atoms if r > 0.0}
        self.lags = (0.0,) + tuple(sorted(pipe))
        self.flow = g.flow
        self.cols = []

        def col(poly: TrigPoly, r: float = 0.0) -> int:
            self.cols.append((poly, 0.0 if poly.is_constant() else r))
            return len(self.cols) - 1

        rows = []
        for i in range(m):
            outs = [g.outflows[i]] + [g.transports[j][i] for j in range(m)]
            outs = tuple((col(tr.gain), tr.shape.value_scalar) for tr in outs if not tr.is_zero())
            pipes = tuple(
                (j, self.lags.index(r), w, col(tr.gain, r), tr.shape.value_scalar)
                for j, tr in enumerate(g.transports[i])
                if not tr.is_zero()
                for r, w in g.pipes[i][j].atoms
            )
            rows.append((outs, col(g.inflows[i]), pipes))
        self.rows = tuple(rows)

    def coeffs(self, thetas: np.ndarray) -> np.ndarray:
        """Every column at each row of the (n, d) phases: shape (n, columns).
        A column read r back takes the phase of `advance_many` there."""
        cols = []
        for poly, r in self.cols:
            th = _rotate(self.flow, thetas, -r) if r else thetas
            cols.append(eval_trig_many(poly, th))
        return np.column_stack(cols)

    def balance(self, c, zs) -> list:
        """Net balance rate, one float per compartment, from a coefficient
        row c, where zs[n] is the state at lags[n] back and zs[0] the state
        now."""
        F = []
        for i, (outs, inflow, pipes) in enumerate(self.rows):
            total_out = 0.0
            for n, shape in outs:
                total_out += c[n] * shape(zs[0][i])
            f = -total_out + c[inflow]
            for j, lag, w, n, shape in pipes:
                f += w * (c[n] * shape(zs[lag][j]))
            F.append(f)
        return F


def _induced_dspec(m, c, alpha, flow) -> DOperatorSpec:
    zero = TrigPoly.const(0.0)
    by_lag: dict = {}
    for i in range(m):
        if c[i].is_zero():
            continue
        by_lag.setdefault(float(alpha[i]), []).append(i)
    atoms = []
    for lag, idxs in sorted(by_lag.items()):
        weight = [[zero] * m for _ in range(m)]
        for i in idxs:
            weight[i][i] = c[i]
        atoms.append(MeasureAtom(lag, weight))
    return DOperatorSpec(m, identity_poly_matrix(m), AtomicMeasureFamily(tuple(atoms)), flow)


@dataclass(frozen=True, eq=False)
class NeutralDiagSystem(CompartmentalSystem):
    """Closed network whose operator couples each z_i to its own delayed value:

        D_i(w, x) = x_i(0) - c_i(w) x_i(-alpha_i),   0 <= c_i(w) < 1,

    with one delta pipe of lag rho_ij per pair and no outflow or inflow. It
    is a CompartmentalSystem whose outflows, inflows, pipes and dspec are
    derived from c, alpha and rho; its own checks run before the network's.
    Setting g6=True additionally demands sum_i c_i(w) < 1 at the sampled
    phases, which the differentiable-coefficient conditions (G8, G9) need.
    c_sup holds each c_i's sup over those phases.
    """

    c: tuple  # per-compartment TrigPoly
    alpha: np.ndarray
    rho: np.ndarray  # (m, m) transit lags, rho[i][j] for the j -> i pipe
    g6: bool = False
    outflows: tuple = field(init=False)
    inflows: tuple = field(init=False)
    pipes: tuple = field(init=False)
    dspec: DOperatorSpec = field(init=False)
    c_sup: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.c) != self.m:
            raise DimensionMismatchError("need one coefficient per compartment")
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float)).copy()
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float)).copy()
        if alpha.shape != (self.m,):
            raise DimensionMismatchError("alpha must have shape (m,)")
        if rho.shape != (self.m, self.m):
            raise DimensionMismatchError("rho must have shape (m, m)")
        if np.any(alpha <= 0):
            raise StructuralPreconditionError("alpha must be strictly positive")
        if np.any(rho < 0):
            raise StructuralPreconditionError("rho must be nonnegative")
        alpha.setflags(write=False)
        rho.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "transports", _as_transport_grid(self.transports, self.m))
        object.__setattr__(self, "c", tuple(self.c))
        negative = over = False
        sups = []
        for thetas in plan_blocks(self.flow):
            cvals = np.stack([eval_trig_many(ci, thetas) for ci in self.c], axis=1)
            negative |= bool(np.any(cvals < -_EQ_TOL))
            over |= bool(np.any((cvals.sum(axis=1) if self.g6 else cvals) >= 1.0 - _EQ_TOL))
            sups.append(np.max(cvals, axis=0))
        if negative:
            raise StructuralPreconditionError("coefficients c_i must be >= 0")
        if over and self.g6:
            raise StructuralPreconditionError("sum of c_i must stay below 1 when g6 is requested")
        if over:
            raise StructuralPreconditionError("each c_i must stay below 1")
        object.__setattr__(self, "c_sup", np.max(sups, axis=0))
        object.__setattr__(self, "outflows", (TransportSpec.zero(),) * self.m)
        object.__setattr__(self, "inflows", (TrigPoly.const(0.0),) * self.m)
        pipes = tuple(tuple(PipeSpec.delta(r) for r in row) for row in rho)
        object.__setattr__(self, "pipes", pipes)
        object.__setattr__(self, "dspec", _induced_dspec(self.m, self.c, alpha, self.flow))
        super().__post_init__()


def _check_covers_pipes(sys, hist: HistoryGrid) -> None:
    """HorizonError unless hist reaches back to the longest pipe lag."""
    if sys.max_pipe_lag > hist.horizon + _SNAP:
        raise HorizonError(
            f"history horizon {hist.horizon:.6g} does not cover pipe lag {sys.max_pipe_lag:.6g}"
        )


def eval_F(sys, p: TorusPoint, hist: HistoryGrid) -> np.ndarray:
    """Net balance rate at one phase from a history grid.

    Only the offsets 0 and minus each pipe lag are read, all in one
    hist.sample_many call.
    """
    if hist.m != sys.m:
        raise DimensionMismatchError("history dimension does not match the system")
    _check_covers_pipes(sys, hist)
    terms = sys._terms
    zs = hist.sample_many([0.0] + [-r for r in terms.lags[1:]])
    return np.array(terms.balance(terms.coeffs(p.theta[None, :])[0], zs))


def total_mass(sys, p: TorusPoint, hist: HistoryGrid) -> float:
    """Stored mass (sum of operator components) plus mass in transit, read
    from the newest W + 1 nodes of hist, W = `_mass_span`: one row of
    `_total_mass_many`. A node past the grid reads hist's oldest sample."""
    _check_covers_pipes(sys, hist)
    W = _mass_span(sys, hist.step)
    X = hist.sample_many(-hist.step * np.arange(W, -1, -1))
    return float(_total_mass_many(sys, p.theta, X, W, hist.step, np.array([W]))[0])


def _mass_span(sys, h: float) -> int:
    """Steps of stored history behind a time that its total mass reads."""
    return _nodes(max(sys.max_pipe_lag, sys.dspec.support, h), h)


# Log rows per pass of `_total_mass_many`; bounds its windows of stored rows.
_MASS_CHUNK = 64


def _total_mass_many(
    sys, theta0: np.ndarray, X: np.ndarray, Jh: int, h: float, rows: np.ndarray
) -> np.ndarray:
    """Total mass at each of `rows` of a stored trajectory, in a few passes.

    X[j] holds z at time (j - Jh) h on the orbit from phase theta0. The mass
    at row k is the sum of the operator's components plus, per lagged pipe,
    the trapezoid of its in-transit rate over the lag, all read from the
    window X[k - W : k + 1], W = `_mass_span`, through that window's clipped
    cubic stencils. The rate at a stored row takes its phase from theta0.
    """
    spec = sys.dspec
    W = _mass_span(sys, h)
    pos_D = -spec.offsets / h
    pipes = []  # (donor, transport, [(r, w, Q, remainder or None)]) in summation order
    for donor in range(sys.m):
        for dest in range(sys.m):
            tr = sys.transports[dest][donor]
            if tr.is_zero():
                continue
            parts = []
            for r, w in sys.pipes[dest][donor].atoms:
                if r <= _SNAP:
                    continue
                Q = int(np.floor(r / h + _SNAP))
                rem = r - Q * h
                parts.append((r, w, Q, rem if rem > _SNAP * max(1.0, r) else None))
            if parts:
                pipes.append((donor, tr, parts))
    out = np.empty(rows.size)
    for c in range(0, rows.size, _MASS_CHUNK):
        rk = rows[c : c + _MASS_CHUNK]
        t = (rk - Jh) * h
        th = _rotate(sys.flow, theta0, t)
        total = np.sum(spec.apply(th, _read_back(X, rk, pos_D, W + 1)), axis=1)
        lo = rk[0] - W  # the oldest stored row the chunk reads
        if pipes:
            ts = (np.arange(lo, rk[-1] + 1) - Jh) * h
            th_s = _rotate(sys.flow, theta0, ts)
        for donor, tr, parts in pipes:
            rate = tr.eval_at(th_s, X[lo : rk[-1] + 1, donor])
            for r, w, Q, rem in parts:
                win = sliding_window_view(rate, Q + 1)[rk - Q - lo]
                part = np.trapezoid(win, dx=h, axis=-1) if Q >= 1 else np.zeros(rk.size)
                if rem is not None:
                    th_r = _rotate(sys.flow, th, -r)
                    x_r = _read_back(X, rk, np.array([r / h]), W + 1)[:, 0, donor]
                    f_r = tr.eval_at(th_r, x_r)
                    part += 0.5 * rem * (f_r + win[:, 0])
                total += w * part
        out[c : c + rk.size] = total
    return out


def mass_balance_residual(sys, log) -> np.ndarray:
    """Deviation of the logged mass from the integrated net exchange.

    r(t) = M(t) - M(0) - integral_0^t sum_i (I_i - g_0i(., z_i)); the
    integral uses the trapezoid rule on the log times. Closed systems
    should show r identically zero up to integrator and quadrature error.
    """
    thetas = advance_many(sys.flow, log.p0, log.t)
    net = np.zeros(log.t.size)
    for i in range(sys.m):
        net += eval_trig_many(sys.inflows[i], thetas)
        if not sys.outflows[i].is_zero():
            net -= sys.outflows[i].eval_at(thetas, log.z[:, i])
    dt = np.diff(log.t)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (net[1:] + net[:-1]))])
    return log.M - log.M[0] - integral


# --- condition checking ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubMargin:
    name: str
    min_margin: float
    witness: TorusPoint
    strict_everywhere: bool


@dataclass(frozen=True, eq=False)
class ComponentVerdict:
    index: int
    skipped: bool
    prescribed_a: Optional[float]
    subs: tuple
    passed: bool
    note: str = ""
    n0_max: Optional[int] = None
    tail_certified: Optional[bool] = None


@dataclass(frozen=True, eq=False)
class ConditionReport:
    condition: str
    a: np.ndarray
    components: tuple
    passed: bool
    notes: tuple


class _Precomp:
    """Phase-sampled ingredients shared across components and trial rates,
    at one plan block in `_scan` or at the caller's phases. For G8 and G9
    (`cond`) it checks sum_i c_i < 1 at the phases."""

    def __init__(self, sys: NeutralDiagSystem, thetas: np.ndarray, cond: str = ""):
        self.sys = sys
        self.thetas = thetas
        self.c = np.stack([eval_trig_many(ci, thetas) for ci in sys.c], axis=1)
        if cond in ("G8", "G9") and np.any(self.c.sum(axis=1) >= 1.0 - _EQ_TOL):
            raise StructuralPreconditionError(f"{cond} needs sum_i c_i < 1 at every sampled phase")
        self.L_plus = _l_plus(sys, thetas)
        self._gamma = None

    def _shifted(self, poly: TrigPoly, shift: float) -> np.ndarray:
        """poly at the phases shifted back by `shift`."""
        return eval_trig_many(poly, _rotate(self.sys.flow, self.thetas, -shift))

    def l_minus_shifted(self, i: int) -> np.ndarray:
        """l_minus_ii evaluated at phases shifted back by rho_ii."""
        tr = self.sys.transports[i][i]
        return self._shifted(tr.gain, self.sys.rho[i][i]) * tr.shape.deriv_bounds()[0]

    def c_shifted(self, i: int, shift: float) -> np.ndarray:
        """c_i at the phases shifted back by `shift`."""
        return self._shifted(self.sys.c[i], shift)

    def gamma(self) -> np.ndarray:
        if self._gamma is None:
            rates = [derivative_along_flow_many(c, self.sys.flow, self.thetas) for c in self.sys.c]
            self._gamma = np.stack(rates, axis=1)
        return self._gamma

    def g4_terms(self, i: int, n_check: int) -> tuple:
        """Rate-free parts of the G4 sequences for component i.

        Returns (-L_plus_i C^n for n = 1..n_check, C^{n-1} at phases shifted
        by rho_ii for n = 1..n_check), both (n_check, n), C^n the backward
        product of c_i over n steps of alpha_i. The two share their shifted
        rows of c_i, dropped once both are built.
        """
        alpha_i, rows = self.sys.alpha[i], {}

        def products(base):  # C^0 = 1, ..., C^n_check back from base
            prods = np.ones((n_check + 1, self.thetas.shape[0]))
            for k, shift in enumerate((base + alpha_i * np.arange(n_check)).tolist()):
                if shift not in rows:
                    rows[shift] = self.c_shifted(i, shift)
                np.multiply(prods[k], rows[shift], out=prods[k + 1])
            return prods

        C, C_sh = products(0.0), products(self.sys.rho[i][i])
        return -self.L_plus[:, i] * C[1:], C_sh[:-1]


def _l_plus(sys: NeutralDiagSystem, thetas: np.ndarray) -> np.ndarray:
    """L_plus at each phase, (n, m): column i sums the upper Lipschitz
    bounds l_plus[j][i] of the gains, checked >= 0 at build."""
    m = sys.m
    lp = np.zeros((thetas.shape[0], m, m))
    for i in range(m):
        for j in range(m):
            tr = sys.transports[i][j]
            lp[:, i, j] = eval_trig_many(tr.gain, thetas) * tr.shape.deriv_bounds()[1]
    return lp.sum(axis=1)


def _canonical_a(sys: NeutralDiagSystem) -> np.ndarray:
    """The rate -sup L_plus_i - 1 per component, over the plan."""
    sup = np.max([np.max(_l_plus(sys, th), axis=0) for th in plan_blocks(sys.flow)], axis=0)
    return -sup - 1.0


def _nmin(x):
    return np.minimum(x, 0.0)


def _prepare(sys: NeutralDiagSystem, cond: str, n_check) -> tuple:
    """Validate one condition's inputs. Returns (the components whose c_i
    is not identically zero, n_check as an int)."""
    if cond not in CONDITIONS:
        raise ValueError(f"unknown condition {cond!r}")
    if not _is_whole(n_check) or n_check < 0:
        raise ValueError(f"n_check must be a whole number >= 0, got {n_check!r}")
    active = [i for i in range(sys.m) if not sys.c[i].is_zero()]
    for i in active:
        rho_ii, alpha_i = sys.rho[i][i], sys.alpha[i]
        if cond == "G3" and abs(rho_ii - 2.0 * alpha_i) > _EQ_TOL:
            raise StructuralPreconditionError(f"G3 needs rho_ii = 2 alpha_i for component {i}")
        if cond == "G5" and abs(rho_ii - alpha_i) > _EQ_TOL:
            raise StructuralPreconditionError(f"G5 needs rho_ii = alpha_i for component {i}")
        if cond in ("G4", "G9") and rho_ii > alpha_i + _EQ_TOL:
            raise StructuralPreconditionError(f"{cond} needs rho_ii <= alpha_i for component {i}")
    return active, int(n_check)


def _check_rates(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    if np.any(a > 0):
        raise ValueError(f"{what} must be <= 0")


def _exp_rates(rates: np.ndarray, scale: float) -> np.ndarray:
    """exp(a * scale) for each rate a, as a (T, 1) column.

    math.exp, one rate at a time: np.exp can round differently in the last
    place, and the checkers' outputs are pinned to math.exp's values.
    """
    return np.array([math.exp(a * scale) for a in rates])[:, None]


def _g4_block(neg_LC, C_sh, L, lm, a, fac, ea, n_check: int) -> tuple:
    """G4 margins, n0 and found mask, each (T, n), at the T rates `a` (T, 1).

    The depth n0 is feasible when q[0..n0-1] >= 0, q[n0] > 0 and p[n0+1..]
    >= 0, and the margin at the first feasible n0 is the least of those
    values. Pass 1 streams the p rows to find, per element, the first depth
    from which every later p is >= 0; pass 2 runs the q recurrence and keeps,
    past that depth, the first n0 with the prefix minimum, q[n0] and the
    running minimum of the later p rows.
    """
    flm = fac * lm
    shape = flm.shape
    p = np.empty(shape)

    def p_row(k):  # p[k + 1], written into the buffer p
        np.multiply(flm, C_sh[k], out=p)
        return np.add(neg_LC[k], p, out=p)

    start = np.zeros(shape, dtype=np.intp)  # 1 + the last row with p < 0
    for k in range(n_check):
        np.copyto(start, k + 1, where=p_row(k) < 0.0)
    q = -L - a
    q_min = np.full(shape, np.inf)  # min of q[0..nn-1]
    p_min = np.full(shape, np.inf)  # min of p[n0+1..nn] where found
    q_at = np.zeros(shape)
    q_pre = np.zeros(shape)
    n0 = np.full(shape, -1, dtype=np.intp)
    found = np.zeros(shape, dtype=bool)
    open_ = np.ones(shape, dtype=bool)  # not found yet, and q[0..nn-1] >= 0
    for nn in range(n_check + 1):
        if nn:
            np.minimum(p_min, p_row(nn - 1), out=p_min, where=found)
            np.minimum(q_min, q, out=q_min)
            open_ &= q_min >= 0.0
            q *= ea
            q += p
        new = open_ & (start <= nn) & (q > 0.0)
        np.copyto(n0, nn, where=new)
        np.copyto(q_at, q, where=new)
        np.copyto(q_pre, q_min, where=new)
        found |= new
        open_ &= ~new
        if not open_.any():
            break
    # every element is found or out of reach: the later p rows only lower p_min
    for k in range(nn, n_check):
        np.minimum(p_min, p_row(k), out=p_min)
    margins = np.where(found, np.minimum(np.minimum(q_at, p_min), q_pre), -np.inf)
    return margins, n0, found


def _tail_certified(sys: NeutralDiagSystem, i: int, rates: np.ndarray, neg_lc, lm) -> np.ndarray:
    """G4's tail certificate at each rate from the least -L_plus_i sup c_i
    and l_minus_ii over the phases: min(x + s) = min(x) + s exactly. It is
    sound for rho_ii = alpha_i or a constant c_i."""
    alpha_i, rho_ii = sys.alpha[i], sys.rho[i][i]
    sound = abs(rho_ii - alpha_i) <= _EQ_TOL or sys.c[i].is_constant()
    return sound & (neg_lc + _exp_rates(rates, alpha_i - rho_ii)[:, 0] * lm >= 0.0)


def _component_margins(
    pre: _Precomp, cond: str, i: int, rates: np.ndarray, n_check: int
) -> dict:
    """Margin arrays of one active component at each of `rates`, keyed by sub-inequality.

    Every array is (T, n) for the T rates; a rate-free one is a read-only
    broadcast. Key "_g4" maps to G4's margins, n0 and found mask, each
    (T, n), and the minima `_tail_certified` reads.
    """
    sys = pre.sys
    alpha_i, rho_ii = sys.alpha[i], sys.rho[i][i]
    L = pre.L_plus[:, i]
    ci = pre.c[:, i]
    a = rates[:, None]
    shape = (rates.size, L.size)
    if cond == "G3":
        c2 = ci * pre.c_shifted(i, alpha_i)
        return {
            "G3.1": (-a - L) * _exp_rates(rates, alpha_i) - L * ci,
            "G3.2": np.broadcast_to(pre.l_minus_shifted(i) - L * c2, shape),
        }
    if cond == "G5":
        return {"G5": np.broadcast_to(pre.l_minus_shifted(i) - L * ci, shape)}
    if cond == "G8":
        gam = pre.gamma()[:, i]
        return {"G8": -L - a + _nmin(a * ci + gam) * _exp_rates(rates, -alpha_i)}
    if cond == "G9":
        gam = pre.gamma()[:, i]
        return {
            "G9.1": -a - L,
            "G9.2": (
                _exp_rates(rates, rho_ii) * (-a - L)
                + pre.l_minus_shifted(i)
                + _exp_rates(rates, rho_ii - alpha_i) * _nmin(a * ci + gam)
            ),
        }
    lm = pre.l_minus_shifted(i)
    neg_LC, C_sh = pre.g4_terms(i, n_check)
    fac, ea = _exp_rates(rates, alpha_i - rho_ii), _exp_rates(rates, alpha_i)
    margins, n0, found = _g4_block(neg_LC, C_sh, L, lm, a, fac, ea, n_check)
    return {"_g4": (margins, n0, found, np.min(-L * sys.c_sup[i]), np.min(lm))}


def _rate_vector(sys: NeutralDiagSystem, a) -> np.ndarray:
    """a as one finite rate a_i <= 0 per component."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape != (sys.m,):
        raise DimensionMismatchError("need one rate a_i per component")
    _check_rates(a, "rates a_i")
    return a


def condition_margins(sys: NeutralDiagSystem, cond: str, a, thetas: np.ndarray, n_check=50):
    """Per-sampled-phase margin arrays, keyed by sub-inequality name.

    Returns a dict: component index -> dict of name -> (n,) array, with key
    "_g4" mapping to (margins, n0, found, tail_certified) for that variant.
    Components with identically zero c_i are omitted (their conditions are
    vacuous; the canonical rate for them is -sup L_plus - 1).
    """
    a = _rate_vector(sys, a)
    active, n_check = _prepare(sys, cond, n_check)
    pre = _Precomp(sys, thetas, cond)
    out = {}
    for i in active:
        entry = _component_margins(pre, cond, i, a[i : i + 1], n_check)
        if "_g4" in entry:
            marg, n0, found, neg_lc, lm = entry["_g4"]
            certified = bool(_tail_certified(sys, i, a[i : i + 1], neg_lc, lm)[0])
            entry = {"_g4": (marg[0], n0[0], found[0], certified)}
        out[i] = {name: v if name == "_g4" else v[0].copy() for name, v in entry.items()}
    return out


def _least(run, blk) -> tuple:
    """Fold a block's (least margins (T,), phases (T, d)) into the running
    pair by np.argmin per rate: a tie keeps the earlier phase, a NaN wins."""
    if run is None:
        return blk
    take = np.argmin([run[0], blk[0]], axis=0) == 1
    return np.where(take, blk[0], run[0]), np.where(take[:, None], blk[1], run[1])


def _scan(sys: NeutralDiagSystem, cond: str, cands: dict, n_check: int) -> tuple:
    """Each active component's margins at its (T,) rates `cands[i]`, folded
    over the plan one block at a time. Returns (least, g4) keyed by
    component: least[i] maps each sub-inequality to its least margin per
    rate and the first phase attaining it, ((T,), (T, d)); g4[i] holds
    G4's deepest n0, whether every phase found one, and the certificate.
    """
    least, g4 = {i: {} for i in cands}, {}
    folds = (np.maximum, np.logical_and, np.minimum, np.minimum)  # G4's, across blocks
    for thetas in plan_blocks(sys.flow):
        pre = _Precomp(sys, thetas, cond)
        for i, rates in cands.items():
            entry = _component_margins(pre, cond, i, rates, n_check)
            if cond == "G4":
                marg, n0, found, neg_lc, lm = entry.pop("_g4")
                entry["G4"] = marg
                blk = np.max(n0, axis=1), np.all(found, axis=1), neg_lc, lm
                g4[i] = tuple(f(x, y) for f, x, y in zip(folds, g4[i], blk)) if i in g4 else blk
            for name, arr in entry.items():
                idx = np.argmin(arr, axis=1)
                blk = arr[np.arange(idx.size), idx], thetas[idx]
                least[i][name] = _least(least[i].get(name), blk)
    for i, (deep, every, neg_lc, lm) in g4.items():
        g4[i] = deep, every, _tail_certified(sys, i, cands[i], neg_lc, lm)
    return least, g4


# A margin above this clears its inequality strictly at every sampled phase.
_STRICT_TOL = 1e-9


def _report(sys, cond: str, a: np.ndarray, canon: np.ndarray, n_check: int, scan, rows: dict):
    """The verdict of `cond` at rates `a`, reading row rows[i] of each
    active component's `_scan` folds; a skipped component gets canon[i]."""
    least, g4 = scan
    pairs = [(i, j) for i in range(sys.m) for j in range(sys.m) if i != j]
    offdiag = [(i, j) for i, j in pairs if not sys.transports[i][j].is_zero() and sys.rho[i][j] > 0]
    head = "off-diagonal transit lags are not constrained by these conditions"
    notes = (f"{head} (present for pairs {offdiag})",) if offdiag else ()
    components = []
    for i in range(sys.m):
        if i not in least:
            note = "coefficient identically zero: condition vacuous"
            components.append(ComponentVerdict(i, True, float(canon[i]), (), True, note))
            continue
        k, subs = rows[i], []
        for name, (margins, phases) in least[i].items():  # G4's is -inf where no depth is
            mn = float(margins[k])
            subs.append(SubMargin(name, mn, TorusPoint(phases[k]), bool(mn > _STRICT_TOL)))
        worst = min(sub.min_margin for sub in subs)
        if cond == "G8":
            ok = worst > 0.0
        elif cond in ("G4", "G5"):
            ok = worst >= 0.0
        else:  # G3, G9: all hold, at least one strict everywhere
            ok = worst >= 0.0 and any(sub.strict_everywhere for sub in subs)
        tail = {}
        if i in g4:
            deep, every, certified = (v[k] for v in g4[i])
            tail = dict(
                note="" if certified else f"tail verified to depth {n_check} only",
                n0_max=int(deep) if every else None,
                tail_certified=bool(certified),
            )
        components.append(ComponentVerdict(i, False, None, tuple(subs), ok, **tail))
    passed = all(comp.passed for comp in components)
    return ConditionReport(cond, a, tuple(components), passed, notes)


def check_condition(sys: NeutralDiagSystem, cond: str, a, n_check: int = 50) -> ConditionReport:
    """Evaluate one sufficient monotonicity condition over the flow's sampled phases.

    Reports the minimum margin per component and sub-inequality with the
    worst phase as witness. Components with c_i identically zero are
    skipped as vacuous, with the canonical rate -sup L_plus_i - 1 attached.
    Strictness is flagged when a margin clears _STRICT_TOL everywhere.
    It is `_scan` at one rate per component.
    """
    a = _rate_vector(sys, a)
    active, n_check = _prepare(sys, cond, n_check)
    scan = _scan(sys, cond, {i: a[i : i + 1] for i in active}, n_check)
    return _report(sys, cond, a, _canonical_a(sys), n_check, scan, dict.fromkeys(active, 0))


@dataclass(frozen=True, eq=False)
class SuggestAReport:
    a: np.ndarray
    trials: np.ndarray
    margins: np.ndarray  # (n_trials, m); NaN for skipped components
    prescribed: tuple  # indices that received the canonical rate directly
    report: ConditionReport  # the condition checked at the rates `a`


def suggest_a(sys: NeutralDiagSystem, cond: str, trial_a=None, n_check: int = 50) -> SuggestAReport:
    """Scan candidate rates a_i <= 0 and keep the best worst-case margin.

    The canonical rate -sup L_plus_i - 1 is always added to the scan. Ties
    within _EQ_TOL resolve toward zero. Components with c_i identically zero
    receive the canonical rate directly. One `_scan` evaluates every
    component at all its trial rates a plan block at a time, and the report
    at the chosen rates reads its rows, which are bit for bit what
    `check_condition` computes at those rates.
    """
    if trial_a is None:
        trial_a = np.linspace(-8.0, 0.0, 33)
    trial_a = np.atleast_1d(np.asarray(trial_a, dtype=float))
    if trial_a.size == 0:
        raise ValueError("trial grid must be nonempty")
    _check_rates(trial_a, "trial rates")
    active, n_check = _prepare(sys, cond, n_check)
    canon = _canonical_a(sys)
    best = canon.copy()  # the canonical rate stays for the skipped components
    # np.unique's sort and drop of adjacent repeats, without the numpy.ma it imports
    trials_per_comp = [np.sort(np.append(trial_a, c)) for c in canon]
    trials_per_comp = [t[np.append(True, t[1:] != t[:-1])] for t in trials_per_comp]
    surface = np.full((max(c.size for c in trials_per_comp), sys.m), np.nan)
    cands = {i: trials_per_comp[i] for i in active}
    scan = _scan(sys, cond, cands, n_check)
    rows = {}
    for i, cand in cands.items():
        vals = np.min([margins for margins, _ in scan[0][i].values()], axis=0)
        surface[: cand.size, i] = vals
        rows[i] = np.nonzero(vals >= np.max(vals) - _EQ_TOL)[0][-1]  # ties toward zero
        best[i] = float(cand[rows[i]])
    return SuggestAReport(
        a=best,
        trials=trial_a,
        margins=surface,
        prescribed=tuple(i for i in range(sys.m) if i not in active),
        report=_report(sys, cond, best, canon, n_check, scan, rows),
    )
