"""Fixed-step integration of the transformed delay equation.

The integrated variable is zhat(t) = D(w . t, z_t), which solves the delay
equation zhat' = G(w . t, zhat_t), so the neutral term is never
differentiated. The physical state z is stored next to zhat and rebuilt by
the method of steps: every delay D reads is at least one step h, so

    z(t) = B(w . t)^-1 [zhat(t) + sum_k W_k(w . t) z(t - s_k) + density part]

is explicit in stored values of z, read by cubic interpolation (order 2
to 4 with the smoothness of the data) from a store that starts at the
given history, as far back as the run reads (`_history_rows`).

Stage 0 sits at time 0, stage 2n + 1 at n h + h/2 and stage 2n + 2 at
n h + h. They run on the inverse's method of steps, `StepPlan`: a plan
block is its plan over the stages of _PLAN_STEPS steps, a read window its
window over those reading only stored rows. Both match each stage from
scratch bit for bit. A B singular at a stage phase raises SingularBError
there.

A stage's own work, rebuilding z and summing the balance law, runs on
Python floats in the order of the array expressions it replaced: z is one
product per component when B is diagonal, rounding as NumPy does, and
else sums each row of B^-1 left to right, not in BLAS's order.

The log is read off the stored X and Z after the run (`_total_mass_many`,
and minima of the decay slack `ordering` defines for pairs), each value as
computed at its log point while stepping, bit for bit, except that the
mass reads a lagged phase-dependent gain at a phase taken from the start
directly, which may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base_flow import TorusFlow, TorusPoint, _is_whole, _rotate
from .compartment import _mass_span, _total_mass_many
from .d_operator import StepPlan, eval_Dhat_segment
from .errors import (
    DivergenceError,
    HorizonError,
    NoReturnTimesError,
    StructuralPreconditionError,
    UnorderedPairError,
)
from .history import _EQ_TOL, _SNAP, HistoryGrid, _nodes, cubic_rows, cubic_stencil, resample
from .history import write_csv
from .ordering import ConeSpec, _decay_slack, _end_margin, _window, matrix_exp


@dataclass(eq=False)
class SimConfig:
    """Integration plan. n_trunc, when given, stores that many delay spans of
    history beyond what the run reads."""

    h: float
    t_end: float
    n_trunc: Optional[int] = None
    log_stride: int = 1
    cone: Optional[ConeSpec] = None
    tol_cone: float = 1e-9
    divergence_limit: float = 1e9

    def __post_init__(self):
        if not (0 < self.h < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("h and t_end must be positive and finite")
        if self.n_trunc is not None and not (_is_whole(self.n_trunc) and self.n_trunc >= 0):
            raise ValueError(f"n_trunc must be a whole number >= 0, got {self.n_trunc!r}")
        if not (_is_whole(self.log_stride) and self.log_stride >= 1):
            raise ValueError(f"log_stride must be a whole number >= 1, got {self.log_stride!r}")
        self.log_stride = int(self.log_stride)
        self.n_trunc = None if self.n_trunc is None else int(self.n_trunc)
        if not self.tol_cone >= 0:
            raise ValueError("tol_cone must be >= 0")
        if not self.divergence_limit > 0:
            raise ValueError("divergence_limit must be positive")
        if abs(self.nsteps * self.h - self.t_end) > 1e-6 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer number of steps")

    @property
    def nsteps(self) -> int:
        return int(round(self.t_end / self.h))


class _Delays:
    """The delays the method of steps reads from the stored z.

    `lags` holds each distinct delay of the operator (`nu.delays`) and
    positive pipe lag once; `nu` and `pipe` index into it.
    """

    def __init__(self, sys, h: float):
        nu = sys.dspec.nu.delays.tolist()
        pipe = list(sys._terms.lags[1:])
        lags = sorted(set(nu + pipe))
        if lags and lags[0] < h - _SNAP:
            raise StructuralPreconditionError(
                f"delay {lags[0]:.6g} is shorter than the step h={h:.6g}: every atom "
                "lag, nonzero pipe lag and density midpoint must be at least h"
            )
        row = {r: n for n, r in enumerate(lags)}
        self.lags = np.array(lags)
        self.nu = [row[r] for r in nu]
        self.pipe = [row[r] for r in pipe]


# Steps per block of the stage plan: the phase-only data of a block's
# 2 * _PLAN_STEPS stages are built together when the first of them is needed.
_PLAN_STEPS = 64


class _Stage:
    """A stage time's data as lists of floats: B^-1, its diagonal when
    `SimState.diagonal_B` and else all of it row by row, the delayed part
    of D `rest`, the balance law's coefficients `c` and z at the pipe lags
    `zr`."""

    __slots__ = ("Binv", "rest", "c", "zr")

    def __init__(self, Binv, rest, c, zr):
        self.Binv = Binv
        self.rest = rest
        self.c = c
        self.zr = zr

    def z(self, zhat: list) -> list:
        """Physical state from the transformed one: z_i sums B^-1_ij
        (zhat_j + rest_j) over j left to right, which rounds as NumPy's
        product for a diagonal B^-1 but not as BLAS sums a full row."""
        b = self.Binv
        m = len(zhat)
        if len(b) == m:  # the diagonal
            return [d * (a + r) for d, a, r in zip(b, zhat, self.rest)]
        v = [a + r for a, r in zip(zhat, self.rest)]
        z = []
        for i in range(0, m * m, m):
            acc = b[i] * v[0]
            for j in range(1, m):
                acc += b[i + j] * v[j]
            z.append(acc)
        return z


class _PlanBlock(StepPlan):
    """The plan of the stages of _PLAN_STEPS steps, or of the steps the run
    has left, if fewer: row r holds stage lo + r, its phase, B^-1 as _Stage
    keeps it and the balance law's coefficient row."""

    __slots__ = ("lo", "hi", "theta", "Binv", "c")

    def __init__(self, state: SimState, b: int):
        h = state.h
        self.lo = 0 if b == 0 else 2 * b * _PLAN_STEPS + 1
        self.hi = min(2 * (b + 1) * _PLAN_STEPS, 2 * state.cfg.nsteps) + 1
        j = np.arange(self.lo, self.hi)
        n = np.maximum(j - 1, 0) // 2  # the step each stage belongs to
        # the same float expressions as the step times: t + 0.5 h and t + h
        t = n * h + np.where(j % 2 == 1, 0.5 * h, h)
        t[j == 0] = 0 * h
        theta = _rotate(state.flow, state.p0.theta, t)
        self.theta = theta
        pos = (t[:, None] - state.delays.lags[None, :]) / h + state.Jh
        # a stage of step n reads K = Jh + n + 1 stored rows
        idx, w = cubic_stencil((state.Jh + n + 1)[:, None], pos)
        super().__init__(state.general.dspec, theta, idx, w, cols=state.delays.nu)
        A = self.Ainv
        self.Binv = np.diagonal(A, 0, 1, 2).copy() if state.diagonal_B else A.reshape(j.size, -1)
        self.c = state.general._terms.coeffs(theta)


class _ReadWindow:
    """The read window from a stage to the last of its block reading only
    stored rows: row s holds stage lo + s, the delayed part of D (`rest`)
    and z at each pipe lag (`zr`), as the stage on its own."""

    __slots__ = ("lo", "hi", "rest", "zr")

    def __init__(self, state: SimState, blk: _PlanBlock, j: int):
        r = j - blk.lo
        end = blk.end(state.k + 1)
        if end <= r:
            raise HorizonError(f"stage {j} reads z beyond the stored row {state.k}")
        self.lo = j
        self.hi = blk.lo + end
        self.rest = np.zeros((end - r, state.m))
        self.zr = blk.read(state.X, r, end, self.rest)[:, state.delays.pipe]


class SimState:
    """Single-owner integration state: the trajectory so far.

    `general` is the system integrated. Z[k] holds zhat and X[k] the
    physical state z at time (k - Jh) * h; index Jh is time zero and `k`
    points at the current step. The buffers hold the run's rows and no
    more: Jh + cfg.nsteps + 1.
    """

    def __init__(self, sys, p0, cfg, Jh, Z, X, k, delays):
        self.general = sys
        self.p0 = p0
        self.cfg = cfg
        self.h = cfg.h
        self.Jh = Jh
        self.Z = Z
        self.X = X
        self.k = k
        self.flow = sys.flow
        self.m = sys.m
        self.delays = delays
        B = sys.dspec.B
        self.diagonal_B = all(
            i == j or p.is_zero() for i, row in enumerate(B) for j, p in enumerate(row)
        )
        self._ahead = None  # stage data, zhat and z at the current time, from the last step
        self._block = None  # the stage plan's current block
        self._window = None  # the read window of the current stages

    @property
    def t(self) -> float:
        return (self.k - self.Jh) * self.h

    def stage(self, j: int) -> _Stage:
        """Data of stage j (see the module docstring); the plan supplies
        everything that depends on the phase only, and the read window the
        delayed z, all of it already stored."""
        blk = self._block
        if blk is None or not blk.lo <= j < blk.hi:
            if j > 2 * self.cfg.nsteps:
                raise HorizonError(f"no step goes past the run's end, t_end = {self.cfg.t_end:.6g}")
            blk = self._block = _PlanBlock(self, max(0, (j - 1) // (2 * _PLAN_STEPS)))
        win = self._window
        if win is None or not win.lo <= j < win.hi:
            win = self._window = _ReadWindow(self, blk, j)
        r = j - blk.lo
        s = j - win.lo
        # per stage: lists of a whole block hold several times its memory
        return _Stage(
            blk.Binv[r].tolist(),
            win.rest[s].tolist(),
            blk.c[r].tolist(),
            win.zr[s].tolist(),
        )


def _history_rows(sys, cfg: SimConfig) -> int:
    """Stored history length in steps: the longest delay that the method of
    steps or the mass window reads, plus the two rows a cubic stencil
    reaches past it, and n_trunc extra delay spans when given."""
    S = sys.dspec.support
    return _nodes(max(sys.max_pipe_lag, S) + (cfg.n_trunc or 0) * S, cfg.h) + 2


def required_z_horizon(sys, cfg: SimConfig) -> float:
    """History length needed to initialize a run from physical data."""
    return _history_rows(sys, cfg) * cfg.h + sys.dspec.support


def _lift(sys, p0: TorusPoint, z_hist: HistoryGrid, cfg: SimConfig, depth: int):
    """z_hist on the step h, and its transform at the nodes 0 .. depth back."""
    need = depth * cfg.h + sys.dspec.support
    if z_hist.horizon + _SNAP < need:
        raise HorizonError(f"initial history covers {z_hist.horizon:.6g}, need {need:.6g}")
    if abs(z_hist.step - cfg.h) > _EQ_TOL:
        z_hist = resample(z_hist, cfg.h, z_hist.horizon)
    return z_hist, eval_Dhat_segment(sys.dspec, p0, z_hist, depth)


def _start(sys, p0: TorusPoint, cfg: SimConfig, delays: _Delays, z_hist, zhat) -> SimState:
    """Trajectory buffers of the whole run, at time zero from a lifted
    initial history: the newest Jh + 1 nodes of z_hist, on the step h, and
    of its transform zhat."""
    Jh = _history_rows(sys, cfg)
    rows = Jh + cfg.nsteps + 1
    Z = np.empty((rows, sys.m))
    Z[: Jh + 1] = zhat.samples[Jh::-1]
    X = np.empty((rows, sys.m))
    X[: Jh + 1] = z_hist.samples[Jh::-1]
    return SimState(sys, p0, cfg, Jh, Z, X, Jh, delays)


def init_from_z(sys, p0: TorusPoint, z_hist: HistoryGrid, cfg: SimConfig) -> SimState:
    """Transform initial physical data and set up the trajectory buffers.

    Raises StructuralPreconditionError when a delay the method of steps
    reads is shorter than one step.
    """
    delays = _Delays(sys, cfg.h)
    lifted = _lift(sys, p0, z_hist, cfg, _history_rows(sys, cfg))
    return _start(sys, p0, cfg, delays, *lifted)


def reconstruct_z(state: SimState, s: float) -> np.ndarray:
    """Physical state at time s, read from the stored z."""
    pos = s / state.h + state.Jh
    if not -_SNAP <= pos <= state.k + _SNAP:
        raise HorizonError("requested time outside the stored trajectory")
    return cubic_rows(state.X[: state.k + 1], np.clip([pos], 0.0, state.k))[0]


def step(state: SimState) -> SimState:
    """Advance one classical Runge-Kutta step; mutates and returns the state.

    The two middle stages share their stage data; the data at the new time
    serve the last stage, the stored z there, and the next step's first
    stage, which also takes zhat and z there from this step.
    """
    h = state.h
    t = state.t
    k = state.k
    n = k - state.Jh
    balance = state.general._terms.balance
    now, v0, z0 = state._ahead or (state.stage(2 * n), state.Z[k].tolist(), state.X[k].tolist())
    k1 = balance(now.c, [z0, *now.zr])
    mid = state.stage(2 * n + 1)
    hh = 0.5 * h
    k2 = balance(mid.c, [mid.z([a + hh * f for a, f in zip(v0, k1)]), *mid.zr])
    k3 = balance(mid.c, [mid.z([a + hh * f for a, f in zip(v0, k2)]), *mid.zr])
    end = state.stage(2 * n + 2)
    k4 = balance(end.c, [end.z([a + h * f for a, f in zip(v0, k3)]), *end.zr])
    h6 = h / 6.0
    vn = [
        a + h6 * (((f1 + 2.0 * f2) + 2.0 * f3) + f4)
        for a, f1, f2, f3, f4 in zip(v0, k1, k2, k3, k4)
    ]
    top = 0.0
    for a in map(abs, vn):
        if not a <= top:  # larger, or NaN, which wins as in NumPy's max
            top = a
            if a != a:
                break
    if not math.isfinite(top) or top > state.cfg.divergence_limit:
        raise DivergenceError(t + h, top)
    z = end.z(vn)
    state.Z[k + 1] = vn
    state.X[k + 1] = z
    state.k = k + 1
    state._ahead = (end, vn, z)
    return state


@dataclass(eq=False)
class TrajectoryLog:
    """Logged run: times, physical and transformed states, total mass."""

    t: np.ndarray
    z: np.ndarray
    zhat: np.ndarray
    M: np.ndarray
    p0: TorusPoint
    flow: TorusFlow
    h: float
    final_state: Optional[SimState] = None


def _log_rows(Jh: int, cfg: SimConfig) -> np.ndarray:
    """Stored rows of the log points: every log_stride steps, and the last step."""
    n = np.arange(0, cfg.nsteps + 1, cfg.log_stride)
    if n[-1] != cfg.nsteps:
        n = np.append(n, cfg.nsteps)
    return Jh + n


def _check_stored(state: SimState, W: int) -> None:
    """Raise DivergenceError at the first row of X[Jh - W : k + 1], the rows
    the log reads, that is not finite or exceeds the divergence guard; the
    step guard watches zhat only."""
    lo = state.Jh - W
    top = np.max(np.abs(state.X[lo : state.k + 1]), axis=1)
    bad = ~(top <= state.cfg.divergence_limit)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DivergenceError((lo + j - state.Jh) * state.h, float(top[j]))


def _window_min(a: np.ndarray, width: int, ends: np.ndarray) -> np.ndarray:
    """min(a[max(0, e - width + 1) : e + 1]) for each e in ends.

    Running minima from either end of each block of `width` entries make
    any window of that width the min of one suffix and one prefix.
    """
    width = min(width, a.size)
    blocks = np.concatenate([a, np.full(-a.size % width, np.inf)]).reshape(-1, width)
    pre = np.minimum.accumulate(blocks, axis=1).ravel()
    suf = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    starts = ends - width + 1
    return np.where(starts <= 0, pre[ends], np.minimum(suf[np.maximum(starts, 0)], pre[ends]))


def _cone_margins(V: np.ndarray, cone: ConeSpec, expAh: np.ndarray, h: float, rows) -> np.ndarray:
    """Raw cone margin of the transformed gap V = Zy - Zx at each of rows.

    The margin at row k is the least entry of V[: k + 1] (the sign part) or,
    if lower, the least decay slack over the steps of the cone window
    ending at k.
    """
    rows = np.asarray(rows)
    sign = np.minimum.accumulate(np.min(V, axis=1))[rows]
    W = _window(V.shape[0], cone, h)
    if W == 0:
        return sign
    return np.minimum(sign, _window_min(np.min(_decay_slack(V, expAh), axis=1), W, rows))


def _run(state: SimState) -> TrajectoryLog:
    """Step a state at time zero to t_end, check the stored rows the log
    reads, and read the log off the stored buffers."""
    cfg = state.cfg
    for _ in range(cfg.nsteps):
        step(state)
    _check_stored(state, _mass_span(state.general, cfg.h))
    rows = _log_rows(state.Jh, cfg)
    return TrajectoryLog(
        t=(rows - state.Jh) * cfg.h,
        z=state.X[rows],
        zhat=state.Z[rows],
        M=_total_mass_many(state.general, state.p0.theta, state.X, state.Jh, cfg.h, rows),
        p0=state.p0,
        flow=state.flow,
        h=cfg.h,
        final_state=state,
    )


def run(sys, p0: TorusPoint, z_hist: HistoryGrid, cfg: SimConfig) -> TrajectoryLog:
    """Integrate to t_end, logging every log_stride steps (plus the endpoint).

    The log is read off the stored buffers once the run is done; the mass
    at every log point comes from one vectorised pass.
    """
    return _run(init_from_z(sys, p0, z_hist, cfg))


@dataclass(eq=False)
class PairLog:
    """Comparison run of an ordered pair of initial data."""

    t: np.ndarray
    z_x: np.ndarray
    z_y: np.ndarray
    zhat_x: np.ndarray
    zhat_y: np.ndarray
    d_gap: np.ndarray  # per-component transformed gap, the operator gap
    mass_x: np.ndarray
    mass_y: np.ndarray
    cone_margin: np.ndarray
    z_diff_sup: np.ndarray
    p0: TorusPoint
    flow: TorusFlow
    h: float


def run_ordered_pair(
    sys, p0: TorusPoint, z_x: HistoryGrid, z_y: HistoryGrid, cfg: SimConfig
) -> PairLog:
    """Integrate two initial data and monitor order quantities.

    Requires cfg.cone; the initial transformed pair must be ordered within
    cfg.tol_cone as far back as both data reach. That check's lift of each
    history starts its member, which runs as `run` would: x to the end,
    then y, so x's error is raised when both diverge. At each log point the
    transformed cone margin, the per-component operator gap, both masses,
    and the sup of the physical difference over the mass window are
    recorded, all read off the members' stored buffers.
    """
    if cfg.cone is None:
        raise ValueError("an ordered-pair run needs cfg.cone")
    cone = cfg.cone
    expAh = matrix_exp(cone.A, cfg.h)
    # the sign check reads the transformed histories as far back as both
    # reach, not only the stored rows (a shorter one fails in _lift)
    J = int(math.floor((min(z_x.horizon, z_y.horizon) - sys.dspec.support) / cfg.h + _SNAP))
    J = max(J, _history_rows(sys, cfg))
    lifts = [_lift(sys, p0, z, cfg, J) for z in (z_x, z_y)]
    (_, zhat_x), (_, zhat_y) = lifts
    v0 = zhat_y.samples[::-1] - zhat_x.samples[::-1]
    margin0, j, c, _ = _end_margin(v0, cone, expAh, cfg.h)
    if margin0 < -cfg.tol_cone:
        raise UnorderedPairError(((j - J) * cfg.h, c), margin0)
    delays = _Delays(sys, cfg.h)
    lx, ly = [_run(_start(sys, p0, cfg, delays, *lift)) for lift in lifts]
    sx, sy = lx.final_state, ly.final_state
    rows = _log_rows(sx.Jh, cfg)
    V = sy.Z[: sy.k + 1] - sx.Z[: sx.k + 1]
    dz = np.max(np.abs(sy.X[: sy.k + 1] - sx.X[: sx.k + 1]), axis=1)
    return PairLog(
        t=lx.t,
        z_x=lx.z,
        z_y=ly.z,
        zhat_x=lx.zhat,
        zhat_y=ly.zhat,
        d_gap=V[rows],
        mass_x=lx.M,
        mass_y=ly.M,
        cone_margin=_cone_margins(V, cone, expAh, cfg.h, rows),
        z_diff_sup=-_window_min(-dz, _mass_span(sys, cfg.h) + 1, rows),
        p0=p0,
        flow=sx.flow,
        h=cfg.h,
    )


@dataclass(frozen=True)
class CoveringReport:
    """Near-return discrepancies of the logged physical state.

    Each entry is (return time T, phase distance, discrepancy e) with
    e = sup over the base window of |z(t + T) - z(t)|. Evidence only: small
    e for small phase distance is consistent with the trajectory tracking
    a continuous copy of the driving torus, but nothing is proven.
    """

    return_tol: float
    window: float
    entries: tuple
    e_max: float
    e_min: float


# Shifts shorter than this are trivial returns, left out of the covering report.
_MIN_RETURN = 1.0


def covering_diagnostic(
    log: TrajectoryLog,
    flow: TorusFlow,
    p0: TorusPoint,
    return_tol: float,
    window: float,
    t_min: float = 0.0,
) -> CoveringReport:
    """Compare the state with itself across near-returns of the driving phase."""
    t = log.t
    if t.size < 3:
        raise NoReturnTimesError("log too short")
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > _SNAP * max(1.0, dt):
        raise NoReturnTimesError("covering diagnostic needs uniformly logged times")
    i0 = int(np.searchsorted(t, t_min - _SNAP))
    i1 = int(np.searchsorted(t, t_min + window + _SNAP)) - 1
    if i1 <= i0:
        raise NoReturnTimesError("analysis window does not fit in the log")
    base = log.z[i0 : i1 + 1]
    ks = np.arange(1, t.size - i1)
    T = ks * dt
    # the phase after T in [0, 1): np.mod rounds a tiny negative sum up to
    # 1.0, and a second reduction maps that to 0.0
    d = np.abs(np.mod(_rotate(flow, p0.theta, T), 1.0) - p0.theta)
    dist = np.max(np.minimum(d, 1.0 - d), axis=1)
    skip = (T < _MIN_RETURN - _SNAP) | (dist >= return_tol)  # trivial short returns, far phases
    entries = []
    for k, Tk, dk in zip(ks[~skip], T[~skip], dist[~skip]):
        e = float(np.max(np.abs(log.z[i0 + k : i1 + 1 + k] - base)))
        entries.append((float(Tk), float(dk), e))
    if len(entries) < 3:
        raise NoReturnTimesError(
            f"only {len(entries)} near-returns below {return_tol}; "
            "lengthen the run or loosen the tolerance"
        )
    es = [e for _, _, e in entries]
    return CoveringReport(
        return_tol=return_tol,
        window=window,
        entries=tuple(entries),
        e_max=float(max(es)),
        e_min=float(min(es)),
    )


def trajectory_to_csv(log: TrajectoryLog, path) -> None:
    """Columns: t, z1..zm, zhat1..zhatm, M."""
    m = log.z.shape[1]
    header = ["t"]
    for tag in ("z", "zhat"):
        header += [f"{tag}{i + 1}" for i in range(m)]
    write_csv(path, header + ["M"], np.column_stack([log.t, log.z, log.zhat, log.M]))


def pair_to_csv(log: PairLog, path) -> None:
    """Columns: t, zx, zy, zhatx, zhaty and dgap per component, then the scalar monitors."""
    m = log.z_x.shape[1]
    header = ["t"]
    for tag in ("zx", "zy", "zhatx", "zhaty", "dgap"):
        header += [f"{tag}{i + 1}" for i in range(m)]
    header += ["mass_x", "mass_y", "cone_margin", "z_diff_sup"]
    rows = np.column_stack(
        [log.t, log.z_x, log.z_y, log.zhat_x, log.zhat_y, log.d_gap]
        + [log.mass_x, log.mass_y, log.cone_margin, log.z_diff_sup]
    )
    write_csv(path, header, rows)
