"""Slow oracles for the package's fast paths.

`compartment._Precomp` evaluates the Lipschitz bounds and the backward
products of c_i at every phase of a block at once; the scalar functions here
compute the same quantities at one phase with plain loops. `stage_direct`
builds an integrator stage from scratch at one time, each coefficient by a
one-row evaluation at its own phase, where the integrator reads the stage
plan's rows; `step_direct` steps on such stages with NumPy arithmetic, a
matrix-vector product for z, where `step` works on Python floats over the
diagonal of B^-1 or all of it. `eval_F_direct` walks the transport grid
one coefficient at a time, where `eval_F` sums one row of the system's
coefficient table.
`comparison_upper_rows_direct` exponentiates the block matrix
afresh at every node with SciPy, where `make_comparison_upper` walks the
nodes by the semigroup from two NumPy exponentials. `total_mass_direct` sums
the operator through `eval_D` and walks the pipes one at a time over a
HistoryGrid, where `total_mass` is one row of `_total_mass_many`, the
stored-row pass the log reads. `run_direct` and `run_ordered_pair_direct`
log while they step, one point at a time through a HistoryGrid window and
`total_mass_direct`, where `run` and `run_ordered_pair` derive the log from
the stored buffers after the run.
`component_margins_direct` and `g4_component_direct` evaluate the condition
margins at one rate a_i, with the G4 sequences held as full
(n_check+1, n) arrays and reduced with prefix and suffix minima, where
`compartment._component_margins` evaluates a vector of rates at once and
streams G4 over the depth. `check_condition_direct` reduces
`condition_margins` over the whole plan at once, one argmin per
sub-inequality, where `check_condition` and `suggest_a` fold the margins a
plan block at a time.
`cubic_rows_direct` interpolates rows with its own Lagrange weights and an
on-node shortcut, where `history.cubic_rows` gathers the taps of
`cubic_stencil`; the oracles here read stored rows through it.
`invert_Dhat_neumann` inverts the lift by the truncated Neumann series, N
full passes over the working grid, where `invert_Dhat` solves the same
fixed point by the method of steps. `invert_Dhat_direct` is that method
with phases, inverse, stencils and blocks of rows of its own, where
`invert_Dhat` runs the method-of-steps kernel it shares with the
integrator's stages. `stability_margin_direct` takes the sampled sup over
the whole plan at once, where `stability_margin` reduces it a block of
phases at a time. `extract_atom_at_zero_direct` applies D to one probe
column at a time, where `extract_atom_at_zero` applies it to all m columns
in one batch. Tests compare each pair.
`advance`, `eval_trig`, `derivative_along_flow` and `sample_at` are the
one-point forms of `advance_many`, `eval_trig_many`,
`derivative_along_flow_many` and a history's `sample_many`, each one row of
it; `torus_distance` and `const_poly_matrix` are test helpers.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from nfde_lab import NeutralDiagSystem, TorusPoint, TrigPoly
from nfde_lab.base_flow import (
    advance_many,
    derivative_along_flow_many,
    eval_trig_many,
    sample_thetas,
)
from nfde_lab.compartment import (
    _STRICT_TOL,
    ComponentVerdict,
    ConditionReport,
    SubMargin,
    _nmin,
    condition_margins,
)
from nfde_lab.d_operator import (
    _STABILITY_GUARD,
    StabilityEstimate,
    _batch_inverse,
    eval_D,
    eval_poly_matrix_many,
)
from nfde_lab.errors import (
    DimensionMismatchError,
    DivergenceError,
    HorizonError,
    SingularBError,
    UnorderedPairError,
    UnstableMarginError,
)
from nfde_lab.history import (
    _EQ_TOL,
    _SNAP,
    HistoryGrid,
    _back_stencil,
    _nodes,
    gather,
    sup_norm,
)
from nfde_lab.integrator import PairLog, TrajectoryLog, _Stage, init_from_z, step
from nfde_lab.ordering import matrix_exp


def advance(flow, p: TorusPoint, t: float) -> TorusPoint:
    """The phase t along the orbit from p: one row of `advance_many`."""
    return TorusPoint(advance_many(flow, p, [t])[0])


def eval_trig(poly, x: TorusPoint) -> float:
    """poly at one phase: one row of `eval_trig_many`."""
    return float(eval_trig_many(poly, x.theta[None, :])[0])


def derivative_along_flow(poly, flow, x: TorusPoint) -> float:
    """d/dt of poly along the rotation at one phase: one row of
    `derivative_along_flow_many`."""
    return float(derivative_along_flow_many(poly, flow, x.theta[None, :])[0])


def torus_distance(a: TorusPoint, b: TorusPoint) -> float:
    """Max over components of the circle distance between phases."""
    if a.dim != b.dim:
        raise DimensionMismatchError("points live on tori of different dimension")
    d = np.abs(a.theta - b.theta)
    return float(np.max(np.minimum(d, 1.0 - d)))


def const_poly_matrix(values) -> list:
    """Matrix of constant polynomials from a numeric matrix."""
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    return [[TrigPoly.const(v) for v in row] for row in arr]


def sample_at(hist, s: float) -> np.ndarray:
    """hist at one offset s <= 0: one row of its `sample_many`."""
    return hist.sample_many([s])[0]


@dataclass(frozen=True)
class LipschitzBounds:
    """Derivative ranges of the transports at one phase.

    l_minus[i][j] and l_plus[i][j] bound d g_ij / dv; L_plus[i] sums the
    outgoing bounds l_plus[j][i] over destinations j.
    """

    l_minus: np.ndarray
    l_plus: np.ndarray
    L_plus: np.ndarray


def lipschitz_bounds(sys: NeutralDiagSystem, p: TorusPoint) -> LipschitzBounds:
    m = sys.m
    l_minus = np.zeros((m, m))
    l_plus = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            tr = sys.transports[i][j]
            gain = eval_trig(tr.gain, p)
            if gain < -1e-12:
                raise ValueError(f"negative transport gain at {p} for pair ({i},{j})")
            lo, hi = tr.shape.deriv_bounds()
            l_minus[i, j] = gain * lo
            l_plus[i, j] = gain * hi
    return LipschitzBounds(l_minus, l_plus, l_plus.sum(axis=0))


def c_product(sys: NeutralDiagSystem, p: TorusPoint, i: int, n: int) -> float:
    """Product of c_i along the backward orbit: prod_{j<n} c_i(w . (-j alpha_i))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prod = 1.0
    for j in range(n):
        prod *= eval_trig(sys.c[i], advance(sys.flow, p, -j * sys.alpha[i]))
    return prod


def pq_sequence(sys: NeutralDiagSystem, p: TorusPoint, i: int, a: float, N: int):
    """Coefficient sequences of the accumulated monotonicity inequality.

    q[0] = -L_plus_i(w) - a and, for n >= 1,

        p[n] = -L_plus_i(w) C_i^n(w)
               + exp(a (alpha_i - rho_ii)) l_minus_ii(w . (-rho_ii)) C_i^{n-1}(w . (-rho_ii))
        q[n] = q[n-1] exp(a alpha_i) + p[n],

    where C_i^n is the backward product of c_i. Returns (p[1..N], q[0..N]).
    """
    if a > 0:
        raise ValueError("a must be <= 0")
    if N < 0:
        raise ValueError("N must be >= 0")
    lb = lipschitz_bounds(sys, p)
    L = lb.L_plus[i]
    alpha_i = sys.alpha[i]
    rho_ii = sys.rho[i][i]
    p_shift = advance(sys.flow, p, -rho_ii)
    lm = lipschitz_bounds(sys, p_shift).l_minus[i, i]
    q = np.empty(N + 1)
    pv = np.empty(N)
    q[0] = -L - a
    fac = math.exp(a * (alpha_i - rho_ii))
    ea = math.exp(a * alpha_i)
    for n in range(1, N + 1):
        pn = -L * c_product(sys, p, i, n) + fac * lm * c_product(sys, p_shift, i, n - 1)
        pv[n - 1] = pn
        q[n] = q[n - 1] * ea + pn
    return pv, q


def g4_component_direct(pre, i: int, a_i: float, n_check: int):
    """G4 margins of component i at one rate from the whole depth table.

    Returns (margins (n,), n0 (n,), found mask, tail_certified).
    """
    sys = pre.sys
    alpha_i, rho_ii = sys.alpha[i], sys.rho[i][i]
    L = pre.L_plus[:, i]
    lm = pre.l_minus_shifted(i)
    fac = math.exp(a_i * (alpha_i - rho_ii))
    ea = math.exp(a_i * alpha_i)
    neg_LC, C_sh = pre.g4_terms(i, n_check)
    n_pts = L.shape[0]
    # row n-1 holds p[n]; row n of qvals holds q[n]
    pvals = neg_LC + (fac * lm) * C_sh
    qvals = np.empty((n_check + 1, n_pts))
    qvals[0] = -L - a_i
    for nn in range(1, n_check + 1):
        qvals[nn] = qvals[nn - 1] * ea + pvals[nn - 1]
    # prefix: all q[0..n-1] >= 0; suffix: all p[n+1..] >= 0
    q_pref_min = np.empty((n_check + 1, n_pts))
    q_pref_min[0] = np.inf
    np.minimum.accumulate(qvals[:-1], axis=0, out=q_pref_min[1:])
    p_suff_min = np.empty((n_check + 1, n_pts))
    p_suff_min[n_check] = np.inf
    p_suff_min[:-1] = np.minimum.accumulate(pvals[::-1], axis=0)[::-1]
    feasible = (q_pref_min >= 0.0) & (qvals > 0.0) & (p_suff_min >= 0.0)
    found = feasible.any(axis=0)
    n0 = np.where(found, np.argmax(feasible, axis=0), -1)
    cols = np.arange(n_pts)
    margins = np.where(
        found,
        np.minimum(
            np.minimum(qvals[n0, cols], p_suff_min[n0, cols]),
            np.where(n0 > 0, q_pref_min[n0, cols], np.inf),
        ),
        -np.inf,
    )
    cert_vals = -L * sys.c_sup[i] + fac * np.min(lm)
    sound = abs(rho_ii - alpha_i) <= _EQ_TOL or sys.c[i].is_constant()
    tail_certified = bool(sound and np.min(cert_vals) >= 0.0)
    return margins, n0, found, tail_certified


def component_margins_direct(pre, cond: str, i: int, a_i: float, n_check: int) -> dict:
    """Margin arrays (n,) of one active component at one rate, keyed by sub-inequality."""
    sys = pre.sys
    alpha_i, rho_ii = sys.alpha[i], sys.rho[i][i]
    L = pre.L_plus[:, i]
    ci = pre.c[:, i]
    if cond == "G3":
        c2 = ci * pre.c_shifted(i, alpha_i)
        return {
            "G3.1": (-a_i - L) * math.exp(a_i * alpha_i) - L * ci,
            "G3.2": pre.l_minus_shifted(i) - L * c2,
        }
    if cond == "G5":
        return {"G5": pre.l_minus_shifted(i) - L * ci}
    if cond == "G8":
        gam = pre.gamma()[:, i]
        return {"G8": -L - a_i + _nmin(a_i * ci + gam) * math.exp(-a_i * alpha_i)}
    if cond == "G9":
        gam = pre.gamma()[:, i]
        return {
            "G9.1": -a_i - L,
            "G9.2": (
                math.exp(a_i * rho_ii) * (-a_i - L)
                + pre.l_minus_shifted(i)
                + math.exp(a_i * (rho_ii - alpha_i)) * _nmin(a_i * ci + gam)
            ),
        }
    return {"_g4": g4_component_direct(pre, i, a_i, n_check)}


def check_condition_direct(sys, cond: str, a, n_check: int = 50) -> ConditionReport:
    """`check_condition` over the whole plan at once: `condition_margins` at
    every phase of `sample_thetas`, one argmin per sub-inequality, n0_max
    and the tail certificate read off the per-phase arrays."""
    thetas = sample_thetas(sys.flow)
    a = np.asarray(a, dtype=float)
    margins = condition_margins(sys, cond, a, thetas, n_check)
    lp = np.zeros((thetas.shape[0], sys.m, sys.m))
    for i in range(sys.m):
        for j in range(sys.m):
            tr = sys.transports[i][j]
            lp[:, i, j] = eval_trig_many(tr.gain, thetas) * tr.shape.deriv_bounds()[1]
    canon = -np.max(lp.sum(axis=1), axis=0) - 1.0
    offdiag = [
        (i, j)
        for i in range(sys.m)
        for j in range(sys.m)
        if i != j and not sys.transports[i][j].is_zero() and sys.rho[i][j] > 0
    ]
    notes = ()
    if offdiag:
        notes = (
            "off-diagonal transit lags are not constrained by these conditions "
            f"(present for pairs {offdiag})",
        )
    components = []
    for i in range(sys.m):
        if i not in margins:
            note = "coefficient identically zero: condition vacuous"
            components.append(ComponentVerdict(i, True, float(canon[i]), (), True, note))
            continue
        g4 = margins[i].get("_g4")
        subs = []
        for name, arr in ({"G4": g4[0]} if g4 else margins[i]).items():
            idx = int(np.argmin(arr))
            mn = float(arr[idx])
            subs.append(SubMargin(name, mn, TorusPoint(thetas[idx]), bool(mn > _STRICT_TOL)))
        worst = min(sub.min_margin for sub in subs)
        if cond == "G8":
            ok = worst > 0.0
        elif cond in ("G4", "G5"):
            ok = worst >= 0.0
        else:
            ok = worst >= 0.0 and any(sub.strict_everywhere for sub in subs)
        tail = {}
        if g4:
            _, n0, found, certified = g4
            tail = dict(
                note="" if certified else f"tail verified to depth {n_check} only",
                n0_max=int(np.max(n0)) if np.all(found) else None,
                tail_certified=certified,
            )
        components.append(ComponentVerdict(i, False, None, tuple(subs), ok, **tail))
    passed = all(comp.passed for comp in components)
    return ConditionReport(cond, a, tuple(components), passed, notes)


def cubic_rows_direct(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Rows of `values` at fractional row indices `pos` in [0, K-1].

    Near-integer positions return the row exactly; otherwise the cubic
    through four neighbouring rows is used (one-sided at the ends), or the
    linear interpolant when K < 4.
    """
    K = values.shape[0]
    pos = np.asarray(pos, dtype=float)
    out = np.empty((pos.size,) + values.shape[1:], dtype=values.dtype)
    ipos = np.rint(pos)
    on_node = np.abs(pos - ipos) <= _SNAP * np.maximum(1.0, np.abs(pos))
    if np.any(on_node):
        out[on_node] = values[ipos[on_node].astype(int)]
    mid = ~on_node
    if np.any(mid):
        p = pos[mid]
        if K >= 4:
            b = np.clip(np.floor(p).astype(int) - 1, 0, K - 4)
            u = p - b
            w0 = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
            w1 = u * (u - 2.0) * (u - 3.0) / 2.0
            w2 = -u * (u - 1.0) * (u - 3.0) / 2.0
            w3 = u * (u - 1.0) * (u - 2.0) / 6.0
            vals = (
                w0[:, None] * values[b]
                + w1[:, None] * values[b + 1]
                + w2[:, None] * values[b + 2]
                + w3[:, None] * values[b + 3]
            )
        else:
            j0 = np.clip(np.floor(p).astype(int), 0, K - 2)
            u = (p - j0)[:, None]
            vals = (1.0 - u) * values[j0] + u * values[j0 + 1]
        out[mid] = vals
    return out


def shifted_rows_direct(vals: np.ndarray, off: float) -> np.ndarray:
    """Rows of `vals` re-read off > 0 steps behind each by the causal rule:
    row j reads its cut vals[j:] at off as `cubic_rows_direct` reads a grid,
    and past the cut its oldest row."""
    K = vals.shape[0]
    out = np.tile(vals[-1], (K, 1))
    io = int(round(off))
    if abs(off - io) <= _SNAP * max(1.0, abs(off)):
        out[: max(K - io, 0)] = vals[io:]
        return out
    # rows j < n read their cut's unclipped cubic on vals[j + b .. j + b + 3]
    b = max(int(np.floor(off)) - 1, 0)
    n = max(K - b - 3, 0)
    u = off - b
    w = (
        -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0,
        u * (u - 2.0) * (u - 3.0) / 2.0,
        -u * (u - 1.0) * (u - 3.0) / 2.0,
        u * (u - 1.0) * (u - 2.0) / 6.0,
    )
    out[:n] = sum(w[t] * vals[b + t : b + t + n] for t in range(4))
    for j in range(n, K):  # shorter cuts: clipped, linear, or past them
        if off <= K - 1 - j:
            out[j] = cubic_rows_direct(vals[j:], np.array([off]))[0]
    return out


def _reach(off: float) -> int:
    """How many rows behind its own row a read off steps back reaches."""
    io = int(round(off))
    if abs(off - io) <= _SNAP * max(1.0, abs(off)):
        return io
    return max(int(np.floor(off)) + 2, 3)


def invert_Dhat_neumann(
    spec, p: TorusPoint, yhat: HistoryGrid, tol: float, n_terms=None
) -> HistoryGrid:
    """`invert_Dhat` by the truncated Neumann series sum_n Lhat^n o Bhat^-1.

    The same validation, a-priori depth N and working grid; the series is
    summed in N full passes over the grid, each term re-read at every delay
    by `shifted_rows_direct`, the causal read of the lift, whose tap on a
    row's own value stays in the series.
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
    lags = [atom.lag for atom in spec.nu.atoms]
    if spec.nu.density is not None:
        lags += (-spec.nu.density.midpoints).tolist()
    J_ret = yhat.J + max([n_s] + [_reach(lag / h) for lag in lags])
    J_work = J_ret + N * n_s
    s_nodes = -h * np.arange(J_work + 1)
    y_ext = yhat.sample_many(s_nodes)
    thetas = advance_many(spec.flow, p, s_nodes)
    Binv = _batch_inverse(eval_poly_matrix_many(spec.B, thetas), thetas)
    term = np.einsum("jab,jb->ja", Binv, y_ext)
    acc = term.copy()
    if N > 0:
        atom_data = [
            (atom.lag / h, eval_poly_matrix_many(atom.weight, thetas))
            for atom in spec.nu.atoms
        ]
        dens = spec.nu.density
        for _ in range(N):
            z = np.zeros_like(term)
            for off, Wv in atom_data:
                z += np.einsum("jab,jb->ja", Wv, shifted_rows_direct(term, off))
            if dens is not None:
                for l, mid in enumerate(dens.midpoints):
                    shifted = shifted_rows_direct(term, -mid / h)
                    z += dens.step * np.einsum("ab,jb->ja", dens.values[l], shifted)
            term = np.einsum("jab,jb->ja", Binv, z)
            acc += term
    return HistoryGrid(h, acc[: J_ret + 1])


def batch_inverse_direct(Bv: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """`d_operator._batch_inverse` with the determinant taken at every
    phase before the inverse."""
    dets = np.linalg.det(Bv)
    scale = np.maximum(1.0, np.max(np.abs(Bv), axis=(1, 2)) ** Bv.shape[1])
    bad = np.abs(dets) < 1e-14 * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularBError(TorusPoint(thetas[i]), float(dets[i]))
    return np.linalg.inv(Bv)


def invert_Dhat_direct(
    spec,
    p: TorusPoint,
    yhat: HistoryGrid,
    tol: float,
    n_terms=None,
) -> HistoryGrid:
    """`invert_Dhat` with phases, inverse, stencils and blocks of its own,
    solved in place on a newest-first grid that starts as B^-1 yhat.

    The inverse x solves B x = yhat + delayed part of x on a working grid
    extended N delay spans into the past, N chosen a priori from the
    geometric tail bound of `spec.stability` unless n_terms sets it. x is
    read by the lift's causal rule, and past the grid at its oldest row as
    it stands. A row's tap on itself, weight |w0| <= 1 (an off-grid delay
    under 2h, or a stencil clipped at the oldest rows), moves to the left:
    row j solves (B - sum w0 W) x_j = yhat_j + the reads of older rows, one
    batched inverse for all rows (B^-1 when every w0 is 0). Starting from
    x = B^-1 yhat, the rows are solved from the oldest in blocks of c >= 1
    rows, c the shortest distance from a row to an older row it reads, so
    every block reads only solved rows; the oldest reads the starting row,
    an error damped by lam^N at the returned rows. These reach one support
    past the input's, or to the oldest row that its nodes' stencils read,
    so a round trip through eval_Dhat_segment at the input depth stays
    within tol at every node.
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
    s_nodes = -h * np.arange(K)
    y_ext = yhat.sample_many(s_nodes)
    thetas = advance_many(spec.flow, p, s_nodes)
    Bv = eval_poly_matrix_many(spec.B, thetas)
    W = spec.nu.weights(thetas)
    j = np.arange(K)  # x is newest first: row j reads rows j .. K - 1
    back, w, beyond = _back_stencil(pos, (K - j)[:, None])
    live = (w != 0.0) & ~beyond[..., None]
    own = live & (back == 0)
    if np.any(own):  # B - sum w0 W, column by column
        w0 = np.where(own, w, 0.0).sum(axis=-1)
        for i, e in enumerate(np.eye(spec.m)):
            Bv[:, :, i] -= spec.nu.add_into(np.zeros((K, spec.m)), W, w0[..., None] * e)
        w = np.where(own, 0.0, w)
    c = int(np.min(back[live & ~own], initial=K))
    Ainv = _batch_inverse(Bv, thetas)
    x = np.einsum("jab,jb->ja", Ainv, y_ext)
    for e in range(K, 0, -c):
        blk = slice(max(e - c, 0), e)
        reads = gather(x, j[blk, None, None] + back[blk], w[blk])
        z = spec.nu.add_into(y_ext[blk].copy(), [Wk[blk] for Wk in W], reads)
        x[blk] = np.einsum("jab,jb->ja", Ainv[blk], z)
    return HistoryGrid(h, x[: J_ret + 1])


def extract_atom_at_zero_direct(spec, p: TorusPoint, rho: float) -> np.ndarray:
    """`extract_atom_at_zero` one column at a time: the probe times e_i read
    at `spec.offsets`, and D applied to it at the one phase p."""
    s = spec.offsets
    phi = np.where(s <= -2.0 * rho, 0.0, np.where(s <= -rho, s / rho + 2.0, 1.0))
    out = np.empty((spec.m, spec.m))
    for i, e in enumerate(np.eye(spec.m)):
        out[:, i] = spec.apply(p.theta[None, :], (phi[:, None] * e[None, :])[None])[0]
    return out


def stability_margin_direct(spec) -> StabilityEstimate:
    """`stability_margin` over the whole sampling plan at once: every
    (N, m, m) array of the plan held together, one argmax over all phases."""
    thetas = sample_thetas(spec.flow)
    Bv = eval_poly_matrix_many(spec.B, thetas)
    Binv = _batch_inverse(Bv, thetas)
    sup_Binv = float(np.max(np.sum(np.abs(Binv), axis=2)))
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
    idx = int(np.argmax(per_point))
    lam = float(per_point[idx])
    if not lam < 1.0 - _STABILITY_GUARD:
        raise UnstableMarginError(lam)
    return StabilityEstimate(
        lam=lam,
        k_bound=sup_Binv / (1.0 - lam),
        sup_Binv=sup_Binv,
        sample_count=thetas.shape[0],
        worst_point=TorusPoint(thetas[idx]),
    )


def point_at(state, t: float) -> TorusPoint:
    """The driving phase of a run at time t, unreduced."""
    return TorusPoint(state.p0.theta + t * state.flow.freqs)


def zhat_segment(state, t: float, depth: int) -> HistoryGrid:
    """The stored zhat on the grid t, t - h, ..., t - depth h, by cubic reads."""
    pos = (t - state.h * np.arange(depth + 1)) / state.h + state.Jh
    if np.any(pos < -_SNAP) or np.any(pos > state.k + _SNAP):
        raise HorizonError("requested time outside the stored trajectory")
    vals = cubic_rows_direct(state.Z[: state.k + 1], np.clip(pos, 0.0, state.k))
    return HistoryGrid(state.h, vals)


def _stage_arrays(state, t_s: float):
    """Stage data at t_s computed on the spot: B^-1 by one inversion, each
    atom weight and each coefficient column by one evaluation at its own
    phase, delayed z by one cubic_rows_direct call. Returns B^-1 and the delayed
    part of D as arrays, and the coefficients and z at the pipe lags as
    lists."""
    spec = state.general.dspec
    p = point_at(state, t_s)
    th = p.theta[None, :]
    Binv = np.linalg.inv(eval_poly_matrix_many(spec.B, th)[0])
    c = [
        float(eval_trig_many(poly, th if r == 0.0 else advance_many(state.flow, p, [-r]))[0])
        for poly, r in state.general._terms.cols
    ]
    rest = np.zeros(state.m)
    zr = []
    d = state.delays
    if d.lags.size:
        rows = cubic_rows_direct(state.X[: state.k + 1], (t_s - d.lags) / state.h + state.Jh)
        atoms, dens = spec.nu.atoms, spec.nu.density
        for atom, n in zip(atoms, d.nu):
            rest += eval_poly_matrix_many(atom.weight, th)[0] @ rows[n]
        if dens is not None:
            # each cell's product, summed left to right, times the step once
            cells = [v @ rows[n] for v, n in zip(dens.values, d.nu[len(atoms) :])]
            total = cells[0]
            for cell in cells[1:]:
                total = total + cell
            rest += dens.step * total
        zr = [rows[n].tolist() for n in d.pipe]
    return Binv, rest, c, zr


def stage_direct(state, t_s: float) -> _Stage:
    """The stage at t_s from `_stage_arrays`, with B^-1 kept as `_Stage`
    keeps it: its diagonal for a diagonal B, else all of it row by row."""
    Binv, rest, c, zr = _stage_arrays(state, t_s)
    entries = np.diagonal(Binv) if state.diagonal_B else Binv.ravel()
    return _Stage(entries.tolist(), rest.tolist(), c, zr)


def step_direct(state, now=None):
    """`step` in NumPy arithmetic on stages from `_stage_arrays`: z is the
    product B^-1 (zhat + rest) and the Runge-Kutta combination runs on
    arrays. `now` is the stage data at the current time that the previous
    call returned, so that it reads z as that step did; returns the stage
    data at the new time. Mutates the state as `step` does."""
    h, t, k = state.h, state.t, state.k
    balance = state.general._terms.balance

    def z(stage, zhat):
        return stage[0] @ (zhat + stage[1])

    def rhs(stage, z):
        return np.array(balance(stage[2], [z.tolist(), *stage[3]]))

    v0 = state.Z[k]
    now = now or _stage_arrays(state, t)
    mid = _stage_arrays(state, t + 0.5 * h)
    end = _stage_arrays(state, t + h)
    k1 = rhs(now, state.X[k])
    k2 = rhs(mid, z(mid, v0 + 0.5 * h * k1))
    k3 = rhs(mid, z(mid, v0 + 0.5 * h * k2))
    k4 = rhs(end, z(end, v0 + h * k3))
    vn = v0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    top = float(np.abs(vn).max())
    if not math.isfinite(top) or top > state.cfg.divergence_limit:
        raise DivergenceError(t + h, top)
    state.Z[k + 1] = vn
    state.X[k + 1] = z(end, vn)
    state.k = k + 1
    return end


def _coeff_at(poly, th: np.ndarray) -> float:
    """Value of a coefficient at one phase row; a constant needs no evaluation."""
    if poly.is_constant():
        return poly.constant
    return float(eval_trig_many(poly, th)[0])


def _rate(tr, th: np.ndarray, v: float) -> float:
    return _coeff_at(tr.gain, th) * tr.shape.value_scalar(v)


def eval_F_direct(sys, p: TorusPoint, hist) -> np.ndarray:
    """Net balance rate by a walk over the whole m x m transport grid."""
    x0 = sample_at(hist, 0.0)
    th0 = p.theta[None, :]
    F = np.zeros(sys.m)
    for i in range(sys.m):
        total_out = 0.0
        if not sys.outflows[i].is_zero():
            total_out += _rate(sys.outflows[i], th0, x0[i])
        for j in range(sys.m):
            tr = sys.transports[j][i]
            if not tr.is_zero():
                total_out += _rate(tr, th0, x0[i])
        F[i] = -total_out + _coeff_at(sys.inflows[i], th0)
        for j in range(sys.m):
            tr = sys.transports[i][j]
            if tr.is_zero():
                continue
            for r, w in sys.pipes[i][j].atoms:
                th_r = th0
                if r != 0.0 and not tr.gain.is_constant():
                    th_r = advance_many(sys.flow, p, [-r])
                F[i] += w * _rate(tr, th_r, sample_at(hist, -r)[j])
    return F


def comparison_upper_rows_direct(cone, m: int, step: float, horizon: float) -> np.ndarray:
    """Rows of the finite-horizon comparison history, one expm per node."""
    rho = cone.horizon
    J = _nodes(max(horizon, rho), step)
    rows = np.ones((J + 1, m))
    M = np.zeros((2 * m, 2 * m))
    M[:m, :m] = cone.A
    M[:m, m:] = np.eye(m)
    for j in range(J + 1):
        s = -j * step
        tau = s + rho
        if tau <= _SNAP:
            break
        EM = scipy.linalg.expm(M * tau)
        rows[j] = EM[:m, :].sum(axis=1)
    return rows


def _transit_integral(g, p, hist, tr, donor, r) -> float:
    """Trapezoid of the in-transit rate over [-r, 0] at the history grid step."""
    h = hist.step
    Q = int(np.floor(r / h + _SNAP))
    s = -h * np.arange(Q + 1)
    thetas = advance_many(g.flow, p, s)
    vals = tr.eval_at(thetas, hist.sample_many(s)[:, donor])
    total = float(np.trapezoid(vals[::-1], dx=h)) if Q >= 1 else 0.0
    rem = r - Q * h
    if rem > _SNAP * max(1.0, r):
        th_r = advance_many(g.flow, p, [-r])
        f_r = float(tr.eval_at(th_r, sample_at(hist, -r)[donor])[0])
        total += 0.5 * rem * (f_r + float(vals[-1]))
    return total


def total_mass_direct(sys, p: TorusPoint, hist) -> float:
    """Stored mass through `eval_D` plus each lagged pipe's transit integral,
    one pipe at a time, read from the whole of hist."""
    total = float(np.sum(eval_D(sys.dspec, p, hist)))
    for donor in range(sys.m):
        for dest in range(sys.m):
            tr = sys.transports[dest][donor]
            if tr.is_zero():
                continue
            for r, w in sys.pipes[dest][donor].atoms:
                if r <= _SNAP:
                    continue
                total += w * _transit_integral(sys, p, hist, tr, donor, r)
    return total


def mass_window(state) -> HistoryGrid:
    """Stored z over the window the total mass reads, newest row first."""
    general = state.general
    wlen = max(general.max_pipe_lag, general.dspec.support, state.h)
    W = _nodes(wlen, state.h)
    return HistoryGrid(state.h, state.X[state.k - W : state.k + 1][::-1])


def run_direct(sys, p0: TorusPoint, z_hist, cfg) -> TrajectoryLog:
    """`run` logging while it steps: one mass window and total_mass_direct per point."""
    state = init_from_z(sys, p0, z_hist, cfg)
    nsteps = cfg.nsteps
    ts, zs, zhs, Ms = [], [], [], []

    def log_now():
        t = state.t
        ts.append(t)
        zhs.append(state.Z[state.k].copy())
        win = mass_window(state)
        zs.append(win.samples[0].copy())
        Ms.append(total_mass_direct(state.general, point_at(state, t), win))

    log_now()
    for k in range(1, nsteps + 1):
        step(state)
        if k % cfg.log_stride == 0 or k == nsteps:
            log_now()
    return TrajectoryLog(
        t=np.array(ts),
        z=np.array(zs),
        zhat=np.array(zhs),
        M=np.array(Ms),
        p0=p0,
        flow=state.flow,
        h=cfg.h,
        final_state=state,
    )


def pair_margin(sx, sy, cone, expAh, run_min_a):
    """Raw margin at the current time: sign part over the whole buffer so
    far (tracked incrementally by the caller), decay part over the cone
    window."""
    k = sx.k
    if cone.infinite:
        W = k
    else:
        W = min(k, int(math.floor(cone.horizon / sx.h + _SNAP)))
    v = sy.Z[k - W : k + 1] - sx.Z[k - W : k + 1]  # oldest..newest
    newer = v[1:]
    older = v[:-1]
    slack = newer - older @ expAh.T
    worst = float(np.min(slack)) if slack.size else math.inf
    return min(run_min_a, worst)


def pair_witness(sx, sy, cone, expAh, v):
    """(row, component) where `pair_margin` is attained at the current time,
    v the gaps so far: the least decay slack of the cone window when it is
    below every gap, else the least gap."""
    k = sx.k
    W = k if cone.infinite else min(k, int(math.floor(cone.horizon / sx.h + _SNAP)))
    slack = v[k - W + 1 : k + 1] - v[k - W : k] @ expAh.T
    if slack.size and np.min(slack) < np.min(v):
        j, c = np.unravel_index(int(np.argmin(slack)), slack.shape)
        return k - W + 1 + j, c
    return np.unravel_index(int(np.argmin(v)), v.shape)


def run_ordered_pair_direct(sys, p0: TorusPoint, z_x, z_y, cfg) -> PairLog:
    """`run_ordered_pair` monitoring while it steps, one point at a time."""
    cone = cfg.cone
    sx = init_from_z(sys, p0, z_x, cfg)
    sy = init_from_z(sys, p0, z_y, cfg)
    expAh = matrix_exp(cone.A, cfg.h)
    v0 = sy.Z[: sy.k + 1] - sx.Z[: sx.k + 1]
    run_min_a = float(np.min(v0))
    margin0 = pair_margin(sx, sy, cone, expAh, run_min_a)
    if margin0 < -cfg.tol_cone:
        j, c = pair_witness(sx, sy, cone, expAh, v0)
        raise UnorderedPairError(((int(j) - sx.Jh) * cfg.h, int(c)), margin0)
    nsteps = cfg.nsteps
    general = sx.general
    ts, zx, zy, zhx, zhy, gaps, mx, my, margins, supz = (
        [], [], [], [], [], [], [], [], [], [],
    )

    def log_now():
        t = sx.t
        ts.append(t)
        zhx.append(sx.Z[sx.k].copy())
        zhy.append(sy.Z[sy.k].copy())
        gaps.append(sy.Z[sy.k] - sx.Z[sx.k])
        wx = mass_window(sx)
        wy = mass_window(sy)
        zx.append(wx.samples[0].copy())
        zy.append(wy.samples[0].copy())
        p_t = point_at(sx, t)
        mx.append(total_mass_direct(general, p_t, wx))
        my.append(total_mass_direct(general, p_t, wy))
        supz.append(float(np.max(np.abs(wy.samples - wx.samples))))
        margins.append(pair_margin(sx, sy, cone, expAh, run_min_a))

    log_now()
    for k in range(1, nsteps + 1):
        step(sx)
        step(sy)
        run_min_a = min(run_min_a, float(np.min(sy.Z[sy.k] - sx.Z[sx.k])))
        if k % cfg.log_stride == 0 or k == nsteps:
            log_now()
    return PairLog(
        t=np.array(ts),
        z_x=np.array(zx),
        z_y=np.array(zy),
        zhat_x=np.array(zhx),
        zhat_y=np.array(zhy),
        d_gap=np.array(gaps),
        mass_x=np.array(mx),
        mass_y=np.array(my),
        cone_margin=np.array(margins),
        z_diff_sup=np.array(supz),
        p0=p0,
        flow=sx.flow,
        h=cfg.h,
    )
