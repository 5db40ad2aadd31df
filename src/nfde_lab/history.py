"""Finite representations of histories on (-inf, 0].

A history is a bounded, uniformly continuous function of a nonpositive
time offset. Computationally it is held on a uniform grid with a finite
horizon and a tail policy that extends it to the full half line: constant
extension repeats the oldest sample (and keeps the function continuous),
zero extension pads with zeros.

Between nodes the value is the cubic through the four nearest nodes, with
the stencil shifted one-sided at either end of the grid, so polynomials of
degree <= 3 are reproduced on the whole open horizon. Grids with fewer
than four nodes fall back to linear interpolation. Node queries return the
stored sample bit-exactly.

Norms are grid sups: interpolation overshoot between nodes is ignored.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Tolerance for treating a time or a grid position as on a node; the one
# snap tolerance every module of the package uses.
_SNAP = 1e-9

# Tolerance for treating two values of structure data as equal (grid steps,
# weight sums, rho_ii against alpha_i, a coefficient against its bound); the
# one equality tolerance every module of the package uses.
_EQ_TOL = 1e-12


def _nodes(length: float, step: float) -> int:
    """Grid intervals of the given step needed to cover a length, snapped."""
    return int(np.ceil(length / step - _SNAP))


class TailPolicy(enum.Enum):
    CONSTANT = "constant"
    ZERO = "zero"


def _cubic_weights(u: np.ndarray):
    """Lagrange weights for nodes at offsets 0..3, parameter u in [0, 3]."""
    w0 = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
    w1 = u * (u - 2.0) * (u - 3.0) / 2.0
    w2 = -u * (u - 1.0) * (u - 3.0) / 2.0
    w3 = u * (u - 1.0) * (u - 2.0) / 6.0
    return w0, w1, w2, w3


def cubic_rows(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Interpolate rows of `values` at fractional row indices `pos` in [0, K-1].

    The stencils of `cubic_stencil`, gathered: on a node the row exactly,
    elsewhere the cubic through four neighbouring rows (one-sided at the
    ends), or the linear interpolant when K < 4.
    """
    return gather(values, *cubic_stencil(values.shape[0], pos))


def gather(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """What each stencil (idx, w of `cubic_stencil`, shape P + (4,), w may
    broadcast) reads from the rows of `values`, shape P + (m,): the four taps
    summed left to right, here only, one gathered at a time to save memory."""
    taps = w[..., 0, None] * values[idx[..., 0]]
    for k in (1, 2, 3):
        taps += w[..., k, None] * values[idx[..., k]]
    return taps


def cubic_stencil(K, pos: np.ndarray):
    """Rows and weights of the interpolant at fractional row indices `pos`.

    The one rule for reading a sampled history between its nodes. K is the
    number of stored rows, one value or one per position, and pos lies in
    [0, K-1] or within the node snap past K-1. Returns integer rows `idx`
    and weights `w`, each of shape pos.shape + (4,); the value read is

        w[..., 0] * values[idx[..., 0]] + w[..., 1] * values[idx[..., 1]]
        + w[..., 2] * values[idx[..., 2]] + w[..., 3] * values[idx[..., 3]]

    summed left to right, as `gather` does. An on-node position reads its
    row four times with weights (1, 0, 0, 0), which returns a finite row bit
    for bit, signed zeros included; the linear interpolant (K < 4) repeats
    its second row with weight 0.
    """
    pos = np.asarray(pos, dtype=float)
    K = np.broadcast_to(np.asarray(K), pos.shape)
    ipos = np.rint(pos)
    on_node = np.abs(pos - ipos) <= _SNAP * np.maximum(1.0, np.abs(pos))
    floor = np.floor(pos).astype(int)
    cubic = K >= 4
    b = np.where(cubic, np.clip(floor - 1, 0, K - 4), np.clip(floor, 0, K - 2))
    u = pos - b
    w0, w1, w2, w3 = _cubic_weights(u)
    w = np.stack(
        [
            np.where(cubic, w0, 1.0 - u),
            np.where(cubic, w1, u),
            np.where(cubic, w2, 0.0),
            np.where(cubic, w3, 0.0),
        ],
        axis=-1,
    )
    idx = b[..., None] + np.where(cubic[..., None], np.arange(4), np.minimum(np.arange(4), 1))
    idx[on_node] = ipos[on_node].astype(int)[:, None]
    w[on_node] = (1.0, 0.0, 0.0, 0.0)
    return idx, w


def _back_stencil(pos: np.ndarray, K):
    """The causal read rule: stencils that read `pos` fractional steps back
    from a row within the K rows ending at it (K one value or one per row,
    shape (rows, 1)), clipped there as `cubic_stencil` clips a grid, so no
    read takes a newer row. Returns the taps' rows back from the row, their
    weights, and the reads past the K rows, which take the oldest of them."""
    beyond = pos - (K - 1) > _SNAP * np.maximum(1.0, pos)
    return (*cubic_stencil(K, np.minimum(pos, K - 1)), beyond)


def _read_back(X: np.ndarray, rows: np.ndarray, pos: np.ndarray, K, tail=None) -> np.ndarray:
    """X, stored oldest first, read by `_back_stencil` behind each of `rows`,
    shape (rows, pos, m); a read past the K rows takes `tail` if given."""
    back, w, beyond = _back_stencil(pos, K)
    out = gather(X, rows[:, None, None] - back, w)
    if tail is not None:
        out[np.broadcast_to(beyond, out.shape[:2])] = tail
    return out


@dataclass(frozen=True, eq=False)
class HistoryGrid:
    """Uniformly sampled history; row j holds the value at offset -j*step."""

    step: float
    samples: np.ndarray
    tail: TailPolicy = TailPolicy.CONSTANT

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.shape[0] < 2:
            raise ValueError("a history grid needs at least two samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("history samples must be finite")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "step", float(self.step))

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    @property
    def J(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def horizon(self) -> float:
        return self.J * self.step

    def _tail_value(self) -> np.ndarray:
        if self.tail is TailPolicy.CONSTANT:
            return self.samples[-1]
        return np.zeros(self.m)

    def sample_many(self, s) -> np.ndarray:
        """Values at each offset in s (all <= 0), shape (len(s), m): node 0 of `read_back`."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s > _SNAP):
            raise ValueError("history offsets must be <= 0")
        return self.read_back(np.zeros(1, dtype=int), np.maximum(-s / self.step, 0.0))[0]

    def read_back(self, nodes: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Each node j's values at fractional steps pos >= 0 behind it, shape
        (nodes, pos, m): its cut, rows j .. J, read by `_read_back`, and the
        tail past it; a node past the grid reads the tail alone."""
        tail = self._tail_value()
        pad = max(int(np.max(nodes)) - self.J, 0)  # tail rows for nodes past the grid
        X = np.concatenate([np.tile(tail, (pad, 1)), self.samples[::-1]])
        K = np.maximum(self.J + 1 - nodes, 1)[:, None]
        out = np.tile(tail, (nodes.size, pos.size, 1))
        near = pos <= self.J + 1  # a read further back is past every cut: the tail
        out[:, near] = _read_back(X, self.J + pad - nodes, pos[near], K, tail)
        return out


class FunctionHistory:
    """Adapter wrapping an exact vectorized function of the offset."""

    def __init__(self, fn, m: int):
        self.fn = fn
        self.m = int(m)

    def sample_many(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s > _SNAP):
            raise ValueError("history offsets must be <= 0")
        vals = np.asarray(self.fn(s), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (s.size, self.m):
            raise DimensionMismatchError(
                f"history function returned shape {vals.shape}, "
                f"expected {(s.size, self.m)}"
            )
        return vals


def from_function(fn, step: float, horizon: float, tail=TailPolicy.CONSTANT) -> HistoryGrid:
    """Sample a vectorized function of the offset onto a fresh grid."""
    J = _nodes(horizon, step)
    s = -step * np.arange(J + 1)
    vals = np.asarray(fn(s), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return HistoryGrid(step, vals, tail)


def constant_history(value, step: float, horizon: float, tail=TailPolicy.CONSTANT) -> HistoryGrid:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return from_function(lambda s: np.tile(value, (s.size, 1)), step, horizon, tail)


def resample(hist, step: float, horizon: float, tail=TailPolicy.CONSTANT) -> HistoryGrid:
    """Re-sample any history-like object onto a uniform grid."""
    return from_function(hist.sample_many, step, horizon, tail)


def sup_norm(hist: HistoryGrid) -> float:
    """Grid sup of the max-norm over the whole horizon."""
    return float(np.max(np.abs(hist.samples)))


def seminorm_n(hist: HistoryGrid, n: int) -> float:
    """Grid sup of the max-norm over offsets in [-n, 0]."""
    if n <= 0:
        raise ValueError("seminorm index must be positive")
    jmax = min(hist.J, int(np.floor(n / hist.step + _SNAP)))
    return float(np.max(np.abs(hist.samples[: jmax + 1])))


def compact_open_metric(x: HistoryGrid, y: HistoryGrid, n_max: int = 30) -> float:
    """Truncated weighted-seminorm metric.

    Sums 2^-n * u_n / (1 + u_n) for n = 1..n_max, u_n the grid seminorm of
    the difference over [-n, 0], and closes with the tail bound
    2^-n_max * u / (1 + u) with u the full sup. The result is within
    2^-n_max of the untruncated series.
    """
    if x.m != y.m:
        raise DimensionMismatchError("histories have different state dimensions")
    hc = min(x.step, y.step)
    H = max(x.horizon, y.horizon)
    Jc = int(round(H / hc))
    s = -hc * np.arange(Jc + 1)
    diff = x.sample_many(s) - y.sample_many(s)
    rownorm = np.max(np.abs(diff), axis=1)
    # difference of the two tail values, relevant once both grids are exhausted
    tailnorm = float(np.max(np.abs(x._tail_value() - y._tail_value())))
    prefix = np.maximum.accumulate(rownorm)
    full = max(float(prefix[-1]), tailnorm)
    total = 0.0
    for n in range(1, n_max + 1):
        if n >= H - _SNAP:
            u = full
        else:
            jcut = min(Jc, int(np.floor(n / hc + _SNAP)))
            u = float(prefix[jcut])
        total += 0.5**n * u / (1.0 + u)
    total += 0.5**n_max * full / (1.0 + full)
    return total


def _fmt(v) -> str:
    """Round-trip text of a float: the one number format of every output file."""
    return format(float(v), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header and rows; float cells take `_fmt`, other cells print as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])


def export_csv(hist: HistoryGrid, path) -> None:
    """Write `s,z1,...,zm` rows with s decreasing from 0."""
    s = -np.arange(hist.J + 1) * hist.step
    write_csv(
        path,
        ["s"] + [f"z{i + 1}" for i in range(hist.m)],
        np.column_stack([s, hist.samples]),
    )


def import_csv(path, tail=TailPolicy.CONSTANT) -> HistoryGrid:
    """Read a history written by export_csv; validates the uniform grid."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3:
        raise ValueError("history CSV needs a header and at least two rows")
    header = rows[0]
    if not header or header[0] != "s":
        raise ValueError("history CSV must start with an 's' column")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    s = data[:, 0]
    steps = -np.diff(s)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > _SNAP * max(1.0, steps[0]):
        raise ValueError("history CSV offsets must decrease uniformly from 0")
    if abs(s[0]) > _EQ_TOL:
        raise ValueError("history CSV must start at offset 0")
    return HistoryGrid(float(steps[0]), data[:, 1:], tail)
