import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfde_lab import (
    DimensionMismatchError,
    HistoryGrid,
    compact_open_metric,
    constant_history,
    export_csv,
    from_function,
    import_csv,
    seminorm_n,
    sup_norm,
)
from nfde_lab.history import _SNAP, cubic_rows, cubic_stencil

from .oracles import cubic_rows_direct, sample_at


def linear_grid(h=0.1, horizon=3.0):
    return from_function(lambda s: s[:, None], h, horizon)


def test_node_query_bit_exact():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(31, 2))
    hist = HistoryGrid(0.1, vals)
    for j in (0, 1, 17, 30):
        got = sample_at(hist, -j * 0.1)
        assert got[0] == vals[j, 0] and got[1] == vals[j, 1]


def test_linear_interpolation_midpoint():
    hist = linear_grid()
    assert sample_at(hist, -0.05)[0] == pytest.approx(-0.05, abs=1e-12)


def test_cubic_exact_on_cubics():
    # oracle: dense evaluation of s^3 against the interpolant
    hist = from_function(lambda s: (s**3)[:, None], 0.1, 1.0)
    s = np.linspace(-1.0, 0.0, 1111)
    err = np.max(np.abs(hist.sample_many(s)[:, 0] - s**3))
    assert err <= 1e-12


def test_sup_norm_constant():
    hist = constant_history([2.0, -3.0], 0.1, 2.0)
    assert sup_norm(hist) == 3.0


def test_seminorm_linear():
    hist = from_function(lambda s: s[:, None], 0.1, 5.0)
    assert seminorm_n(hist, 2) == pytest.approx(2.0, abs=1e-12)


def test_seminorm_below_sup():
    rng = np.random.default_rng(5)
    for _ in range(20):
        hist = HistoryGrid(0.2, rng.normal(size=(40, 3)))
        for n in (1, 3, 7):
            assert seminorm_n(hist, n) <= sup_norm(hist) + 1e-15


def test_metric_identical():
    hist = linear_grid()
    assert compact_open_metric(hist, hist) == 0.0


def test_metric_constant_difference():
    a = constant_history([0.0], 0.1, 3.0)
    b = constant_history([1.0], 0.1, 3.0)
    assert compact_open_metric(a, b, n_max=30) == pytest.approx(0.5, abs=2**-30 + 1e-12)
    c = constant_history([3.0], 0.1, 3.0)
    assert compact_open_metric(a, c, n_max=30) == pytest.approx(0.75, abs=2**-30 + 1e-12)


def test_metric_bounded_by_one():
    a = constant_history([0.0], 0.1, 2.0)
    b = constant_history([1e9], 0.1, 2.0)
    assert compact_open_metric(a, b) <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(1.0, 50.0),
)
def test_metric_symmetry_and_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(21, 2))
    diff = rng.normal(size=(21, 2))
    x = HistoryGrid(0.25, base)
    y = HistoryGrid(0.25, base + diff)
    z = HistoryGrid(0.25, base + scale * diff)
    dxy = compact_open_metric(x, y)
    assert dxy == pytest.approx(compact_open_metric(y, x), abs=1e-15)
    assert compact_open_metric(x, z) >= dxy - 1e-12  # scaling up never shrinks it


def test_metric_triangle_within_tail():
    rng = np.random.default_rng(11)
    n_max = 20
    for _ in range(20):
        grids = [HistoryGrid(0.2, rng.normal(size=(15, 2))) for _ in range(3)]
        a, b, c = grids
        dab = compact_open_metric(a, b, n_max)
        dbc = compact_open_metric(b, c, n_max)
        dac = compact_open_metric(a, c, n_max)
        assert dac <= dab + dbc + 2 * 2**-n_max


def test_metric_indiscernible_on_grid():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(12, 1))
    x = HistoryGrid(0.5, vals)
    y = HistoryGrid(0.5, vals.copy())
    assert compact_open_metric(x, y) == 0.0


def test_tail_policies():
    # past its grid a history is its oldest sample
    hist = from_function(lambda s: s[:, None], 0.1, 1.0)
    assert sample_at(hist, -5.0)[0] == hist.samples[-1, 0] == pytest.approx(-1.0)


def test_positive_offset_rejected():
    hist = constant_history([1.0], 0.1, 1.0)
    with pytest.raises(ValueError):
        sample_at(hist, 0.5)


def test_metric_dimension_mismatch():
    a = constant_history([0.0], 0.1, 1.0)
    b = constant_history([0.0, 0.0], 0.1, 1.0)
    with pytest.raises(DimensionMismatchError):
        compact_open_metric(a, b)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    hist = HistoryGrid(0.05, rng.normal(size=(25, 3)))
    path = tmp_path / "hist.csv"
    export_csv(hist, path)
    back = import_csv(path)
    assert back.step == pytest.approx(hist.step, abs=1e-12)
    assert np.array_equal(back.samples, hist.samples)


@pytest.mark.parametrize("second", ["nan", "-inf", "inf"])
def test_csv_offsets_must_be_finite(tmp_path, second):
    # NaN fails every comparison of the uniform-grid check, and an infinite
    # offset makes an infinite step: both are offsets that are not finite
    path = tmp_path / "h.csv"
    path.write_text(f"s,z1\n0,1.0\n{second},2.0\n")
    with pytest.raises(ValueError, match="finite"):
        import_csv(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("s\n0\n-0.1\n", "value column"),  # used to read as a history of m = 0
        ("s,z1\n0\n-0.1\n", "one cell per header column"),
        ("s,z1\n0,1.0,2.0\n-0.1,1.0,2.0\n", "one cell per header column"),
    ],
    ids=["no-value-column", "short-rows", "long-rows"],
)
def test_csv_value_columns_follow_the_header(tmp_path, text, match):
    path = tmp_path / "h.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        import_csv(path)


@pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
def test_grid_step_must_be_finite_and_positive(step):
    with pytest.raises(ValueError, match="grid step"):
        HistoryGrid(step, np.zeros((3, 1)))


def test_csv_header(tmp_path):
    hist = constant_history([1.0, 2.0], 0.1, 0.5)
    path = tmp_path / "h.csv"
    export_csv(hist, path)
    first = path.read_text().splitlines()[0]
    assert first == "s,z1,z2"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 12),
    m=st.integers(1, 3),
)
def test_cubic_stencil_reproduces_cubic_rows(seed, K, m):
    # the stencil, gathered left to right, and cubic_rows, which gathers it,
    # are the direct interpolant bit for bit: on nodes, between them,
    # clipped at both ends, and linear below 4 rows
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(K, m))
    values[rng.integers(K)] = -0.0  # a signed zero must survive the gather
    pos = np.concatenate(
        [
            rng.uniform(0.0, K - 1, size=20),
            np.arange(K, dtype=float),
            np.arange(K) * (1.0 + 1e-12),  # within the node snap
            [0.5, K - 1.5, K - 1.0 - 1e-6],
        ]
    )
    idx, w = cubic_stencil(K, pos)
    g = values[idx]
    taps = w[:, :, None] * g
    got = taps[:, 0] + taps[:, 1] + taps[:, 2] + taps[:, 3]
    want = cubic_rows_direct(values, pos).tobytes()
    assert got.tobytes() == want
    assert cubic_rows(values, pos).tobytes() == want
    # a per-position K gives the same stencils as one call per K
    Ks = rng.integers(2, K + 1, size=pos.size)
    pos_k = np.minimum(pos, Ks - 1)
    idx_k, w_k = cubic_stencil(Ks, pos_k)
    for n in range(pos.size):
        one_idx, one_w = cubic_stencil(Ks[n], pos_k[n : n + 1])
        assert np.array_equal(idx_k[n], one_idx[0])
        assert w_k[n].tobytes() == one_w[0].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 12),
    m=st.integers(1, 3),
    h=st.sampled_from([0.1, 0.05, 0.03, 1.0 / 3.0]),
)
def test_sample_many_matches_direct_reads(seed, K, m, h):
    # sample_many leaves the node snap to the stencil: bit for bit the
    # direct interpolant on nodes, between them and within the snap past
    # the last node, and the oldest sample past that, as when positions
    # were snapped before reading
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(K, m))
    values[rng.integers(K)] = -0.0
    J = K - 1
    snap = _SNAP * max(1.0, J)
    pos = np.concatenate(
        [
            rng.uniform(0.0, J, size=20),
            np.arange(K, dtype=float),
            np.arange(K) * (1.0 + 1e-12),
            [J + 0.5 * snap, J + 3.0 * snap, J + 0.5],
            rng.uniform(J, J + 3.0, size=10),
        ]
    )
    hist = HistoryGrid(h, values)
    got = hist.sample_many(-h * pos)
    read = np.maximum(h * pos / h, 0.0)  # the positions sample_many reads
    ipos = np.rint(read)
    on_node = np.abs(read - ipos) <= _SNAP * np.maximum(1.0, np.abs(read))
    eff = np.where(on_node, ipos, read)
    want = np.empty_like(got)
    want[eff > J] = values[-1]
    want[eff <= J] = cubic_rows_direct(values, eff[eff <= J])
    assert got.tobytes() == want.tobytes()
