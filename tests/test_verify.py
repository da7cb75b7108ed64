import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cell_points, coarse_points
from riccicert.errors import (MAX_SCAN_POINTS, EvaluationError, PreconditionError,
                              ScenarioError, SearchError)
from riccicert.verify import (GridSpec, Level, _check_scan_budget, _lowest,
                              bisect_param, grid_min)


def test_quadratic_minimum_at_interior():
    cert = grid_min(lambda x: 1.0 + x * x, GridSpec.line(-1, 1, 201, depth=2))
    assert cert.min_margin == pytest.approx(1.0, abs=1e-9)
    assert cert.argmin[0] == pytest.approx(0.0, abs=1e-2)
    assert cert.passed


def test_sine_boundary_minimum():
    cert = grid_min(lambda x: math.sin(x), GridSpec.line(0.1, 3.0, 101, depth=3))
    assert cert.min_margin == pytest.approx(math.sin(0.1), abs=1e-6)
    assert cert.argmin[0] == pytest.approx(0.1, abs=1e-4)


def test_interior_dip_fails_certificate():
    cert = grid_min(lambda x: x * x - 0.01, GridSpec.line(-1, 1, 101, depth=2))
    assert not cert.passed
    assert cert.min_margin < 0.0
    assert abs(cert.argmin[0]) < 0.05


def test_two_dimensional_grid():
    cert = grid_min(lambda x, y: (x - 0.3) ** 2 + (y + 0.2) ** 2 + 0.5,
                    GridSpec.box([(-1, 1, 41), (-1, 1, 41)], depth=2))
    assert cert.min_margin == pytest.approx(0.5, abs=1e-6)


def test_refinement_trace_non_increasing():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, 6)

    def f(x):
        return sum(c * math.sin((i + 1) * x) for i, c in enumerate(coeffs)) + 2.0

    cert = grid_min(f, GridSpec.line(0, 6, 31, depth=4))
    margins = [m for _, m in cert.refinement_trace]
    assert margins == sorted(margins, reverse=True)
    assert cert.refinement_trace[0][0] == 0
    assert cert.refinement_trace[-1][0] == 4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9999))
def test_refinement_never_increases_minimum(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, 4)

    def f(x):
        return sum(c * math.cos((i + 1.3) * x) for i, c in enumerate(coeffs))

    shallow = grid_min(f, GridSpec.line(-2, 2, 41, depth=0))
    deep = grid_min(f, GridSpec.line(-2, 2, 41, depth=3))
    assert deep.min_margin <= shallow.min_margin + 1e-15


def test_scalar_and_batched_margins_give_same_certificate():
    def f(x, y):
        return math.sin(3 * x) * math.cos(2 * y) + 1.5

    def f_batched(level):
        x, y = level.points.T
        return np.sin(3 * x) * np.cos(2 * y) + 1.5

    # A 2-D grid and 3 refinement levels, one batched call per level.
    grid = GridSpec.box([(0, 2, 33), (0, 2, 33)], depth=3)
    a = grid_min(f, grid)
    b = grid_min(f_batched, grid, batched=True)
    assert a == b
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("axes, depth, factor", [
    ([(0, 1, 101)], 3, 4),
    ([(0, 2, 101), (0, 1, 65)], 2, 2),  # a coarse level of 6,565 points
])
def test_batched_margin_gets_one_call_per_level(axes, depth, factor):
    sizes = []

    def f(level):
        sizes.append(level.shape[0])
        return np.sin(3.0 * level.points).sum(axis=1) + 2.0

    grid_min(f, GridSpec.box(axes, depth=depth, factor=factor), batched=True)
    expected = [math.prod(count for _, _, count in axes)]
    for _ in range(depth):
        cells = math.ceil(0.05 * expected[-1])
        expected.append(cells * (2 * factor + 1) ** len(axes))
    assert sizes == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, math.inf]),
                          st.floats(-2.0, 2.0)), min_size=1, max_size=80),
       st.data())
def test_lowest_equals_stable_argsort_prefix(values, data):
    # Refinement cells: heavy ties and +inf (a non-finite margin) included.
    values = np.array(values)
    n = data.draw(st.integers(1, len(values)))
    assert (_lowest(values, n).tolist()
            == np.argsort(values, kind="stable")[:n].tolist())


@pytest.mark.parametrize("batched", [False, True])
def test_nan_margin_fails_certificate(batched):
    # A NaN compares false with everything, so a plain min skips it.
    def f(x):
        return math.nan if x == 0.5 else 1.0

    def f_batched(level):
        return np.where(level.points[:, 0] == 0.5, math.nan, 1.0)

    cert = grid_min(f_batched if batched else f,
                    GridSpec.line(0, 1, 101, depth=1), batched=batched)
    assert not cert.passed
    assert cert.min_margin == 1.0
    assert cert.nonfinite_count == 1
    assert cert.nonfinite_at == (0.5,)
    assert cert.to_dict()["nonfinite"] == {"count": 1, "first": [0.5]}


@pytest.mark.parametrize("batched", [False, True])
def test_a_margin_equal_to_the_threshold_fails(batched):
    # The certificate is for min f > threshold: a minimum of exactly 0.25
    # at x = 0 fails a threshold of 0.25, and a search probe's scan stops at
    # that coarse level; the double below 0.25 passes.
    def f(x):
        return 0.25 + x * x

    def f_batched(level):
        return f(level.points[:, 0])

    margin, grid = (f_batched if batched else f), GridSpec.line(-1, 1, 101, depth=2)
    cert = grid_min(margin, grid, threshold=0.25, batched=batched)
    assert cert.min_margin == 0.25 and not cert.passed
    stopped = grid_min(margin, grid, threshold=0.25, batched=batched,
                       stop_at_failure=True)
    assert not stopped.passed and len(stopped.refinement_trace) == 1
    assert grid_min(margin, grid, threshold=math.nextafter(0.25, 0.0),
                    batched=batched).passed


def test_nan_at_first_point_serializes():
    from riccicert.cli import canonical_json

    cert = grid_min(lambda x: math.nan if x == 0.0 else 1.0,
                    GridSpec.line(0, 1, 101, depth=1))
    assert not cert.passed and cert.min_margin == 1.0
    assert cert.nonfinite_at == (0.0,)
    assert '"nonfinite"' in canonical_json(cert.to_dict())


def test_all_nonfinite_margins_serialize_as_null():
    from riccicert.cli import canonical_json

    cert = grid_min(lambda x: math.inf, GridSpec.line(0, 1, 11, depth=1))
    assert not cert.passed
    assert cert.nonfinite_count == 11 + 9
    out = cert.to_dict()
    assert out["min_margin"] is None
    assert out["refinement_trace"] == [[0, None], [1, None]]
    canonical_json(out)


def test_finite_certificate_has_no_nonfinite_field():
    cert = grid_min(lambda x: 1.0 + x, GridSpec.line(0, 1, 11, depth=1))
    assert "nonfinite" not in cert.to_dict()


def _counting(margin):
    """``margin`` as a batched margin that records each level's size."""
    sizes = []

    def f(level):
        sizes.append(level.shape[0])
        return margin(level.points[:, 0])

    return f, sizes


@pytest.mark.parametrize("margin, depth", [
    (lambda x: x * x - 0.01, 0),  # -0.01 at the coarse point x = 0
    # |x - 0.3125| - 0.005: the nearest coarse point is 0.0875 away and the
    # nearest depth-1 point 0.0125; the depth-2 cell around 0.3 samples
    # 0.3125 itself.
    (lambda x: np.abs(x - 0.3125) - 0.005, 2),
    # NaN at the coarse point x = 0; every finite value is 1.0.
    (lambda x: np.where(np.abs(x) < 0.05, math.nan, 1.0), 0),
], ids=["coarse", "depth-2", "nonfinite"])
def test_stop_at_failure_ends_the_scan_at_the_first_failing_level(margin,
                                                                   depth):
    grid = GridSpec.line(-1, 1, 11, depth=3, factor=4)
    f, sizes = _counting(margin)
    cert = grid_min(f, grid, batched=True, stop_at_failure=True)
    assert not cert.passed
    assert len(sizes) == len(cert.refinement_trace) == depth + 1
    # The grid records the depth reached: it is the certificate of a scan
    # to that depth.
    assert cert.grid == GridSpec.line(-1, 1, 11, depth=depth, factor=4)
    assert cert == grid_min(f, cert.grid, batched=True)
    full = grid_min(f, grid, batched=True)
    assert full.grid.depth == len(full.refinement_trace) - 1 == 3
    assert full.refinement_trace[:depth + 1] == cert.refinement_trace
    assert not full.passed


def test_passing_certificate_scans_every_level_with_stop_at_failure():
    grid = GridSpec.line(-1, 1, 11, depth=3, factor=4)
    f, sizes = _counting(lambda x: x * x + 0.01)
    cert = grid_min(f, grid, batched=True, stop_at_failure=True)
    assert cert.passed and len(sizes) == 4
    assert cert == grid_min(f, grid, batched=True)


def test_evaluation_error_carries_coordinates():
    def f(x):
        if x > 0.5:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(EvaluationError) as err:
        grid_min(f, GridSpec.line(0, 1, 11))
    assert err.value.coords is not None


def test_batched_evaluation_error_names_first_failing_point():
    def f(level):
        if (level.points[:, 0] > 0.5).any():
            raise ValueError("boom")
        return np.ones(level.shape[0])

    with pytest.raises(EvaluationError) as err:
        grid_min(f, GridSpec.line(0, 1, 11), batched=True)
    assert err.value.coords == (np.linspace(0, 1, 11)[6],)


def test_failing_level_is_narrowed_block_by_block():
    # A 10,001-point level fails in its third 4,096-point block: only that
    # block is re-run point by point.
    sizes = []

    def f(level):
        sizes.append(level.shape[0])
        if (level.points[:, 0] > 0.9).any():
            raise ValueError("boom")
        return np.ones(level.shape[0])

    with pytest.raises(EvaluationError) as err:
        grid_min(f, GridSpec.line(0, 1, 10001), batched=True)
    assert err.value.coords == (np.linspace(0, 1, 10001)[9001],)
    assert sizes[:4] == [10001, 4096, 4096, 1809]
    assert len(sizes) == 4 + 9001 - 2 * 4096 + 1


@pytest.mark.parametrize("margin, grid, points", [
    (lambda level: np.array([1.0]),
     GridSpec.box([(0, 1, 11), (0, 1, 7)], depth=2), 77),
    (lambda level: 1.0 - level.points[:1, 0], GridSpec.line(0, 1, 11, depth=1),
     11),
], ids=["one-value", "first-point-only"])
def test_batched_margin_of_the_wrong_size_is_refused(margin, grid, points):
    # Both results were broadcast over the whole level: the first passed with
    # min 1.0, the second although the true minimum is 0.
    with pytest.raises(ValueError, match=rf"margin returned 1 value\(s\), "
                       rf"shape \(1,\), for {points} points"):
        grid_min(margin, grid, batched=True)


def _mesh_points(mesh):
    dims = len(mesh)
    return np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, dims)


def test_every_level_hands_its_points_and_their_open_mesh():
    levels = []

    def f(level):
        levels.append((level.points.copy(), level.mesh))
        return np.sin(3.0 * level.points).sum(axis=1) + 2.0

    grid_min(f, GridSpec.box([(0, 1, 5), (0, 2, 4), (-1, 1, 3)], depth=2,
                             factor=2), batched=True)
    assert [x.shape for x in levels[0][1]] == [(1, 5, 1, 1), (1, 1, 4, 1),
                                               (1, 1, 1, 3)]
    for points, mesh in levels[1:]:
        boxes = len(points) // 5**3
        assert [x.shape for x in mesh] == [(boxes, 5, 1, 1), (boxes, 1, 5, 1),
                                           (boxes, 1, 1, 5)]
    assert len(levels) == 3
    for points, mesh in levels:
        assert _mesh_points(mesh).tobytes() == points.tobytes()


def test_narrowing_reruns_pass_a_mesh_of_one_point_boxes():
    shapes = []

    def f(level):
        shapes.append([x.shape for x in level.mesh])
        assert _mesh_points(level.mesh).tobytes() == level.points.tobytes()
        if (level.points[:, 0] > 0.5).any():
            raise ValueError("boom")
        return np.ones(level.shape[0])

    with pytest.raises(EvaluationError) as err:
        grid_min(f, GridSpec.box([(0, 1, 11), (0, 1, 3)]), batched=True)
    assert err.value.coords == (np.linspace(0, 1, 11)[6], 0.0)
    assert shapes[:2] == [[(1, 11, 1), (1, 1, 3)], [(33, 1, 1), (33, 1, 1)]]
    assert shapes[2:] == [[(1, 1, 1), (1, 1, 1)]] * (6 * 3 + 1)


@pytest.mark.parametrize("axes", [
    [(-1.0, 2.0, 7)],
    [(0.0, 1.0, 5), (-3.0, 3.0, 4)],
    [(0.0, 1.0, 3), (16.0, 17.0, 6), (-1e-3, 1e-3, 2)],
    # The second axis's step underflows to zero, which numpy's linspace
    # handles by dividing first: only on that axis, as one call per axis.
    [(0.3, 1.9, 4), (0.0, 5e-324, 4)],
], ids=["1d", "2d", "3d", "zero-step"])
def test_coarse_level_matches_gathered_points(axes):
    lo = np.array([[a for a, _, _ in axes]])
    hi = np.array([[b for _, b, _ in axes]])
    level = Level.of_boxes(lo, hi, tuple(c for _, _, c in axes))
    assert level.points.tobytes() == coarse_points(axes).tobytes()
    assert _mesh_points(level.mesh).tobytes() == level.points.tobytes()


@pytest.mark.parametrize("cells", ["clipped", "degenerate"])
@pytest.mark.parametrize("factor", [2, 3, 4, 5])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_refinement_level_matches_gathered_points(dims, factor, cells):
    # Cells as grid_min builds them: clipped at the box edges, and a
    # degenerate cell widened by 1e-15 on each side. Near 16 that widening
    # rounds away, so the second axis keeps a zero step, which switches
    # numpy's linspace call for that axis alone to dividing first.
    rng = np.random.default_rng(10 * dims + factor)
    lo = np.array([-1.0, 16.0, 0.0])[:dims]
    hi = np.array([1.0, 17.0, 1e-3])[:dims]
    centers = rng.uniform(lo, hi, (40, dims))
    centers[:4], centers[4:8] = lo, hi
    half = (hi - lo) / 12 if cells == "clipped" else np.zeros(dims)
    a, b = _cells(lo, hi, centers, half)
    if cells == "degenerate":
        assert (a[:, 0] < b[:, 0]).all()
        assert dims == 1 or (a[:, 1] == b[:, 1]).all()
    count = 2 * factor + 1
    level = Level.of_boxes(a, b, (count,) * dims)
    assert level.points.tobytes() == cell_points(a, b, count).tobytes()
    assert _mesh_points(level.mesh).tobytes() == level.points.tobytes()
    for d, x in enumerate(level.mesh):
        assert x.shape == (40,) + (1,) * d + (count,) + (1,) * (dims - 1 - d)


def _cells(lo, hi, centers, half):
    """Refinement cells as grid_min builds them, clipped at ``lo`` and
    ``hi``, a degenerate cell widened by 1e-15 on each side."""
    a = np.maximum(lo, centers - half)
    b = np.minimum(hi, centers + half)
    same = a == b
    return (np.where(same, np.maximum(lo, a - 1e-15), a),
            np.where(same, np.minimum(hi, b + 1e-15), b))


@settings(max_examples=60, deadline=None)
@given(dims=st.integers(1, 3), kind=st.sampled_from(["coarse", "clipped",
                                                     "degenerate"]),
       factor=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_level_points_and_coords_match_gathered_points(dims, kind, factor,
                                                       seed):
    rng = np.random.default_rng(seed)
    lo = np.array([-1.0, 16.0, 0.0])[:dims]
    hi = np.array([1.0, 17.0, 1e-3])[:dims]
    if kind == "coarse":
        axes = [(a, b, int(c)) for a, b, c in zip(lo, hi,
                                                  rng.integers(2, 12, dims))]
        level = Level.of_boxes(lo[None], hi[None], [c for _, _, c in axes])
        want = coarse_points(axes)
    else:
        centers = rng.uniform(lo, hi, (int(rng.integers(1, 30)), dims))
        centers[rng.random(len(centers)) < 0.2] = lo  # clipped at both ends
        half = ((hi - lo) / rng.uniform(4, 40) if kind == "clipped"
                else np.zeros(dims))
        a, b = _cells(lo, hi, centers, half)
        count = 2 * factor + 1
        level = Level.of_boxes(a, b, (count,) * dims)
        want = cell_points(a, b, count)
    n = len(want)
    picks = rng.integers(0, n, 17)
    # Coordinates come from the mesh before and after the points are built.
    coords = [level.coords(picks)] + [level.coords(int(k)) for k in picks]
    assert level.shape == want.shape
    assert level.points.tobytes() == want.tobytes()
    assert coords[0].tobytes() == level.points[picks].tobytes()
    for k, got in zip(picks, coords[1:]):
        assert got.tobytes() == level.points[k].tobytes()
    assert level.coords(np.arange(n)).tobytes() == want.tobytes()
    # A level of the same points as one-point boxes reads them back.
    boxes = Level.of_points(want[picks])
    assert boxes.coords(np.arange(17)).tobytes() == want[picks].tobytes()
    assert _mesh_points(boxes.mesh).tobytes() == want[picks].tobytes()


def test_mesh_margin_leaves_the_level_points_unbuilt():
    # A separable 2-D margin reads the mesh alone: grid_min reads the argmin
    # and the refinement centers from the mesh too, so no level stacks its
    # points, and the certificate is the scalar form's.
    levels = []

    def f(level):
        levels.append(level)
        x, y = level.mesh
        return (np.sin(3 * x) * np.cos(2 * y) + 1.5).reshape(-1)

    grid = GridSpec.box([(0, 2, 33), (0, 2, 17)], depth=3)
    cert = grid_min(f, grid, batched=True)
    assert len(levels) == 4
    assert all(level._points is None for level in levels)
    assert cert == grid_min(lambda x, y: math.sin(3 * x) * math.cos(2 * y)
                            + 1.5, grid)


@pytest.mark.parametrize("name", ["isotopy.json", "concordance_bump.json"])
def test_shipped_runs_stack_no_two_axis_points(tmp_path, monkeypatch, name):
    # The isotopy path margin and the concordance theta margins read their
    # levels' meshes; only a one-axis level's points (a view) are read.
    import json

    from conftest import ROOT
    from riccicert.cli import run_scenario

    stacked, points = [], Level.points

    def spied(level):
        if level._points is None:
            stacked.append(level.shape)
        return points.fget(level)

    monkeypatch.setattr(Level, "points", property(spied))
    scenario = json.loads((ROOT / "scenarios" / name).read_text())
    assert run_scenario(scenario, tmp_path)[0] == 0
    assert stacked == []


def test_grid_spec_validation():
    with pytest.raises(PreconditionError):
        GridSpec.line(1.0, 0.0, 10)
    with pytest.raises(PreconditionError):
        GridSpec.line(0.0, 1.0, 1)
    with pytest.raises(PreconditionError):
        GridSpec(((0.0, 1.0, 4),), depth=-1)
    with pytest.raises(PreconditionError):
        GridSpec(((0.0, 1.0, 4),), factor=1)
    with pytest.raises(PreconditionError):
        GridSpec.line(0.0, 1.0, np.iinfo(np.intp).max + 1)
    # A refined cell is sampled at 2 * factor + 1 points per axis.
    GridSpec.line(0.0, 1.0, 3, factor=np.iinfo(np.intp).max // 2)
    with pytest.raises(PreconditionError, match="refinement factor must be <="):
        GridSpec.line(0.0, 1.0, 3, factor=2**62)


@pytest.mark.parametrize("factor, deepest", [(2, 53), (3, 33), (4, 27),
                                             (2**52, 2), (2**53, 1)])
def test_grid_depth_stops_at_float64_resolution(factor, deepest):
    # (depth - 1) * log2(factor) <= 52: a deeper level's cells would be
    # finer than 2**-52 of the coarse step.
    GridSpec(((0.0, 1.0, 4),), deepest, factor)
    for depth in (deepest + 1, 10**400):
        with pytest.raises(PreconditionError, match=f"<= {deepest} with"):
            GridSpec(((0.0, 1.0, 4),), depth, factor)


def level_sizes(counts, depth, factor):
    """Points of each scan level: the product of the counts, then per
    refinement depth ceil(5%) of the level before times a cell of
    (2 factor + 1)**dims points."""
    sizes = [math.prod(counts)]
    for _ in range(depth):
        sizes.append(-(-sizes[-1] // 20) * (2 * factor + 1) ** len(counts))
    return sizes


def test_level_sizes_are_what_grid_min_scans():
    scanned = []

    def margin(level):
        scanned.append(level.shape[0])
        return np.ones(level.shape[0])

    for counts, depth, factor in [((30, 20), 3, 2), ((101,), 4, 4),
                                  ((7, 9, 5), 2, 3)]:
        scanned.clear()
        grid = GridSpec.box([(0.0, 1.0, c) for c in counts], depth, factor)
        grid_min(margin, grid, batched=True)
        assert scanned == level_sizes(counts, depth, factor)


@pytest.mark.parametrize("counts, depth, factor", [
    ((None,), 0, 4),          # the coarse level
    ((64, None), 2, 2),       # isotopy's shape: the second refinement level
    ((None, 160), 1, 4),      # concordance's shape: the refinement level
])
def test_a_level_just_over_the_scan_budget_is_refused_before_any_scan(
        counts, depth, factor):
    def largest(free):
        return max(level_sizes([free if c is None else c for c in counts],
                               depth, factor))

    # The least free count whose largest level is over the budget.
    lo, hi = 2, MAX_SCAN_POINTS + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if largest(mid) <= MAX_SCAN_POINTS else (lo, mid)
    axes = [[(0.0, 1.0, lo - 1 if c is None else c) for c in counts],
            [(0.0, 1.0, lo if c is None else c) for c in counts]]
    _check_scan_budget(GridSpec.box(axes[0], depth, factor))

    def margin(level):
        raise AssertionError("a level was scanned")

    with pytest.raises(ScenarioError, match=(
            f"a scan level of {largest(lo)} points exceeds the budget of "
            f"{MAX_SCAN_POINTS} scan points")):
        grid_min(margin, GridSpec.box(axes[1], depth, factor), batched=True)


def test_bisect_threshold_from_both_sides():
    got = bisect_param(lambda x: x < 0.3, 0.0, 1.0, tol=1e-4)
    assert got <= 0.3 and got == pytest.approx(0.3, abs=1e-4)
    got = bisect_param(lambda x: x > 0.3, 1.0, 0.0, tol=1e-4)
    assert got >= 0.3 and got == pytest.approx(0.3, abs=1e-4)


def test_bisect_conservative_side():
    # the returned value must itself pass the predicate
    for thresh in (0.12345, 0.777):
        got = bisect_param(lambda x, t=thresh: x <= t, 0.0, 1.0, tol=1e-5)
        assert got <= thresh


def test_bisect_no_crossing():
    with pytest.raises(SearchError):
        bisect_param(lambda x: True, 0.0, 1.0, tol=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=1e-6, max_value=1e-3))
def test_bisect_accuracy_property(threshold, tol):
    got = bisect_param(lambda x: x <= threshold, 0.0, 1.0, tol=tol)
    assert got <= threshold
    assert threshold - got <= tol + 1e-12
