"""Net geometry: boxes, partitions, cell maps, locate."""

import numpy as np
import pytest

from conftest import random_net
from fractalis import (
    build_net,
    cell_map,
    jacobian_sum,
    node_arrays,
    node_points,
)
from fractalis.net import _inverse_step, _locate_arrays


def _apply(m, t):
    """Image of t under the cell map m."""
    return m.a * t + m.b


def _pull_back(net, m, ys):
    """Preimages of the values ``ys`` on the axis of the cell map ``m``,
    by the chain's inverse step."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    coords = [ys if q == m.axis else np.full(ys.shape, part.lo)
              for q, part in enumerate(net.axes, start=1)]
    cells = [np.full(ys.shape, m.j - 1 if q == m.axis else 0)
             for q in range(1, net.dim + 1)]
    return _inverse_step(net, coords, cells)[m.axis - 1]


def _locate(net, point):
    """1-based cell multi-index of one point."""
    cells = _locate_arrays(net, [np.asarray([float(t)]) for t in point])
    return tuple(int(c[0]) + 1 for c in cells)


def test_build_net_validation():
    with pytest.raises(ValueError):
        build_net([(0.0, 1.0)], [[0.0, 1.0]])  # needs at least 3 knots
    with pytest.raises(ValueError):
        build_net([(0.0, 1.0)], [[0.0, 0.6, 0.5, 1.0]])  # not increasing
    with pytest.raises(ValueError):
        build_net([(0.0, 1.0)], [[0.1, 0.5, 1.0]])  # first knot must hit lo
    with pytest.raises(ValueError):
        build_net([(1.0, 0.0)], [[1.0, 0.5, 0.0]])  # inverted bounds
    with pytest.raises(ValueError):
        build_net([(0.0, 1.0), (0.0, 1.0)], [[0.0, 0.5, 1.0]])  # knots per axis


def test_cell_map_endpoints_follow_parity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        net = random_net(rng)
        for q in range(1, net.dim + 1):
            part = net.axes[q - 1]
            for j in range(1, part.n_cells + 1):
                m = cell_map(net, q, j)
                if j % 2 == 1:
                    assert _apply(m, part.lo) == pytest.approx(part.knots[j - 1])
                    assert _apply(m, part.hi) == pytest.approx(part.knots[j])
                else:
                    assert _apply(m, part.lo) == pytest.approx(part.knots[j])
                    assert _apply(m, part.hi) == pytest.approx(part.knots[j - 1])
                assert abs(m.a) < 1.0


def test_cell_map_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_net(rng)
        for q in range(1, net.dim + 1):
            part = net.axes[q - 1]
            ts = rng.uniform(part.lo, part.hi, size=17)
            for j in range(1, part.n_cells + 1):
                m = cell_map(net, q, j)
                back = _pull_back(net, m, _apply(m, ts))
                np.testing.assert_allclose(back, ts, atol=1e-12)


def test_locate_interior_knot_goes_right():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    assert _locate(net, (0.49,)) == (1,)
    assert _locate(net, (0.5,)) == (2,)
    assert _locate(net, (0.0,)) == (1,)
    assert _locate(net, (1.0,)) == (2,)


def test_map_and_inverse_point_consistency():
    rng = np.random.default_rng(5)
    net = random_net(rng, dim=2)
    cells = (1, 2)
    pt = tuple(rng.uniform(part.lo, part.hi) for part in net.axes)
    y = tuple(_apply(cell_map(net, q, j), t)
              for q, (j, t) in enumerate(zip(cells, pt), start=1))
    back = [float(_pull_back(net, cell_map(net, q, j), t)[0])
            for q, (j, t) in enumerate(zip(cells, y), start=1)]
    np.testing.assert_allclose(back, pt, atol=1e-12)
    # the image lands inside the target cell along each axis
    for q, j in enumerate(cells):
        knots = net.axes[q].knots
        lo, hi = sorted((knots[j - 1], knots[j]))
        assert lo - 1e-12 <= y[q] <= hi + 1e-12


def test_inverse_oracle_values():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    m1 = cell_map(net, 1, 1)
    m2 = cell_map(net, 1, 2)
    assert _pull_back(net, m1, 0.25)[0] == pytest.approx(0.5)
    assert _pull_back(net, m2, 0.75)[0] == pytest.approx(0.5)
    assert _pull_back(net, m1, 0.5)[0] == pytest.approx(1.0)
    assert _pull_back(net, m2, 0.5)[0] == pytest.approx(1.0)
    # drift just past the endpoint clamps
    assert _pull_back(net, m1, 0.5 + 1e-15)[0] == 1.0


def test_locate_after_map_recovers_cell():
    rng = np.random.default_rng(21)
    for _ in range(20):
        net = random_net(rng)
        pt = tuple(
            rng.uniform(part.lo + 1e-3, part.hi - 1e-3) for part in net.axes
        )
        cells = tuple(
            int(rng.integers(1, part.n_cells + 1)) for part in net.axes
        )
        y = tuple(_apply(cell_map(net, q, j), t)
                  for q, (j, t) in enumerate(zip(cells, pt), start=1))
        assert _locate(net, y) == cells


def test_jacobian_sum_is_one():
    rng = np.random.default_rng(13)
    for _ in range(100):
        net = random_net(rng)
        assert jacobian_sum(net) == pytest.approx(1.0, abs=1e-12)


def test_node_enumeration():
    net = build_net([(0.0, 1.0), (0.0, 2.0)],
                    [[0.0, 0.5, 1.0], [0.0, 1.0, 1.5, 2.0]])
    axes = node_arrays(net)
    assert [len(a) for a in axes] == [3, 4]
    pts = node_points(net)
    assert pts.shape == (12, 2)
    # first axis varies fastest
    assert pts[0].tolist() == [0.0, 0.0]
    assert pts[1].tolist() == [0.5, 0.0]
    assert pts[3].tolist() == [0.0, 1.0]


def test_box_corners_and_contains():
    net = build_net([(0.0, 1.0), (-1.0, 1.0)],
                    [[0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]])
    corners = net.box.corners()
    assert corners.shape == (4, 2)
    assert net.box.contains((0.5, 0.0))
    assert net.box.contains((1.0 + 1e-13, 1.0))  # tolerance at the skin
    assert not net.box.contains((1.1, 0.0))
