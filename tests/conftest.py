"""Shared seeded generators for randomized checks.

Every helper takes an explicit numpy Generator so individual tests stay
reproducible; nothing here touches global random state.
"""

import numpy as np

from fractalis import (
    ConstantField,
    LinCombField,
    TensorPolynomial,
    blend_operator,
    build_net,
    cell_map,
    grid_sup_norm,
    make_config,
    make_operator_config,
    multiplication_operator,
    operator_norms,
)


def random_net(rng, dim=None, max_cells=4):
    """Net with random bounds and knots drawn from a coarse lattice so the
    knots stay well separated."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    bounds, knots = [], []
    for _ in range(dim):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.5, 3.0))
        n_cells = int(rng.integers(2, max_cells + 1))
        lattice = np.linspace(lo, hi, 9)[1:-1]
        inner = np.sort(rng.choice(lattice, size=n_cells - 1, replace=False))
        bounds.append((lo, hi))
        knots.append([lo] + [float(t) for t in inner] + [hi])
    return build_net(bounds, knots)


def random_uniform_net(rng, dim=None, max_cells=4):
    """Net with uniformly spaced knots: every cell ratio equals 1/n."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    bounds, knots = [], []
    for _ in range(dim):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.5, 3.0))
        n_cells = int(rng.integers(2, max_cells + 1))
        bounds.append((lo, hi))
        knots.append([float(t) for t in np.linspace(lo, hi, n_cells + 1)])
    return build_net(bounds, knots)


def min_cell_ratio(net):
    return min(
        abs(cell_map(net, q, j).a)
        for q in range(1, net.dim + 1)
        for j in range(1, net.axes[q - 1].n_cells + 1)
    )


def eta(part, j: int, m: int) -> int:
    """Knot index adjacent cells agree on, for the longhand node-data
    references: for endpoint label m in {0, N}, odd j picks (j-1, j) and
    even j picks (j, j-1)."""
    n = part.n_cells
    if m not in (0, n):
        raise ValueError(f"endpoint label must be 0 or {n}, got {m}")
    if j % 2 == 1:
        return j - 1 if m == 0 else j
    return j if m == 0 else j - 1


def random_poly(rng, dim, degree=2, scale=1.0):
    coeffs = rng.uniform(-scale, scale, size=(degree + 1,) * dim)
    return TensorPolynomial(coeffs)


def random_alpha(rng, net, sup_target=None):
    """Constant or polynomial scale field with grid sup pinned to the target."""
    if sup_target is None:
        sup_target = float(rng.uniform(0.15, 0.55))
    if rng.random() < 0.5:
        return ConstantField(sup_target)
    poly = random_poly(rng, net.dim, degree=1)
    sup = grid_sup_norm(poly, net.box, 129)
    if sup < 1e-9:
        return ConstantField(sup_target)
    return LinCombField((sup_target / sup,), (poly,))


class PinnedBase:
    """f multiplied by the squared normalized coordinates.

    The factor is +1 at every box corner, so the product agrees with f
    exactly where admissibility requires it.
    """

    def __init__(self, f, box):
        self.f = f
        self.bounds = [(float(lo), float(hi)) for lo, hi in box.bounds]

    def _factor(self, coords):
        out = np.ones(np.shape(coords[0]))
        for (lo, hi), x in zip(self.bounds, coords):
            u = (2.0 * np.asarray(x, dtype=float) - (lo + hi)) / (hi - lo)
            out = out * u * u
        return out

    def __call__(self, point):
        coords = [np.asarray(float(v)) for v in point]
        return float(self._factor(coords)) * self.f(point)

    def eval_arrays(self, coords):
        return self._factor(coords) * self.f.eval_arrays(coords)


class BumpField:
    """Product of (1 - u_q^2) over normalized axes; zero on the box corners,
    peaking at the center."""

    def __init__(self, box):
        self.bounds = [(float(lo), float(hi)) for lo, hi in box.bounds]

    def __call__(self, point):
        return float(self.eval_arrays([np.asarray(float(v)) for v in point]))

    def eval_arrays(self, coords):
        out = np.ones(np.shape(coords[0]))
        for (lo, hi), x in zip(self.bounds, coords):
            u = (2.0 * np.asarray(x, dtype=float) - (lo + hi)) / (hi - lo)
            out = out * (1.0 - u * u)
        return out


def random_operator(rng, net):
    if rng.random() < 0.5:
        return blend_operator(float(rng.uniform(0.2, 1.0)))
    c = float(rng.uniform(-0.8, 0.8))
    b = LinCombField((1.0, c), (ConstantField(1.0), BumpField(net.box)))
    return multiplication_operator(b)


def random_config(rng, dim=None, max_cells=4, sup_target=None):
    """Admissible explicit-base configuration on a random net."""
    net = random_net(rng, dim=dim, max_cells=max_cells)
    f = random_poly(rng, net.dim)
    alpha = random_alpha(rng, net, sup_target=sup_target)
    return make_config(net, f, alpha, PinnedBase(f, net.box))


def conditioned_config(rng, dim=None, max_cells=4):
    """Config whose scale sup stays below the smallest cell ratio, so
    chain evaluations are free of floating-point orbit drift and node /
    seam values come out at machine precision."""
    net = random_net(rng, dim=dim, max_cells=max_cells)
    f = random_poly(rng, net.dim)
    cap = 0.8 * min_cell_ratio(net)
    target = min(float(rng.uniform(0.15, 0.55)), cap)
    alpha = random_alpha(rng, net, sup_target=target)
    return make_config(net, f, alpha, PinnedBase(f, net.box))


def random_operator_setup(rng, dim=None, max_cells=4, max_rate=None):
    """(net, f, alpha, op) with an admissible operator; when max_rate is
    given the scale sup is shrunk until the inversion contraction bound
    sits below it."""
    net = random_net(rng, dim=dim, max_cells=max_cells)
    f = random_poly(rng, net.dim)
    op = random_operator(rng, net)
    sup_target = float(rng.uniform(0.15, 0.55))
    if max_rate is not None:
        _, norm_idd = operator_norms(op, net)
        if norm_idd > 0:
            cap = max_rate / (max_rate + norm_idd)
            sup_target = min(sup_target, 0.9 * cap)
    alpha = random_alpha(rng, net, sup_target=sup_target)
    return net, f, alpha, op


def check_resolution(dim):
    """Grid sizes that keep dense mesh checks fast in higher dimensions."""
    return {1: 257, 2: 65}.get(dim, 17)
