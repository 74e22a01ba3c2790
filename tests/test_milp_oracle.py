"""A second ``dim`` oracle beyond the search caps: the integer program of
Chartrand, Eroh, Johnson and Oellermann (Discrete Appl. Math. 2000).

Minimise the number of chosen vertices subject to, for every vertex pair
(u, w), at least one chosen vertex v with d(v, u) != d(v, w).  SciPy's
``milp`` solves it; the optimum must equal the closed form and the chosen set
must resolve the graph.  SciPy is needed only here.
"""

from __future__ import annotations

import itertools

import pytest

import metricdim as md
from metricdim.graph import CAPS

optimize = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")


def milp_dim(g: md.Graph, dm: md.DistanceMatrix) -> tuple[int, tuple[int, ...]]:
    rows = np.array(dm.rows)
    pairs = list(itertools.combinations(range(g.n), 2))
    # Row (u, w) marks every v with d(v, u) != d(v, w); distances are symmetric.
    a = np.array([rows[u] != rows[w] for u, w in pairs], dtype=float)
    res = optimize.milp(
        c=np.ones(g.n),
        constraints=optimize.LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(g.n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    chosen = tuple(v for v in range(g.n) if res.x[v] > 0.5)
    assert len(chosen) == round(res.fun)
    return len(chosen), chosen


@pytest.mark.parametrize("spec", ["randtree:80:3", "grid:10x10", "bouquet:5,6,7,8,9",
                                  "multipartite:3,3,4,5,6"])
def test_milp_dim_matches_the_closed_form(spec):
    g, _ = md.generate(spec)
    dm = md.all_pairs_distances(g)
    value, chosen = milp_dim(g, dm)
    assert value == md.dim_formula(g).value
    assert md.check_resolving(g, dm, chosen).resolving
    if g.n <= CAPS["solver"]:
        assert value == md.dim_exact(g, dm).value
