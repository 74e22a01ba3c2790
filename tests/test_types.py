"""Semantics of the public result and record types: repr text, equality,
hashing, immutability and field order.

Each factory builds a fresh instance on every call, so equality is tested
between two objects built apart.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import metricdim as md
from metricdim.formulas import recognize

STAR = md.build_graph(4, [(0, 1), (1, 2), (1, 3)])
TRIANGLE = md.build_graph(3, [(0, 1), (1, 2), (0, 2)])

# (factory, exact repr, hashable)
CASES = {
    "Graph": (
        lambda: md.build_graph(4, [(0, 1), (1, 2), (1, 3)]),
        "Graph(n=4, adj_bits=(2, 13, 2, 2), m=3, had_duplicate_edges=False)",
        True,
    ),
    "DistanceMatrix": (
        lambda: md.all_pairs_distances(STAR),
        "DistanceMatrix(n=4, rows=((0, 1, 2, 2), (1, 0, 1, 1), (2, 1, 0, 2), (2, 1, 2, 0)),"
        " ecc=(2, 1, 2, 2), rad=1, diam=2)",
        True,
    ),
    "TwinPartition": (
        lambda: md.twin_partition(STAR),
        "TwinPartition(classes=((0, 2, 3), (1,)))",
        True,
    ),
    "ResolvingCertificate": (
        lambda: md.check_resolving(STAR, md.all_pairs_distances(STAR), [0]),
        "ResolvingCertificate(set=(0,), codes={0: (0,), 1: (1,), 2: (2,), 3: (2,)},"
        " resolving=False, witness_pair=(2, 3))",
        False,
    ),
    "VertexProfile": (
        lambda: md.vertex_profile(STAR),
        "VertexProfile(per_vertex=(3, 3, 3, 3), rrad=3, rdiam=3, rc=(0, 1, 2, 3), rp=(0, 1, 2, 3))",
        True,
    ),
    "FamilySpec": (
        lambda: md.parse_spec("wheel:5"),
        "FamilySpec(kind='wheel', params=(5,))",
        True,
    ),
    "FrLevel": (
        lambda: md.FrLevel(x=True),
        "FrLevel(x=True, y=False, z=False, y_attach='auto', intra=frozenset())",
        True,
    ),
    "FormulaResult": (
        lambda: md.dim_formula(STAR),
        "FormulaResult(value=2, case_label='tree', theorem_id='tree-dim')",
        True,
    ),
    "TreeSkeleton": (
        lambda: md.tree_skeleton(STAR),
        "TreeSkeleton(n=4, is_path=False, sigma=3, ex=1, terminal_degree={1: 3},"
        " legs={1: ((0,), (2,), (3,))}, m1=frozenset(), m2=frozenset({1}), dset=frozenset(),"
        " gamma=frozenset({0, 1, 2, 3}), zone=('gamma', 'gamma', 'gamma', 'gamma'))",
        False,
    ),
    "Recognized": (
        lambda: recognize(STAR),
        "Recognized(kind='tree', data={})",
        False,
    ),
    "ExtremesClassification": (
        lambda: md.classify_extremes(STAR, 0),
        "ExtremesClassification(cdim_is_one=False, cdim_is_n_minus_one=True, graph_case='star',"
        " vertex=0, cdim_at_is_one=False, cdim_at_is_n_minus_one=True, vertex_case='star')",
        True,
    ),
    "FrMembership": (
        lambda: md.fr_membership(TRIANGLE),
        "FrMembership(member=True, r=1, base_pair=(0, 1), roles={0: 'u', 1: 'w', 2: 'y1'},"
        " refutations=None)",
        False,
    ),
    "UnicyclicClassification": (
        lambda: md.unicyclic_cdim_eq_dim(md.generate("sun:3:1,0,0")[0]),
        "UnicyclicClassification(equal=True, case='U1', cycle=(0, 1, 2))",
        True,
    ),
}
NAMES = list(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    make, text, _ = CASES[name]
    obj = make()
    assert type(obj).__name__ == name
    assert repr(obj) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_instances_compare_and_hash_equal(name):
    make, _, hashable = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        # A dict field makes the record unhashable, as a tuple holding a dict is.
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name, other", zip(NAMES, NAMES[1:] + NAMES[:1]))
def test_instances_of_different_types_compare_unequal(name, other):
    a, b = CASES[name][0](), CASES[other][0]()
    assert a != b and b != a and not a == b


def test_graph_equality_reads_every_field():
    g = STAR
    assert g != md.build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert md.build_graph(3, [(0, 1), (1, 2)]) != md.build_graph(3, [(0, 1), (0, 1), (1, 2)])
    # Graph and DistanceMatrix are not tuples: a tuple of the same fields is not equal.
    assert g != (g.n, g.adj_bits, g.m, g.had_duplicate_edges)
    dm = md.all_pairs_distances(g)
    assert dm != (dm.n, dm.rows, dm.ecc, dm.rad, dm.diam)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise_attribute_error(name):
    obj = CASES[name][0]()
    field = repr(obj).split("(", 1)[1].split("=", 1)[0]
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert repr(obj) == before


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_compare_equal(name):
    obj = CASES[name][0]()
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


RECORDS = [name for name in NAMES if name not in ("Graph", "DistanceMatrix")]


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples(name):
    obj = CASES[name][0]()
    values = tuple(obj._asdict().values())
    assert tuple(type(obj)._fields) == tuple(obj._asdict())
    assert obj == values and tuple(obj) == values
    assert obj[0] == values[0] and len(obj) == len(values)
    first, *rest = obj
    assert (first, *rest) == values


def test_graph_and_distance_matrix_are_slotted():
    dm = md.all_pairs_distances(STAR)
    for obj in (STAR, dm):
        assert not isinstance(obj, tuple) and not hasattr(obj, "__dict__")


def test_field_order_of_profile_and_formula_result():
    prof = md.vertex_profile(STAR)
    assert prof._asdict() == {
        "per_vertex": (3, 3, 3, 3), "rrad": 3, "rdiam": 3, "rc": (0, 1, 2, 3), "rp": (0, 1, 2, 3),
    }
    assert list(prof._asdict()) == ["per_vertex", "rrad", "rdiam", "rc", "rp"]
    res = md.dim_formula(STAR)
    assert list(res._asdict()) == ["value", "case_label", "theorem_id"]
    assert res._asdict() == {"value": 2, "case_label": "tree", "theorem_id": "tree-dim"}
