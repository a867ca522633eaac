import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from gramcalc import structures
from gramcalc.errors import BoundExceeded, NotAPermutation, UnknownFamily
from gramcalc.families import family_number, family_poly
from gramcalc.laurent import LaurentPoly, parse_poly
from gramcalc.structures import (
    STRUCTURE_KINDS,
    _binary_pairs,
    _des_pairs,
    _down_pairs,
    _forest_pairs,
    _ipk_pairs,
    _jv_pairs,
    _lpk_pairs,
    _pairs_012,
    _perm_tally,
    _rpk_pairs,
    _tally,
    _up_pairs,
    alternating_count,
    binary_degree_counts,
    count_structures,
    dumont_plane_oracle,
    enumerate_structures,
    family_poly_oracle,
    format_labeling,
    inc_binary_trees,
    jv_empty_leaves,
    jv_forests,
    jv_trees,
    label_permutation,
    perm_stats,
    plane_012_trees,
    plane_leaf_counts,
    planted_forests,
    structure_to_json,
    tree_012_trees,
    tree_degree_counts,
    tree_leaf_count,
)

from conftest import in_threads


def test_perm_stats_worked_example():
    record = perm_stats((3, 1, 4, 5, 6, 2))
    assert (record.lpk, record.ipk, record.lrpk) == (2, 1, 2)
    assert (record.des, record.asc) == (2, 3)


def test_perm_stats_identity_permutation():
    record = perm_stats(tuple(range(1, 7)))
    assert (record.lpk, record.ipk, record.lrpk) == (0, 0, 1)
    assert record.des == 0 and record.asc == 5


def test_perm_stats_two_one():
    record = perm_stats((2, 1))
    assert (record.lpk, record.ipk, record.lrpk) == (1, 0, 1)


def test_perm_stats_des_plus_asc():
    for perm in enumerate_structures("permutations", 5):
        record = perm_stats(perm)
        assert record.des + record.asc == 4


def test_perm_stats_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        perm_stats((1, 3))
    with pytest.raises(NotAPermutation):
        perm_stats(())


def test_labelings_worked_examples():
    perm = (3, 1, 4, 5, 6, 2)
    labels, weight = label_permutation(perm, "L")
    assert format_labeling(perm, labels) == "0 x 3 x 1 y 4 y 5 x 6 x 2 x 0"
    assert weight == parse_poly("x^5*y^2")
    labels, weight = label_permutation(perm, "M")
    assert format_labeling(perm, labels) == "0 x 3 y 1 y 4 y 5 x 6 x 2 x 0"
    assert weight == parse_poly("x^4*y^3")
    labels, weight = label_permutation(perm, "W")
    assert format_labeling(perm, labels) == "0 x 3 x 1 y 4 y 5 x 6 x 2 y 0"
    assert weight == parse_poly("x^4*y^3")
    labels, weight = label_permutation((1,), "W")
    assert format_labeling((1,), labels) == "0 x 1 x 0"
    assert weight == parse_poly("x^2")
    labels, weight = label_permutation((2, 1), "M")
    assert format_labeling((2, 1), labels) == "0 x 2 y 1 x 0"
    assert weight == parse_poly("x^2*y")


def test_label_statistic_consistency():
    for n in range(1, 9):
        for perm in enumerate_structures("permutations", n):
            record = perm_stats(perm)
            for scheme, expected_x in (
                ("L", 2 * record.lpk + 1),
                ("M", 2 * record.ipk + 2),
                ("W", 2 * record.lrpk),
            ):
                _, weight = label_permutation(perm, scheme)
                assert weight.degree_in("x") == expected_x, (perm, scheme)


def test_structure_counts():
    assert count_structures("inc_binary", 3) == 6
    assert count_structures("jv_tree", 2) == 4
    assert count_structures("tree_012", 4) == 5
    for n in range(1, 7):
        assert count_structures("inc_binary", n) == factorial(n)
        assert count_structures("permutations", n) == factorial(n)
        assert count_structures("planted_forest", n) == factorial(n)
    # 0-1-2 trees counted with unit weights give the alternating numbers
    for n in range(1, 8):
        assert count_structures("tree_012", n) == family_number("euler", n)
    # jv forests counted give the Springer numbers
    for n in range(0, 7):
        assert count_structures("jv_forest", n) == family_number("springer", n)
    # jv trees counted give 2^n times the alternating numbers
    for n in range(0, 7):
        assert count_structures("jv_tree", n) == family_number("p_at_one", n)


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_count_structures_matches_enumeration(kind):
    for n in range(8):
        assert count_structures(kind, n) == sum(1 for _ in enumerate_structures(kind, n)), n


def test_enumeration_is_duplicate_free():
    for kind in ("inc_binary", "plane_012", "tree_012", "jv_tree", "jv_forest",
                 "planted_forest"):
        seen = list(enumerate_structures(kind, 4))
        assert len(seen) == len(set(seen)), kind


def test_bound_enforced():
    with pytest.raises(BoundExceeded):
        list(enumerate_structures("permutations", 10))
    with pytest.raises(BoundExceeded):
        family_poly_oracle("eulerian_biv", 10)
    # explicit override allows it
    assert count_structures("tree_012", 10, bound=10) == family_number("euler", 10)


def test_oracle_worked_examples():
    assert family_poly_oracle("deriv_P", 2) == parse_poly("2*x + 2*x^3")
    assert family_poly_oracle("dumont", 2) == parse_poly("2*u*v")
    assert family_poly_oracle("deriv_Q", 1) == parse_poly("x")
    assert family_poly_oracle("eulerian_biv", 2) == parse_poly("x*y^2 + x^2*y")


@pytest.mark.parametrize("name,lo", [
    ("eulerian_biv", 1), ("eulerian_uni", 1),
    ("left_peak_biv", 0), ("left_peak_uni", 0),
    ("interior_peak_biv", 1), ("interior_peak_uni", 1),
    ("lr_peak_biv", 0), ("lr_peak_uni", 0),
    ("R_family", 0),
    ("dumont", 1), ("andre_biv", 0), ("andre_uni", 0),
    ("deriv_P", 0), ("deriv_Q", 0), ("planted_forest", 0),
])
def test_oracle_equals_grammar_small(name, lo):
    for n in range(lo, 7):
        assert family_poly_oracle(name, n) == family_poly(name, n), (name, n)


def test_plane_route_equals_binary_route():
    for n in range(1, 7):
        assert dumont_plane_oracle(n) == family_poly("dumont", n)


def test_plane_leaf_counts():
    assert plane_leaf_counts(1) == {1: 1}
    assert plane_leaf_counts(3) == {1: 1, 2: 2}
    assert plane_leaf_counts(4) == {1: 1, 2: 8}


def test_alternating_counts():
    assert [alternating_count(n) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]


def test_oracle_range_guards():
    with pytest.raises(ValueError):
        family_poly_oracle("eulerian_biv", 0)
    with pytest.raises(ValueError):
        family_poly_oracle("dumont", 0)
    with pytest.raises(UnknownFamily):
        family_poly_oracle("nosuch", 2)


def test_jv_weights():
    # the four two-label trees: two with one empty leaf, two with three
    leaves = sorted(jv_empty_leaves(t) for t in enumerate_structures("jv_tree", 2))
    assert leaves == [1, 1, 3, 3]


def test_degree_counts_partition_the_vertices():
    from gramcalc.structures import binary_degree_counts, tree_degree_counts

    for n in range(1, 6):
        for kind in ("plane_012", "tree_012"):
            for tree in enumerate_structures(kind, n):
                assert sum(tree_degree_counts(tree)) == n, (kind, tree)
        for tree in enumerate_structures("inc_binary", n):
            assert sum(binary_degree_counts(tree)) == n


def test_jv_empty_leaf_count_relation():
    # a complete binary shape forces #empty = n + 1 - 2 * (#bare labeled leaves)
    from gramcalc.structures import jv_trees

    def bare_leaves(tree):
        if tree is None:
            return 0
        _, children = tree
        if not children:
            return 1
        return sum(bare_leaves(c) for c in children)

    for n in range(0, 6):
        for tree in jv_trees(tuple(range(1, n + 1))):
            assert jv_empty_leaves(tree) == n + 1 - 2 * bare_leaves(tree)


def test_structure_json():
    trees = list(enumerate_structures("jv_tree", 1))
    payloads = [structure_to_json("jv_tree", t) for t in trees]
    assert [1, []] in payloads
    assert [1, [[None, []], [None, []]]] in payloads
    for kind in ("inc_binary", "plane_012", "tree_012", "jv_tree", "jv_forest",
                 "planted_forest", "permutations"):
        for structure in enumerate_structures(kind, 3):
            text = json.dumps(structure_to_json(kind, structure))
            assert json.loads(text) is not None


# -- reference enumerators: the plain recursive algorithms, kept to pin the
# order and content of enumerate_structures --------------------------------


def _ref_subsets(items):
    m = len(items)
    for mask in range(1 << m):
        chosen = tuple(items[i] for i in range(m) if mask >> i & 1)
        rest = tuple(items[i] for i in range(m) if not mask >> i & 1)
        yield chosen, rest


def _ref_inc_binary(labels):
    if not labels:
        yield None
        return
    root, rest = labels[0], labels[1:]
    for left_set, right_set in _ref_subsets(rest):
        for left in _ref_inc_binary(left_set):
            for right in _ref_inc_binary(right_set):
                yield (root, left, right)


def _ref_012(labels, ordered):
    if not labels:
        return
    root, rest = labels[0], labels[1:]
    if not rest:
        yield (root, ())
        return
    for child in _ref_012(rest, ordered):
        yield (root, (child,))
    for first, second in _ref_subsets(rest):
        if not (first and second) or not (ordered or rest[0] in first):
            continue
        for a in _ref_012(first, ordered):
            for b in _ref_012(second, ordered):
                yield (root, (a, b))


def _ref_jv(labels):
    if not labels:
        yield None
        return
    root, rest = labels[0], labels[1:]
    if not rest:
        yield (root, ())
        yield (root, (None, None))
        return
    for left_set, right_set in _ref_subsets(rest):
        for left in _ref_jv(left_set):
            for right in _ref_jv(right_set):
                yield (root, (left, right))


def _ref_partitions(labels):
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for sub in _ref_partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


def _ref_forests(labels, trees):
    for partition in _ref_partitions(labels):
        options = [[(block[0], sub) for sub in trees(block[1:])] for block in partition]
        yield from itertools.product(*options)


def _reference(kind, n):
    labels = tuple(range(1, n + 1))
    return {
        "permutations": lambda: itertools.permutations(labels),
        "inc_binary": lambda: _ref_inc_binary(labels) if n else iter(()),
        "plane_012": lambda: _ref_012(labels, True),
        "tree_012": lambda: _ref_012(labels, False),
        "jv_tree": lambda: _ref_jv(labels),
        "jv_forest": lambda: _ref_forests(labels, _ref_jv),
        "planted_forest": lambda: _ref_forests(labels, _ref_inc_binary),
    }[kind]()


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_enumeration_matches_reference(kind):
    for n in range(0, 8):
        assert list(enumerate_structures(kind, n)) == list(_reference(kind, n)), (kind, n)


def _forest_counter(width, forests, block_exponents):
    """Tree-built tally: a forest weighs the product of its blocks' weights."""
    tally = Counter()
    for forest in forests:
        exps = [0] * width
        for _, sub in forest:
            exps = [a + b for a, b in zip(exps, block_exponents(sub))]
        tally[tuple(exps)] += 1
    return tally


def _forest_poly(variables, forests, block_exponents):
    tally = _forest_counter(len(variables), forests, block_exponents)
    return LaurentPoly(variables, {e: Fraction(c) for e, c in tally.items()})


def _planted_block_exponents(sub):
    if sub is None:
        return (1, 0)  # a lone root weighs v
    f0, f1, _ = binary_degree_counts(sub)
    return (f1, f0)


def _planted_leaves(forest):
    return sum(binary_degree_counts(sub)[0] for _, sub in forest)


def _ordered(tally):
    """A tally's items in their order, which == on dicts and Counters ignores."""
    return list(tally.items())


def test_stat_routes_match_tree_routes():
    for n in range(0, 9):
        labels = tuple(range(1, n + 1))
        # the tree walkers tally leaf counts in the order their enumerator first meets them
        jv = Counter(jv_empty_leaves(t) for t in jv_trees(labels))
        assert _ordered(_tally(_jv_pairs, n)) == _ordered(jv), n
        binary = [binary_degree_counts(t) for t in inc_binary_trees(labels)]
        assert _ordered(_tally(_binary_pairs, n)) == _ordered(Counter(f0 for f0, _, _ in binary)), n
        for ordered, trees in ((True, plane_012_trees), (False, tree_012_trees)):
            counts = [tree_degree_counts(t) for t in trees(labels)]
            stats = _ordered(_tally(_pairs_012(ordered), n))
            assert stats == _ordered(Counter(f0 for f0, _, _ in counts)), (n, ordered)
            # one edge per label but the root: the leaves fix the one-child count
            assert all(f1 == n + 1 - 2 * f0 for f0, f1, _ in counts), (n, ordered)
        if n:
            assert all(f1 == n + 1 - 2 * f0 for f0, f1, _ in binary), n
        # a planted forest has one edge per label but its roots; a lone root is one-child
        planted = list(planted_forests(labels))
        for forest in planted:
            one_child = sum(1 if sub is None else binary_degree_counts(sub)[1] for _, sub in forest)
            assert one_child == n - 2 * _planted_leaves(forest), forest
        # the forest walkers split off the first label's block, yet first meet
        # each value where _forests does
        walked = _tally(_forest_pairs(_binary_pairs), n)
        assert _ordered(walked) == _ordered(Counter(map(_planted_leaves, planted))), n
        jv = Counter(sum(jv_empty_leaves(sub) for _, sub in f) for f in jv_forests(labels))
        assert _ordered(_tally(_forest_pairs(_jv_pairs), n)) == _ordered(jv), n
        assert plane_leaf_counts(n) == dict(
            Counter(tree_leaf_count(t) for t in plane_012_trees(labels))
        ), n
        planted_poly = _forest_poly(("v", "u"), planted, _planted_block_exponents)
        assert family_poly_oracle("planted_forest", n) == planted_poly, n


_WALKERS = {
    "jv_tree": _jv_pairs,
    "inc_binary": _binary_pairs,
    "plane_012": _pairs_012(True),
    "tree_012": _pairs_012(False),
    "jv_forest": _forest_pairs(_jv_pairs),
    "planted_forest": _forest_pairs(_binary_pairs),
    "perm_des": _des_pairs,
    "perm_lpk": _lpk_pairs,
    "perm_rpk": _rpk_pairs,
    "perm_ipk": _ipk_pairs,
    "perm_down": _down_pairs,
    "perm_up": _up_pairs,
}


def test_walkers_are_one_per_argument():
    assert _pairs_012(True) is _WALKERS["plane_012"]
    assert _forest_pairs(_jv_pairs) is _WALKERS["jv_forest"]


def test_memoized_tallies_match_fresh_walks(monkeypatch):
    memoized = {(kind, n): list(_tally(walker, n).items()) for kind, walker in _WALKERS.items() for n in range(9)}
    for (kind, n), tally in memoized.items():
        monkeypatch.setattr(structures, "_TALLIES", {})
        assert list(_tally(_WALKERS[kind], n).items()) == tally, (kind, n)


def test_tally_is_handed_out_as_a_copy():
    first = _tally(_jv_pairs, 6)
    expected = dict(first)
    first.clear()
    first[99] = 1
    assert _tally(_jv_pairs, 6) == expected


def test_tally_memo_under_concurrent_fills(monkeypatch):
    # eight threads fill the walkers' tallies at once; each
    # mutates its copy, which must reach no other thread
    expected = {kind: _tally(walker, 8) for kind, walker in _WALKERS.items()}
    for _ in range(3):
        monkeypatch.setattr(structures, "_TALLIES", {})

        def fill(i):
            tallies = {kind: _tally(walker, 8 - i % 2) for kind, walker in _WALKERS.items()}
            for tally in tallies.values():
                tally[99] = i
            return {kind: _tally(walker, 8) for kind, walker in _WALKERS.items()}

        assert in_threads(fill) == [expected] * 8


def test_second_run_all_walks_no_tree_size(monkeypatch):
    from gramcalc.identities import run_all

    run_all()
    calls = []
    step = structures._step
    monkeypatch.setattr(structures, "_step", lambda *size: calls.append(size) or step(*size))
    run_all()
    assert calls == []


def _perm_references(perm):
    """Each permutation walker's statistic of perm, read off perm_stats; the
    alternation walkers by whether they are nonzero."""
    record = perm_stats(perm)
    complement = tuple(len(perm) + 1 - v for v in perm)  # down-up exactly when perm is
    return {
        _des_pairs: record.des,
        _binary_pairs: record.lrpk,  # the leaves of the in-order binary tree
        _lpk_pairs: record.lpk,
        _rpk_pairs: record.lrpk - (len(perm) == 1 or perm[0] > perm[1]),
        _ipk_pairs: record.ipk,
        _down_pairs: not perm_stats(complement).alternating,
        _up_pairs: not record.alternating,
    }


def _in_order(tree):
    """The permutation an increasing binary tree reads in order."""
    if tree is None:
        return ()
    label, left, right = tree
    return _in_order(left) + (label,) + _in_order(right)


def _as_reference(walker, references, k):
    """A walker's value k as references reads it: the alternation walkers by
    whether it is nonzero."""
    return bool(k) if type(references[walker]) is bool else k


def test_permutation_walkers_match_perm_stats_tally():
    # a walker tallies its statistic in the order the increasing binary trees
    # first meet it in the permutations they read in order
    for walker in (_des_pairs, _binary_pairs, _lpk_pairs, _rpk_pairs, _ipk_pairs, _down_pairs, _up_pairs):
        assert _tally(walker, 0) == {0: 1}  # the empty permutation
    for n in range(1, 9):
        perms = [_in_order(t) for t in inc_binary_trees(tuple(range(1, n + 1)))]
        assert sorted(perms) == list(itertools.permutations(range(1, n + 1)))
        references = list(map(_perm_references, perms))
        for walker in references[0]:
            tally = Counter()
            for k, count in _tally(walker, n).items():
                tally[_as_reference(walker, references[0], k)] += count
            assert _ordered(tally) == _ordered(Counter(r[walker] for r in references)), (walker, n)


def test_perm_tally_sums_coinciding_exponents():
    assert _perm_tally(_des_pairs, lambda n, des: (des > 0,))(4) == {(False,): 1, (True,): 23}


def test_permutation_tally_never_lists_the_top_size(monkeypatch):
    monkeypatch.setattr(structures, "_TALLIES", {})
    tracemalloc.start()
    try:
        tally = _tally(_ipk_pairs, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(tally.values()) == factorial(9)
    # the 362,880 statistics on 9 entries as one bytes object alone take 354
    # KiB, and as a list of ints about 2.9 MB
    assert peak < 1 << 19, peak


PERM_ORACLES = [
    "eulerian_biv", "eulerian_uni", "left_peak_biv", "left_peak_uni", "interior_peak_biv",
    "interior_peak_uni", "lr_peak_biv", "lr_peak_uni", "R_family",
]


def test_permutation_oracles_keep_no_statistic_per_permutation(monkeypatch):
    # the memos keep one (value, count) pair per statistic value and size, not
    # one entry per permutation of each size below n (9! = 362,880 at n = 10)
    family_poly_oracle("eulerian_biv", 3)  # the first call's lazy module state
    monkeypatch.setattr(structures, "_TALLIES", {})
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for name in PERM_ORACLES:
            family_poly_oracle(name, 10, bound=10)
        assert alternating_count(10, bound=10) == family_number("euler", 10)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10, retained


@pytest.mark.parametrize("name", structures._ORACLES)
def test_oracle_equals_grammar_past_the_enumeration_range(name):
    assert family_poly_oracle(name, 16, bound=16) == family_poly(name, 16)


def test_counts_past_the_enumeration_range():
    for n in range(31):
        assert alternating_count(n, bound=n) == family_number("euler", n), n
        assert count_structures("jv_forest", n, bound=n) == family_number("springer", n), n
        assert count_structures("permutations", n, bound=n) == factorial(n), n
        assert count_structures("inc_binary", n, bound=n) == (factorial(n) if n else 0), n


# exponents of one permutation's weight, read straight off its PermRecord
PERM_FAMILIES = {
    "eulerian_biv": (("x", "y"), lambda n, r: (r.des + 1, r.asc + 1)),
    "eulerian_uni": (("x",), lambda n, r: (r.des + 1,)),
    "left_peak_biv": (("x", "y"), lambda n, r: (2 * r.lpk + 1, n - 2 * r.lpk)),
    "left_peak_uni": (("x",), lambda n, r: (r.lpk,)),
    "interior_peak_biv": (("x", "y"), lambda n, r: (2 * r.ipk + 2, n - 2 * r.ipk - 1)),
    "interior_peak_uni": (("x",), lambda n, r: (r.ipk,)),
    "lr_peak_biv": (("x", "y"), lambda n, r: (2 * r.lrpk, n - 2 * r.lrpk + 1)),
    "lr_peak_uni": (("x",), lambda n, r: (r.lrpk,)),
}


def _direct_tally(name, n):
    variables, exponents = PERM_FAMILIES[name]
    perms = itertools.permutations(range(1, n + 1))
    tally = Counter(exponents(n, perm_stats(p)) for p in perms)
    return LaurentPoly(variables, {e: Fraction(c) for e, c in tally.items()})


@pytest.mark.parametrize("name", sorted(PERM_FAMILIES))
def test_permutation_oracles_match_direct_tally(name):
    for n in range(1, 8):
        assert family_poly_oracle(name, n) == _direct_tally(name, n), (name, n)


def test_r_family_and_alternating_match_direct_tally():
    for n in range(1, 8):
        assert family_poly_oracle("R_family", n) == (
            _direct_tally("left_peak_biv", n) + _direct_tally("lr_peak_biv", n)
        )
        perms = itertools.permutations(range(1, n + 1))
        assert alternating_count(n) == sum(perm_stats(p).alternating for p in perms)


# (family, structure kind, least n that is a weighted count, weightings per structure)
ORACLE_KINDS = [
    ("eulerian_biv", "permutations", 1, 1),
    ("eulerian_uni", "permutations", 1, 1),
    ("left_peak_biv", "permutations", 0, 1),
    ("left_peak_uni", "permutations", 0, 1),
    ("interior_peak_biv", "permutations", 1, 1),
    ("interior_peak_uni", "permutations", 1, 1),
    ("lr_peak_biv", "permutations", 0, 1),
    ("lr_peak_uni", "permutations", 0, 1),
    ("R_family", "permutations", 0, 2),
    ("dumont", "inc_binary", 1, 1),
    ("andre_biv", "tree_012", 1, 1),
    ("andre_uni", "tree_012", 1, 1),
    ("deriv_P", "jv_tree", 0, 1),
    ("deriv_Q", "jv_forest", 0, 1),
    ("planted_forest", "planted_forest", 0, 1),
]


@pytest.mark.parametrize("name,kind,lo,copies", ORACLE_KINDS)
def test_oracle_coefficient_sum_counts_structures(name, kind, lo, copies):
    for n in range(lo, 9):
        total = sum(family_poly_oracle(name, n).terms.values())
        assert total == copies * sum(1 for _ in enumerate_structures(kind, n)), (name, n)


def test_split_sizes_match_subsets():
    # a walker's class of each size stands for that many _subsets splits, and
    # the first split of size a is mask 2^a - 1, so the classes come in increasing a
    for m in range(2, 10):
        rest = tuple(range(2, m + 1))
        splits = [(len(c), len(r), rest[0] in c) for c, r in _ref_subsets(rest)]
        sizes = Counter(a for a, _, _ in splits)
        assert list(sizes) == list(range(m)), m
        assert [times for times, _, _, _ in _binary_pairs(m)] == [sizes[a] for a in range(m)], m
        assert [times for times, _, _, _ in _forest_pairs(_jv_pairs)(m)] == [sizes[a] for a in range(m)], m
        for ordered in (True, False):
            two = Counter(a for a, b, low in splits if a and b and (ordered or low))
            assert list(two) == list(range(1, m - 1)), (m, ordered)
            classes = [times for times, _, _, _ in _pairs_012(ordered)(m)]
            assert classes == [1] + [two[a] for a in range(1, m - 1)], (m, ordered)


def test_count_structures_never_lists_the_top_size():
    expected = family_number("p_at_one", 8)
    tracemalloc.start()
    try:
        count = count_structures("jv_tree", 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == expected
    # the list of all 354,560 statistics on 8 labels alone takes about 2.8 MB
    assert peak < 1 << 20, peak


def test_count_structures_lists_forests_below_the_top_size():
    tracemalloc.start()
    try:
        count = count_structures("jv_forest", 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == family_number("springer", 8)
    # the list of all 250,737 forest statistics on 8 labels alone takes about 2 MiB
    assert peak < 1.5 * (1 << 20), peak


def _tree_walked(name, labels):
    """Exponent tally of a family, walking the tree enumerators in order."""
    if name == "dumont":
        return Counter(binary_degree_counts(t)[:2] for t in inc_binary_trees(labels))
    if name == "andre_biv":
        return Counter(tree_degree_counts(t)[:2] for t in tree_012_trees(labels)) or {(0, 0): 1}
    if name == "andre_uni":
        # at n = 0 the constant 1 keeps no variable
        return Counter(tree_degree_counts(t)[:1] for t in tree_012_trees(labels)) or {(): 1}
    if name == "deriv_P":
        return Counter((jv_empty_leaves(t),) for t in jv_trees(labels))
    if name == "deriv_Q":
        return _forest_counter(1, jv_forests(labels), lambda sub: (jv_empty_leaves(sub),))
    return _forest_counter(2, planted_forests(labels), _planted_block_exponents)


@pytest.mark.parametrize(
    "name,lo", [("dumont", 1), ("andre_biv", 0), ("andre_uni", 0), ("deriv_P", 0),
                ("deriv_Q", 0), ("planted_forest", 0)]
)
def test_oracle_stored_order_matches_tree_walk(name, lo):
    for n in range(lo, 9):
        walked = _tree_walked(name, tuple(range(1, n + 1)))
        assert list(family_poly_oracle(name, n).nums.items()) == list(walked.items()), n


def test_plane_stored_order_matches_tree_walk():
    for n in range(1, 9):
        trees = list(plane_012_trees(tuple(range(1, n + 1))))
        walked = Counter(tree_degree_counts(t)[:2] for t in trees)
        assert list(dumont_plane_oracle(n).nums.items()) == [
            (key, count * 2 ** key[1]) for key, count in walked.items()
        ], n
        leaves = Counter(map(tree_leaf_count, trees))
        assert list(plane_leaf_counts(n).items()) == list(leaves.items()), n
