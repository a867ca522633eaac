"""Permutations and increasing trees: brute-force enumerators, statistics
and grammatical labelings, and oracles that reproduce every polynomial family
by weighted counting over the structures' root splits - no grammar involved.

Permutation statistics use the boundary convention sigma_0 = sigma_{n+1} = 0:
position i is a peak when sigma_{i-1} < sigma_i > sigma_{i+1}; left peaks
range over 1 <= i < n, interior peaks over 1 < i < n, left-right peaks over
1 <= i <= n.

Tree kinds (labels strictly increase away from the root):
  inc_binary      binary trees, left/right children distinguished
  plane_012       at most two children, ordered
  tree_012        at most two children, unordered (children sorted by min label)
  jv_tree         complete binary: labeled nodes have 0 or 2 children, children
                  may be unlabeled "empty leaves" (weight x each)
  planted_forest  set partition, each block a root (its min) over a binary tree
  jv_forest       set partition, each block a root over a jv tree (a lone root
                  carries one empty leaf)
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain
from math import comb
from operator import gt
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import BoundExceeded, NotAPermutation, UnknownFamily
from .laurent import LaurentPoly

DEFAULT_ENUM_BOUND = 9


def _check_bound(n: int, bound: int | None):
    bound = DEFAULT_ENUM_BOUND if bound is None else bound
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > bound:
        raise BoundExceeded(
            f"n = {n} exceeds the enumeration bound {bound}; "
            f"raise the bound explicitly to override"
        )


# -- permutations --------------------------------------------------------------


class PermRecord(NamedTuple):
    """A permutation of [n] with its descent and peak statistics."""

    perm: Tuple[int, ...]
    des: int
    asc: int
    lpk: int
    ipk: int
    lrpk: int
    alternating: bool


def _validate_perm(sigma: Sequence[int]) -> Tuple[int, ...]:
    perm = tuple(sigma)
    n = len(perm)
    if n == 0 or sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of 1..n")
    return perm


def _peaks(perm: Tuple[int, ...]) -> List[int]:
    """Peak positions i of perm, padded with sigma_0 = sigma_{n+1} = 0."""
    padded = (0,) + perm + (0,)
    return [i for i in range(1, len(perm) + 1) if padded[i - 1] < padded[i] > padded[i + 1]]


def perm_stats(sigma: Sequence[int]) -> PermRecord:
    """All statistics of one permutation (1-based one-line notation)."""
    perm = _validate_perm(sigma)
    n = len(perm)
    des = sum(map(gt, perm, perm[1:]))
    peaks = _peaks(perm)
    lpk, ipk = sum(i < n for i in peaks), sum(1 < i < n for i in peaks)
    alternating = all((perm[i - 1] < perm[i]) == (i % 2 == 1) for i in range(1, n))
    return PermRecord(perm, des, n - 1 - des, lpk, ipk, len(peaks), alternating)


# scheme -> (does the peak at position i of n get x on both flanks, the
# positions 0..n that always get x); every other position gets y.  L flanks
# the left peaks and marks the last position, M flanks the interior peaks and
# marks both ends, W flanks every (left-right) peak.
_SCHEMES = {
    "L": (lambda i, n: i < n, lambda n: (n,)),
    "M": (lambda i, n: 1 < i < n, lambda n: (0, n)),
    "W": (lambda i, n: True, lambda n: ()),
}
LABEL_SCHEMES = tuple(_SCHEMES)


def label_permutation(sigma: Sequence[int], scheme: str):
    """Position labels (n+1 of them, by _SCHEMES) and the product weight monomial."""
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {LABEL_SCHEMES}")
    flanked, always = _SCHEMES[scheme]
    perm = _validate_perm(sigma)
    n = len(perm)
    x_at = set(always(n))
    for i in _peaks(perm):
        if flanked(i, n):
            x_at.update((i - 1, i))
    labels = ["x" if i in x_at else "y" for i in range(n + 1)]
    weight = LaurentPoly.monomial(("x", "y"), (len(x_at), n + 1 - len(x_at)))
    return labels, weight


def format_labeling(sigma: Sequence[int], labels: Sequence[str]) -> str:
    """Interleave the zero-padded permutation with its n + 1 position labels."""
    return " ".join(chain.from_iterable(zip(map(str, (0, *sigma)), labels))) + " 0"


# -- increasing trees ------------------------------------------------------------
#
# Node encodings (plain nested tuples; None is an absent slot or empty leaf):
#   inc_binary:       (label, left, right), absent child = None
#   plane_012 / 012:  (label, (child, ...))
#   jv_tree:          None (empty leaf) or (label, ()) or (label, (c1, c2))
#   planted trees:    (root, subtree) with subtree None for a lone root


def _subsets(items: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All (chosen, rest) splits, deterministic by bitmask order (items[0] is bit 0)."""
    if not items:
        yield (), ()
        return
    first = items[:1]
    for chosen, rest in _subsets(items[1:]):
        yield chosen, first + rest
        yield first + chosen, rest


def inc_binary_trees(labels: Tuple[int, ...]):
    if not labels:
        yield None
        return
    root, rest = labels[0], labels[1:]
    for left_set, right_set in _subsets(rest):
        rights = list(inc_binary_trees(right_set))
        for left in inc_binary_trees(left_set):
            for right in rights:
                yield (root, left, right)


def _trees_012(labels: Tuple[int, ...], ordered: bool):
    """0-1-2 trees on labels; unordered ones list children by minimum label."""
    if not labels:
        return
    root, rest = labels[0], labels[1:]
    if not rest:
        yield (root, ())
        return
    for child in _trees_012(rest, ordered):
        yield (root, (child,))
    for first, second in _subsets(rest):
        if first and second and (ordered or rest[0] in first):
            for a in _trees_012(first, ordered):
                for b in _trees_012(second, ordered):
                    yield (root, (a, b))


def plane_012_trees(labels: Tuple[int, ...]):
    yield from _trees_012(labels, True)


def tree_012_trees(labels: Tuple[int, ...]):
    yield from _trees_012(labels, False)


def jv_trees(labels: Tuple[int, ...]):
    if not labels:
        yield None  # the lone empty leaf
        return
    root, rest = labels[0], labels[1:]
    if not rest:
        yield (root, ())
        yield (root, (None, None))
        return
    for left_set, right_set in _subsets(rest):
        rights = list(jv_trees(right_set))
        for left in jv_trees(left_set):
            for right in rights:
                yield (root, (left, right))


def set_partitions(labels: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Partitions into blocks ordered by minimum element (growth-string order)."""
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


def _forests(labels: Tuple[int, ...], trees):
    """Forests with one (block root, tree on the rest of the block) per block
    of each set partition."""
    for partition in set_partitions(labels):
        options = [[(block[0], sub) for sub in trees(block[1:])] for block in partition]
        yield from itertools.product(*options)


def planted_forests(labels: Tuple[int, ...]):
    """Forests of planted increasing binary trees (one per partition block)."""
    yield from _forests(labels, inc_binary_trees)


def jv_forests(labels: Tuple[int, ...]):
    """Forests of planted jv trees; a singleton block is a root + empty leaf."""
    yield from _forests(labels, jv_trees)


def enumerate_structures(kind: str, n: int, bound: int | None = None):
    """Yield every structure of the kind on [n] exactly once, deterministically."""
    _check_bound(n, bound)
    yield from _kind(kind).enumerate(tuple(range(1, n + 1)))


def count_structures(kind: str, n: int, bound: int | None = None) -> int:
    """Number of structures of the kind on [n]: counted by its tally recurrence, none is built."""
    _check_bound(n, bound)
    kind = _kind(kind)
    return sum(_tally(kind.walker, n).values()) if n >= kind.least else 0


# -- statistics on trees ----------------------------------------------------------


def binary_degree_counts(tree) -> Tuple[int, int, int]:
    """(leaves, one-child, two-child) counts of an inc_binary tree."""
    if tree is None:
        return (0, 0, 0)
    _, left, right = tree
    children = (left is not None) + (right is not None)
    f0, f1, f2 = (1, 0, 0) if children == 0 else (0, 1, 0) if children == 1 else (0, 0, 1)
    for sub in (left, right):
        a, b, c = binary_degree_counts(sub)
        f0, f1, f2 = f0 + a, f1 + b, f2 + c
    return f0, f1, f2


def tree_degree_counts(tree) -> Tuple[int, int, int]:
    """(f0, f1, f2) for plane_012 / tree_012 nodes."""
    label, children = tree
    counts = [0, 0, 0]
    counts[len(children)] += 1
    for child in children:
        a, b, c = tree_degree_counts(child)
        counts[0] += a
        counts[1] += b
        counts[2] += c
    return tuple(counts)


def tree_leaf_count(tree) -> int:
    label, children = tree
    if not children:
        return 1
    return sum(tree_leaf_count(c) for c in children)


def jv_empty_leaves(tree) -> int:
    if tree is None:
        return 1
    _, children = tree
    return sum(jv_empty_leaves(c) for c in children)


# -- statistic tallies ---------------------------------------------------------------
#
# Trees and forests are tallied by their leaves alone (empty leaves for jv
# trees): with one edge per label less the roots, the leaves fix the one-child
# count, n + 1 - 2 * leaves for a tree on n >= 1 labels and n - 2 * leaves for
# a planted forest on n labels.  A structure on m labels splits at its root
# (a permutation L 1 R at its least entry, a forest at its first label's
# block) into an ordered (left, right) pair on a and m - 1 - a of the other
# labels, C(m - 1, a) label sets for each a, and its statistic is one of
# left's plus extra(a) plus one of right's.  So a walker gives the structures
# on m labels as classes (times, extra, left, right) of equal splits, left and
# right the tallies of smaller sizes, and _step sums
#   T_m(z) = sum over the classes of times * z^extra * left(z) * right(z),
# the root-split decomposition (Stanley, EC I, 1.5).  A tally is a tuple of
# (value, count) pairs in the order _subsets first meets each value: the
# splits of each size first show at mask 2^a - 1, so the classes come in
# increasing a, and within a class v first shows at the least (rank in left,
# rank in right) with l + extra + r = v.  No structure is built or listed.

# (walker, m) -> the tally of the structures on m labels: each is published
# whole, and setdefault hands every racing caller the first value stored
_TALLIES: Dict[Tuple[Callable, int], Tuple[Tuple[int, int], ...]] = {}
_NOTHING = ((0, 1),)  # the tally of an empty part


def _step(walker, m: int) -> Tuple[Tuple[int, int], ...]:
    """One step of the recurrence: the tally on m labels from walker's classes."""
    tally: Dict[int, int] = {}
    for times, extra, left, right in walker(m):
        for l, l_count in left:
            for r, r_count in right:
                tally[l + extra + r] = tally.get(l + extra + r, 0) + times * l_count * r_count
    return tuple(tally.items())


def _tallied(walker, m: int) -> Tuple[Tuple[int, int], ...]:
    """walker's tally on m labels, memoized for the process; the smaller sizes
    are stepped first, so a step reads its own walker's memo and never recurses."""
    if (walker, m) not in _TALLIES:
        for k in range(m + 1):
            if (walker, k) not in _TALLIES:
                _TALLIES.setdefault((walker, k), _step(walker, k))
    return _TALLIES[walker, m]


def _tally(walker, m: int) -> Dict[int, int]:
    """walker's tally on m labels, in first-seen order; each caller is given a copy."""
    return dict(_tallied(walker, m))


def _root_split_pairs(small, left=None, right=None, extra=lambda a: 0):
    """Walker of the structures on [m] that split at their root (a tree's, or a
    permutation's least entry) into an ordered (left, right) pair, left on a of
    the m - 1 other labels.  A structure's value is left's value of its left
    part, plus extra(a), plus right's value of its right part; left and right
    are walkers, None for this one.  small[m] is the tally for m < len(small)."""

    def pairs(m: int) -> list:
        if m < len(small):
            return [(1, 0, small[m], _NOTHING)]
        lefts, rights = (pairs if walker is None else walker for walker in (left, right))
        return [(comb(m - 1, a), extra(a), _tallied(lefts, a), _tallied(rights, m - 1 - a)) for a in range(m)]

    return pairs


_jv_pairs = _root_split_pairs((((1, 1),), ((0, 1), (2, 1))))  # an empty leaf; a root bare or over two
_binary_pairs = _root_split_pairs((_NOTHING, ((1, 1),)))  # the empty tree; a bare root


@functools.cache
def _pairs_012(ordered: bool):
    """Walker of the 0-1-2 trees, in _trees_012 order, one per argument: one
    child on the m - 1 other labels, then two on a and m - 1 - a of them, the
    first taking the least of them if the tree is unordered."""

    def pairs(m: int) -> list:
        if m < 2:
            return [(1, 0, ((1, 1),), _NOTHING)] if m else []
        two = [
            (comb(m - 1, a) if ordered else comb(m - 2, a - 1), 0, _tallied(pairs, a), _tallied(pairs, m - 1 - a))
            for a in range(1, m - 1)
        ]
        return [(1, 0, _tallied(pairs, m - 1), _NOTHING)] + two

    return pairs


@functools.cache
def _forest_pairs(tree_pairs):
    """Walker of the forests of planted trees that tree_pairs walks, one per
    tree_pairs: the first label roots a tree on a of the m - 1 other labels,
    beside a forest on the rest.  A lone root is the tree walker's size-0
    value, and the block of all m labels comes last, as in _forests."""
    return _root_split_pairs((_NOTHING,), tree_pairs)


# the permutation statistics, with sigma_0 = sigma_{n+1} = 0 and a = len(L).
# The peaks (lrpk) are the leaves of the increasing binary tree whose in-order
# reading is the permutation, so _binary_pairs walks them: lrpk = lrpk(L) +
# lrpk(R), 1 on one entry.  des = des(L) + des(R) + [a > 0]; lpk = lrpk(L) +
# lpk(R); rpk (peaks but at the first position) = rpk(L) + lrpk(R); ipk =
# rpk(L) + lpk(R).  down and up are 0 exactly on the down-up and up-down
# alternating permutations: down = down(L) + down(R) + [a even], up = up(L) +
# down(R) + [a odd].
_ZERO = (_NOTHING, _NOTHING)
_des_pairs = _root_split_pairs(_ZERO, extra=lambda a: a > 0)
_lpk_pairs = _root_split_pairs(_ZERO, _binary_pairs)
_rpk_pairs = _root_split_pairs(_ZERO, None, _binary_pairs)
_ipk_pairs = _root_split_pairs(_ZERO, _rpk_pairs, _lpk_pairs)
_down_pairs = _root_split_pairs(_ZERO, extra=lambda a: 1 - a % 2)
_up_pairs = _root_split_pairs(_ZERO, None, _down_pairs, lambda a: a % 2)


def _one_child(pairs, n: int) -> Dict[Tuple[int, int], int]:
    """(leaves, one-child) tally of the trees on n >= 1 labels that pairs walks."""
    return {(f0, n + 1 - 2 * f0): count for f0, count in _tally(pairs, n).items()}


# -- the oracle: families by weighted counting -------------------------------------

UV = ("u", "v")
XY = ("x", "y")


def _poly_from_counter(variables, counter: Dict[Tuple[int, ...], int]) -> LaurentPoly:
    return LaurentPoly(variables, {e: Fraction(c) for e, c in counter.items()})


def _perm_tally(pairs, exponents) -> Callable[[int], Counter]:
    """tally(n): the permutations of [n] counted by exponents(n, k) of their
    weight, k the statistic that pairs walks."""

    def tally(n: int) -> Counter:
        counter: Counter = Counter()
        for k, count in _tally(pairs, n).items():
            counter[exponents(n, k)] += count
        return counter

    return tally


def _andre_tally(n: int) -> Dict[Tuple[int, int], int]:
    """(leaves, one-child) tally of the unordered 0-1-2 trees; the empty tree at n = 0."""
    return _one_child(_pairs_012(False), n) or {(0, 0): 1}


def _planted_tally(n: int) -> Dict[Tuple[int, int], int]:
    """(one-child, leaves) tally of the planted forests."""
    return {(n - 2 * f0, f0): c for f0, c in _tally(_forest_pairs(_binary_pairs), n).items()}


def _univariate(counter: Dict[int, int]) -> Dict[Tuple[int], int]:
    return {(k,): c for k, c in counter.items()}


_Oracle = namedtuple("_Oracle", "variables least_n tally at", defaults=(None,))
# name -> the variables, the least n that is a weighted count (the smaller n
# of the descent and binary-tree families and of the interior-peak family are
# seed conventions), the tally of the weight exponents of the structures on
# [n], and the point, if any, at which the tallied polynomial is read
_ORACLES = {
    "eulerian_biv": _Oracle(XY, 1, _perm_tally(_des_pairs, lambda n, des: (des + 1, n - des))),
    "eulerian_uni": _Oracle(("x",), 1, _perm_tally(_des_pairs, lambda n, des: (des + 1,))),
    "left_peak_biv": _Oracle(XY, 0, _perm_tally(_lpk_pairs, lambda n, lpk: (2 * lpk + 1, n - 2 * lpk))),
    "left_peak_uni": _Oracle(("x",), 0, _perm_tally(_lpk_pairs, lambda n, lpk: (lpk,))),
    "interior_peak_biv": _Oracle(XY, 1, _perm_tally(_ipk_pairs, lambda n, ipk: (2 * ipk + 2, n - 2 * ipk - 1))),
    "interior_peak_uni": _Oracle(("x",), 1, _perm_tally(_ipk_pairs, lambda n, ipk: (ipk,))),
    "lr_peak_biv": _Oracle(XY, 0, _perm_tally(_binary_pairs, lambda n, lrpk: (2 * lrpk, n - 2 * lrpk + 1))),
    "lr_peak_uni": _Oracle(("x",), 0, _perm_tally(_binary_pairs, lambda n, lrpk: (lrpk,))),
    "R_family": _Oracle(
        XY, 0, lambda n: _ORACLES["left_peak_biv"].tally(n) + _ORACLES["lr_peak_biv"].tally(n)
    ),
    "dumont": _Oracle(UV, 1, lambda n: _one_child(_binary_pairs, n)),
    "andre_biv": _Oracle(UV, 0, _andre_tally),
    "andre_uni": _Oracle(UV, 0, _andre_tally, {"v": LaurentPoly.const(1)}),
    "deriv_P": _Oracle(("x",), 0, lambda n: _univariate(_tally(_jv_pairs, n))),
    "deriv_Q": _Oracle(("x",), 0, lambda n: _univariate(_tally(_forest_pairs(_jv_pairs), n))),
    "planted_forest": _Oracle(("v", "u"), 0, _planted_tally),
}


def family_poly_oracle(name: str, n: int, bound: int | None = None) -> LaurentPoly:
    """A family polynomial by exhaustive weighted counting (_ORACLES)."""
    _check_bound(n, bound)
    if name not in _ORACLES:
        raise UnknownFamily(f"no oracle for family {name!r}")
    variables, least_n, tally, at = _ORACLES[name]
    if n < least_n:
        raise ValueError(f"{name} oracle needs n >= {least_n}")
    poly = _poly_from_counter(variables, tally(n))
    return poly.substitute(at) if at else poly


def dumont_plane_oracle(n: int, bound: int | None = None) -> LaurentPoly:
    """The binary-tree polynomials recounted from plane 0-1-2 trees.

    Every leaf weighs u and every one-child vertex weighs 2v; equivalence with
    the inc_binary route is one of the checked invariants.
    """
    _check_bound(n, bound)
    if n < 1:
        raise ValueError("plane-tree oracle needs n >= 1")
    # weight u^f0 (2v)^f1: fold the 2^f1 into the coefficient
    terms = {key: Fraction(count * 2 ** key[1]) for key, count in _one_child(_pairs_012(True), n).items()}
    return LaurentPoly(UV, terms)


def plane_leaf_counts(n: int, bound: int | None = None) -> Dict[int, int]:
    """Number of plane 0-1-2 increasing trees on [n] with k leaves."""
    _check_bound(n, bound)
    return dict(_tally(_pairs_012(True), n))


def alternating_count(n: int, bound: int | None = None) -> int:
    """Number of up-down alternating permutations of [n]."""
    _check_bound(n, bound)
    return _tally(_up_pairs, n).get(0, 0)


# -- JSON ---------------------------------------------------------------------


def structure_to_json(kind: str, structure):
    """Nested-list JSON: node = [label or null, [children...]]; forests are lists."""
    return _kind(kind).json(structure)


def _binary_json(tree):
    if tree is None:
        return None
    label, left, right = tree
    if left is None and right is None:
        return [label, []]
    return [label, [_binary_json(left), _binary_json(right)]]


def _jv_json(tree):
    """A plane tree as [label, children]; None is a jv tree's empty leaf."""
    if tree is None:
        return [None, []]
    label, children = tree
    return [label, [_jv_json(c) for c in children]]


_Kind = namedtuple("_Kind", "enumerate walker json least", defaults=(0,))
# kind -> enumerator over the labels 1..n, the walker whose tally counts them,
# JSON codec of one structure, and the least n with a structure
_KINDS = {
    "permutations": _Kind(itertools.permutations, _binary_pairs, list),
    "inc_binary": _Kind(lambda labels: inc_binary_trees(labels) if labels else (), _binary_pairs, _binary_json, 1),
    "plane_012": _Kind(plane_012_trees, _pairs_012(True), _jv_json),
    "tree_012": _Kind(tree_012_trees, _pairs_012(False), _jv_json),
    "jv_tree": _Kind(jv_trees, _jv_pairs, _jv_json),
    "jv_forest": _Kind(
        jv_forests, _forest_pairs(_jv_pairs), lambda forest: [[root, [_jv_json(sub)]] for root, sub in forest]
    ),
    "planted_forest": _Kind(
        planted_forests,
        _forest_pairs(_binary_pairs),
        lambda forest: [[root, [] if sub is None else [_binary_json(sub)]] for root, sub in forest],
    ),
}
STRUCTURE_KINDS = tuple(_KINDS)


def _kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    return _KINDS[kind]
