"""Brute-force enumeration of permutations and increasing trees, with the
statistics and grammatical labelings that reproduce every polynomial family
by plain weighted counting - no grammar involved.

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

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain, product, starmap
from operator import add, gt
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
    """Number of structures of the kind on [n]: each is visited once, none is built."""
    _check_bound(n, bound)
    return _kind(kind).count(n)


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


# -- size-keyed statistics ----------------------------------------------------------
#
# A tree's statistic depends only on how many labels it has, and a _subsets
# split of its non-root labels only through the split's sizes and whether it
# takes the first label (_splits).  So pairs(m, stats) gives the statistics of
# the trees on m labels, in their enumerator's order, as one (left, right)
# pair per root split, the root's own weight folded into left: the split's
# trees are starmap(add, product(left, right)).  stats(k) is the list for
# k < m labels, built once per top-level call in a memo local to that call.
# The top size is never listed: each pair goes straight into Counter.update.
# Every structure is visited exactly once, with one C-level add; none is built.


def _splits(m: int) -> List[Tuple[int, int, bool]]:
    """(len(chosen), len(rest), items[0] in chosen) of each _subsets split of m items."""
    masks = range(1 << m)
    return [(k, m - k, mask & 1 == 1) for mask, k in zip(masks, map(int.bit_count, masks))]


def _size_keyed(pairs) -> Callable[[int], List[int]]:
    """stats(m): the statistic of every tree on m labels, each size listed once."""
    memo: Dict[int, List[int]] = {}

    def stats(m: int) -> List[int]:
        if m not in memo:
            memo[m] = list(chain.from_iterable(starmap(add, product(*pair)) for pair in pairs(m, stats)))
        return memo[m]

    return stats


def _tally(pairs, m: int, stats=None, tally: Counter | None = None) -> Counter:
    """Tally (into tally, a new Counter by default) of the statistic of each tree on m labels."""
    stats = stats or _size_keyed(pairs)
    tally = Counter() if tally is None else tally
    for left, right in pairs(m, stats):
        tally.update(starmap(add, product(left, right)))
    return tally


def _jv_pairs(m: int, stats) -> list:
    """Empty-leaf counts of the jv trees on m labels, in jv_trees order."""
    if m < 2:
        return [((1,) if m == 0 else (0, 2), (0,))]  # an empty leaf; a root bare or over two
    return [(stats(a), stats(b)) for a, b, _ in _splits(m - 1)]


def _binary_pairs(base: int):
    """f0 * base + f1 for the (leaves, one-child) counts (f0, f1) of each
    inc_binary tree on m labels, in inc_binary_trees order; base > m keeps the
    packing one-to-one.  Packed counts add like the pairs they pack."""

    def pairs(m: int, stats) -> list:
        if m == 0:
            return [((0,), (0,))]
        out = []
        for a, b, _ in _splits(m - 1):
            own = (base, 1, 0)[(a > 0) + (b > 0)]
            out.append(([s + own for s in stats(a)] if own else stats(a), stats(b)))
        return out

    return pairs


def _pairs_012(base: int, ordered: bool):
    """f0 * base + f1 for the (leaves, one-child) counts of each 0-1-2 tree on
    m labels, in _trees_012 order; base > m keeps the packing one-to-one."""

    def pairs(m: int, stats) -> list:
        if m < 2:
            return [((base,), (0,))] if m else []
        two = [(stats(a), stats(b)) for a, b, low in _splits(m - 1) if a and b and (ordered or low)]
        return [(stats(m - 1), (1,))] + two

    return pairs


def _forest_tally(n: int, pairs) -> Counter:
    """Tally of each forest's summed block statistics, over every set partition of [n].

    A block carries the trees that pairs walks on its non-root labels; a lone
    root weighs 1 (one empty leaf for jv trees, a v label, packed, for binary
    ones).  The block of all n labels is never listed.
    """
    stats = _size_keyed(pairs)
    tally: Counter = Counter()
    for partition in set_partitions(tuple(range(1, n + 1))):
        if len(partition) == 1 and n > 1:
            _tally(pairs, n - 1, stats, tally)
        else:
            lists = [stats(len(block) - 1) if len(block) > 1 else (1,) for block in partition]
            tally.update(map(sum, product(*lists)))
    return tally


def _pair_tally(n: int, pairs_of_base, *args) -> Dict[Tuple[int, int], int]:
    """Tally of (f0, f1) over the trees on n labels, walked packed with base n + 1."""
    base = n + 1
    return {divmod(key, base): c for key, c in _tally(pairs_of_base(base, *args), n).items()}


# -- the oracle: families by weighted counting -------------------------------------

UV = ("u", "v")
XY = ("x", "y")


def _poly_from_counter(variables, counter: Dict[Tuple[int, ...], int]) -> LaurentPoly:
    return LaurentPoly(variables, {e: Fraction(c) for e, c in counter.items()})


_PermStats = namedtuple("_PermStats", "des asc lpk ipk lrpk alternating")
# n -> ((stats, count), ...); only finished tuples are published
_PERM_HISTOGRAMS: Dict[int, Tuple[Tuple[_PermStats, int], ...]] = {}


def _word_stats(n: int, word: Tuple[bool, ...]) -> _PermStats:
    """Statistics of any permutation of [n] whose up-down word is word.

    word[i] is sigma_{i+1} > sigma_{i+2}; the padding sigma_0 = sigma_{n+1} = 0
    adds a leading ascent and a trailing descent.
    """
    steps = (False,) + word + (True,)
    peaks = [i for i in range(1, n + 1) if not steps[i - 1] and steps[i]]
    des = sum(word)
    return _PermStats(
        des,
        len(word) - des,
        sum(i < n for i in peaks),
        sum(1 < i < n for i in peaks),
        len(peaks),
        all(down == (i % 2 == 1) for i, down in enumerate(word)),
    )


def _perm_histogram(n: int) -> Tuple[Tuple[_PermStats, int], ...]:
    """Joint statistics of every permutation of [n], cached per n.

    Every permutation is visited once and tallied by its up-down word (at
    most 2^(n-1) classes); the statistics are derived once per word.
    """
    histogram = _PERM_HISTOGRAMS.get(n)
    if histogram is None:
        words = Counter(tuple(map(gt, p, p[1:])) for p in itertools.permutations(range(1, n + 1)))
        tally: Counter = Counter()
        for word, count in words.items():
            tally[_word_stats(n, word)] += count
        histogram = _PERM_HISTOGRAMS.setdefault(n, tuple(tally.items()))
    return histogram


def _perm_tally(exponents) -> Callable[[int], Counter]:
    """tally(n): the permutations of [n] counted by exponents(n, stats) of their weight."""

    def tally(n: int) -> Counter:
        counter: Counter = Counter()
        for stats, count in _perm_histogram(n):
            counter[exponents(n, stats)] += count
        return counter

    return tally


def _andre_tally(n: int) -> Dict[Tuple[int, int], int]:
    """(leaves, one-child) tally of the unordered 0-1-2 trees; the empty tree at n = 0."""
    return _pair_tally(n, _pairs_012, False) or {(0, 0): 1}


def _planted_tally(n: int) -> Dict[Tuple[int, int], int]:
    """(one-child, leaves) tally of the planted forests, packed with base n + 1."""
    base = n + 1
    return {divmod(key, base)[::-1]: c for key, c in _forest_tally(n, _binary_pairs(base)).items()}


def _univariate(counter: Dict[int, int]) -> Dict[Tuple[int], int]:
    return {(k,): c for k, c in counter.items()}


_Oracle = namedtuple("_Oracle", "variables least_n tally at", defaults=(None,))
# name -> the variables, the least n that is a weighted count (the smaller n
# of the descent and binary-tree families and of the interior-peak family are
# seed conventions), the tally of the weight exponents of the structures on
# [n], and the point, if any, at which the tallied polynomial is read
_ORACLES = {
    "eulerian_biv": _Oracle(XY, 1, _perm_tally(lambda n, r: (r.des + 1, r.asc + 1))),
    "eulerian_uni": _Oracle(("x",), 1, _perm_tally(lambda n, r: (r.des + 1,))),
    "left_peak_biv": _Oracle(XY, 0, _perm_tally(lambda n, r: (2 * r.lpk + 1, n - 2 * r.lpk))),
    "left_peak_uni": _Oracle(("x",), 0, _perm_tally(lambda n, r: (r.lpk,))),
    "interior_peak_biv": _Oracle(XY, 1, _perm_tally(lambda n, r: (2 * r.ipk + 2, n - 2 * r.ipk - 1))),
    "interior_peak_uni": _Oracle(("x",), 1, _perm_tally(lambda n, r: (r.ipk,))),
    "lr_peak_biv": _Oracle(XY, 0, _perm_tally(lambda n, r: (2 * r.lrpk, n - 2 * r.lrpk + 1))),
    "lr_peak_uni": _Oracle(("x",), 0, _perm_tally(lambda n, r: (r.lrpk,))),
    "R_family": _Oracle(
        XY, 0, lambda n: _ORACLES["left_peak_biv"].tally(n) + _ORACLES["lr_peak_biv"].tally(n)
    ),
    "dumont": _Oracle(UV, 1, lambda n: _pair_tally(n, _binary_pairs)),
    "andre_biv": _Oracle(UV, 0, _andre_tally),
    "andre_uni": _Oracle(UV, 0, _andre_tally, {"v": LaurentPoly.const(1)}),
    "deriv_P": _Oracle(("x",), 0, lambda n: _univariate(_tally(_jv_pairs, n))),
    "deriv_Q": _Oracle(("x",), 0, lambda n: _univariate(_forest_tally(n, _jv_pairs))),
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
    terms = {
        (f0, f1): Fraction(count) * Fraction(2) ** f1
        for (f0, f1), count in _pair_tally(n, _pairs_012, True).items()
    }
    return LaurentPoly(UV, terms)


def plane_leaf_counts(n: int, bound: int | None = None) -> Dict[int, int]:
    """Number of plane 0-1-2 increasing trees on [n] with k leaves."""
    _check_bound(n, bound)
    leaves: Counter = Counter()
    for (f0, _), count in _pair_tally(n, _pairs_012, True).items():
        leaves[f0] += count
    return dict(leaves)


def alternating_count(n: int, bound: int | None = None) -> int:
    """Number of up-down alternating permutations of [n]."""
    _check_bound(n, bound)
    return sum(count for stats, count in _perm_histogram(n) if stats.alternating)


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


def _tree_json(tree):
    label, children = tree
    return [label, [_tree_json(c) for c in children]]


def _jv_json(tree):
    if tree is None:
        return [None, []]
    label, children = tree
    return [label, [_jv_json(c) for c in children]]


_Kind = namedtuple("_Kind", "enumerate count json")
# kind -> enumerator over the labels 1..n, its count over n by the size-keyed
# walker, JSON codec of one structure
_KINDS = {
    "permutations": _Kind(
        itertools.permutations,
        lambda n: sum(1 for _ in itertools.permutations(range(n))),
        list,
    ),
    "inc_binary": _Kind(
        lambda labels: inc_binary_trees(labels) if labels else (),
        lambda n: sum(_tally(_binary_pairs(1), n).values()) if n else 0,
        _binary_json,
    ),
    "plane_012": _Kind(plane_012_trees, lambda n: sum(_tally(_pairs_012(1, True), n).values()), _tree_json),
    "tree_012": _Kind(tree_012_trees, lambda n: sum(_tally(_pairs_012(1, False), n).values()), _tree_json),
    "jv_tree": _Kind(jv_trees, lambda n: sum(_tally(_jv_pairs, n).values()), _jv_json),
    "jv_forest": _Kind(
        jv_forests,
        lambda n: sum(_forest_tally(n, _jv_pairs).values()),
        lambda forest: [[root, [_jv_json(sub)]] for root, sub in forest],
    ),
    "planted_forest": _Kind(
        planted_forests,
        lambda n: sum(_forest_tally(n, _binary_pairs(1)).values()),
        lambda forest: [
            [root, [] if sub is None else [_binary_json(sub)]] for root, sub in forest
        ],
    ),
}
STRUCTURE_KINDS = tuple(_KINDS)


def _kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    return _KINDS[kind]
