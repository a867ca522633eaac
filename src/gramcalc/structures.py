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


def perm_stats(sigma: Sequence[int]) -> PermRecord:
    """All statistics of one permutation (1-based one-line notation)."""
    perm = _validate_perm(sigma)
    n = len(perm)
    padded = (0,) + perm + (0,)
    des = sum(1 for i in range(1, n) if padded[i] > padded[i + 1])
    lpk = ipk = lrpk = 0
    for i in range(1, n + 1):
        if padded[i - 1] < padded[i] > padded[i + 1]:
            lrpk += 1
            if i < n:
                lpk += 1
                if i > 1:
                    ipk += 1
    alternating = all(
        (perm[i - 1] < perm[i]) == (i % 2 == 1) for i in range(1, n)
    )
    return PermRecord(perm, des, n - 1 - des, lpk, ipk, lrpk, alternating)


LABEL_SCHEMES = ("L", "M", "W")


def label_permutation(sigma: Sequence[int], scheme: str):
    """Position labels (n+1 of them) and the product weight monomial.

    L: the last position and the two positions flanking each left peak get x.
    M: the two end positions and the flanks of each interior peak get x.
    W: the flanks of each left-right peak get x.  Everything else gets y.
    """
    if scheme not in LABEL_SCHEMES:
        raise ValueError(f"scheme must be one of {LABEL_SCHEMES}")
    perm = _validate_perm(sigma)
    n = len(perm)
    padded = (0,) + perm + (0,)
    labels = ["y"] * (n + 1)

    def flank(i):
        labels[i - 1] = "x"
        labels[i] = "x"

    for i in range(1, n + 1):
        is_peak = padded[i - 1] < padded[i] > padded[i + 1]
        if not is_peak:
            continue
        if scheme == "L" and i < n:
            flank(i)
        elif scheme == "M" and 1 < i < n:
            flank(i)
        elif scheme == "W":
            flank(i)
    if scheme == "L":
        labels[n] = "x"
    if scheme == "M":
        labels[0] = "x"
        labels[n] = "x"
    x_count = labels.count("x")
    weight = LaurentPoly.monomial(("x", "y"), (x_count, n + 1 - x_count))
    return labels, weight


def format_labeling(sigma: Sequence[int], labels: Sequence[str]) -> str:
    """Interleave the zero-padded permutation with its position labels."""
    padded = (0,) + tuple(sigma) + (0,)
    parts = []
    for i, value in enumerate(padded):
        parts.append(str(value))
        if i < len(labels):
            parts.append(labels[i])
    return " ".join(parts)


def permutations(n: int) -> Iterator[Tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))


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


# name -> (variables, exponents of one permutation's weight given n and its
# stats, least n that is a weighted count)
_PERM_WEIGHTS = {
    "eulerian_biv": (XY, lambda n, r: (r.des + 1, r.asc + 1), 1),
    "eulerian_uni": (("x",), lambda n, r: (r.des + 1,), 1),
    "left_peak_biv": (XY, lambda n, r: (2 * r.lpk + 1, n - 2 * r.lpk), 0),
    "left_peak_uni": (("x",), lambda n, r: (r.lpk,), 0),
    "interior_peak_biv": (XY, lambda n, r: (2 * r.ipk + 2, n - 2 * r.ipk - 1), 1),
    "interior_peak_uni": (("x",), lambda n, r: (r.ipk,), 1),
    "lr_peak_biv": (XY, lambda n, r: (2 * r.lrpk, n - 2 * r.lrpk + 1), 0),
    "lr_peak_uni": (("x",), lambda n, r: (r.lrpk,), 0),
}


def family_poly_oracle(name: str, n: int, bound: int | None = None) -> LaurentPoly:
    """A family polynomial by exhaustive weighted counting.

    The supported names mirror the grammar families.  Ranges follow the
    combinatorial readings: the descent and binary-tree families and the
    interior-peak family need n >= 1 (their n = 0 values are seed
    conventions, not weighted counts).
    """
    _check_bound(n, bound)
    if name in _PERM_WEIGHTS:
        variables, exponents, least_n = _PERM_WEIGHTS[name]
        if n < least_n:
            raise ValueError(f"{name} oracle needs n >= {least_n}")
        counter = Counter()
        for stats, count in _perm_histogram(n):
            counter[exponents(n, stats)] += count
        return _poly_from_counter(variables, counter)
    elif name == "R_family":
        left = family_poly_oracle("left_peak_biv", n, bound)
        right = family_poly_oracle("lr_peak_biv", n, bound)
        return left + right
    elif name == "dumont":
        if n < 1:
            raise ValueError("dumont oracle needs n >= 1")
        return _poly_from_counter(UV, _pair_tally(n, _binary_pairs))
    elif name in ("andre_biv", "andre_uni"):
        counter = _pair_tally(n, _pairs_012, False)
        if n == 0:
            counter[(0, 0)] = 1
        poly = _poly_from_counter(UV, counter)
        if name == "andre_uni":
            return poly.substitute({"v": LaurentPoly.const(1)})
        return poly
    elif name == "deriv_P":
        counter = _tally(_jv_pairs, n)
        return _poly_from_counter(("x",), {(k,): c for k, c in counter.items()})
    elif name == "deriv_Q":
        counter = _forest_tally(n, _jv_pairs)
        return _poly_from_counter(("x",), {(k,): c for k, c in counter.items()})
    elif name == "planted_forest":
        base = n + 1  # (f0, f1) packed as f0 * base + f1; neither sum exceeds n
        counter = {}
        for key, count in _forest_tally(n, _binary_pairs(base)).items():
            f0, f1 = divmod(key, base)
            counter[(f1, f0)] = count
        return _poly_from_counter(("v", "u"), counter)
    raise UnknownFamily(f"no oracle for family {name!r}")


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
        lambda labels: permutations(len(labels)),
        lambda n: sum(1 for _ in permutations(n)),
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
