"""Lyndon words and expansion of their standard bracketings.

Lyndon words over {0..m} index a basis of the free Lie algebra on m+1
generators.  A bracket tree is either a leaf letter or a pair
``(left, right)`` standing for the commutator [left, right]; expanding a
tree with the concatenation product yields the corresponding homogeneous
Lie polynomial as a :class:`~cfrealize.fps.Series` with integer coefficients.
"""

from __future__ import annotations

from .errors import AlphabetError, DegreeError
from .fps import Series, check_word, word_key

# A bracket tree: either an int leaf or a pair (left, right) of bracket trees.
BracketTree = object


def is_lyndon(w) -> bool:
    """True if w is strictly smaller than every proper rotation of itself."""
    w = tuple(w)
    if len(w) == 0:
        return False
    if len(w) == 1:
        return True
    return all(w < w[k:] + w[:k] for k in range(1, len(w)))


def lyndon_words(m: int, n: int) -> list[tuple[int, ...]]:
    """All Lyndon words of degree <= n over {0..m}, in graded-lex order.

    Uses Duval's generation algorithm; the per-degree counts satisfy the
    necklace-counting (Witt) formula.
    """
    if m < 1:
        raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
    if n < 1:
        raise ValueError("degree bound must be >= 1")
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        ln = len(w)
        out.append(tuple(w))
        while len(w) < n:
            w.append(w[len(w) - ln])
        while w and w[-1] == m:
            w.pop()
    out.sort(key=word_key)
    return out


def standard_bracketing(w) -> BracketTree:
    """Right-standard bracketing of a Lyndon word.

    Recursively splits w = u.v where v is the longest proper suffix that is
    itself Lyndon (equivalently the lexicographically smallest proper
    suffix), and returns [bracket(u), bracket(v)].  The left-to-right leaf
    word of the result equals w.
    """
    w = tuple(w)
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) == 1:
        return w[0]
    split = min(range(1, len(w)), key=lambda k: w[k:])
    return (standard_bracketing(w[:split]), standard_bracketing(w[split:]))


def foliage(tree: BracketTree) -> tuple[int, ...]:
    """Left-to-right sequence of leaf letters of a bracket tree."""
    if isinstance(tree, int):
        return (tree,)
    left, right = tree
    return foliage(left) + foliage(right)


def format_bracket(tree: BracketTree) -> str:
    """Nested [.,.] text form, e.g. ``[0,[0,1]]``."""
    if isinstance(tree, int):
        return str(tree)
    left, right = tree
    return f"[{format_bracket(left)},{format_bracket(right)}]"


def expand_bracket(tree: BracketTree, m: int, max_degree: int | None = None) -> Series:
    """Expand a bracket tree into a series via [P,Q] = PQ - QP.

    The result is homogeneous of degree equal to the leaf count and has
    integer coefficients.
    """
    leaves = foliage(tree)
    check_word(leaves, m)
    if max_degree is None:
        max_degree = len(leaves)
    if len(leaves) > max_degree:
        raise DegreeError(
            f"bracket of degree {len(leaves)} does not fit truncation degree {max_degree}"
        )

    def build(t) -> dict:
        """Word -> int coefficients of the expansion of t."""
        if isinstance(t, int):
            return {(t,): 1}
        left, right = build(t[0]), build(t[1])
        out = {}
        for u, a in left.items():
            for v, b in right.items():
                out[u + v] = out.get(u + v, 0) + a * b
                out[v + u] = out.get(v + u, 0) - a * b
        return out

    return Series(m, max_degree, build(tree))
