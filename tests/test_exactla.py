from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize.exactla import RowSpan, rank


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction, the reference for rank."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(rk + 1, len(mat)):
            f = mat[i][col] / mat[rk][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def fraction_det(mat) -> Fraction:
    """Determinant of a square matrix by elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for i in range(len(mat)):
        piv = next((r for r in range(i, len(mat)) if mat[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            det = -det
        det *= mat[i][i]
        for r in range(i + 1, len(mat)):
            f = mat[r][i] / mat[i][i]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[i])]
    return det


class TestRank:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 3, 5, -1], [2, 0, 0, 1], [0, 0, 2, -1], [0, 3, 3, 0]],
            [[0, 0, -1], [2, -1, -1], [-1, 0, 3]],
            [[0, -2, 0], [0, 0, -1], [1, 0, -1]],
        ],
    )
    def test_unscaled_zero_row_reproducers(self, rows):
        # Each has a row whose entry in a pivot column is already 0; that row
        # must still be scaled by the pivot, or the next exact division
        # truncates.  The last one needs it in a row-by-row elimination.
        assert fraction_rank(rows) == 3
        assert rank(rows) == 3

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([[0, 0], [Fraction(0), 0]]) == 0

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [1]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_elimination(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_cols = data.draw(st.integers(1, 6))
        entry = st.one_of(
            st.integers(-3, 3).map(Fraction),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
        )
        sparse = st.one_of(st.just(Fraction(0)), entry)
        target = data.draw(st.integers(0, min(n_rows, n_cols)))
        if data.draw(st.booleans()):
            # Low rank by construction: a product of n_rows x k and k x n_cols.
            left = [[data.draw(sparse) for _ in range(target)] for _ in range(n_rows)]
            right = [[data.draw(sparse) for _ in range(n_cols)] for _ in range(target)]
            rows = [
                [sum((a * b[j] for a, b in zip(row, right)), Fraction(0)) for j in range(n_cols)]
                for row in left
            ]
        else:
            rows = [[data.draw(sparse) for _ in range(n_cols)] for _ in range(n_rows)]
        assert rank(rows) == fraction_rank(rows)


def rational_vectors(data, length, count):
    """Vectors of one length: fresh entries, zeros, repeats, rescaled repeats
    and combinations of earlier draws, with non-integer rationals throughout."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3).map(Fraction),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    out = []
    for _ in range(count):
        kinds = ["fresh", "zero"] + (["repeat", "scaled", "combined"] if out else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "fresh":
            vec = [data.draw(entry) for _ in range(length)]
        elif kind == "zero":
            vec = [Fraction(0)] * length
        elif kind == "repeat":
            vec = list(data.draw(st.sampled_from(out)))
        elif kind == "scaled":
            scale = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            vec = [scale * x for x in data.draw(st.sampled_from(out))]
        else:
            a, b = data.draw(st.sampled_from(out)), data.draw(st.sampled_from(out))
            f = data.draw(entry)
            vec = [x + f * y for x, y in zip(a, b)]
        out.append(vec)
    return out


class TestRowSpan:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_elimination(self, data):
        length = data.draw(st.integers(1, 6))
        vectors = rational_vectors(data, length, data.draw(st.integers(0, 9)))
        span = RowSpan(length)
        inserted = []
        for vec in vectors:
            grows = fraction_rank(inserted + [vec]) > len(inserted)
            assert span.add(vec) == grows
            if grows:
                inserted.append(vec)
            assert span.dim == len(inserted)
        for vec in vectors + rational_vectors(data, length, 4):
            got = span.coords(vec)
            if fraction_rank(inserted + [vec]) > len(inserted):
                assert got is None
                continue
            assert got is not None and len(got) == len(inserted)
            rebuilt = [sum(c * u[j] for c, u in zip(got, inserted)) for j in range(length)]
            assert rebuilt == vec

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pivots_are_bordered_minors(self, data):
        # Row k pivots on the first column whose minor over the first k + 1
        # inserted vectors and the earlier pivot columns is nonzero, and its
        # pivot is that minor.  A step that skips or adds a division keeps
        # the rank and the coordinates, but not the pivots.
        length = data.draw(st.integers(1, 6))
        row = st.lists(st.integers(-4, 4), min_size=length, max_size=length)
        span = RowSpan(length)
        inserted = [vec for vec in data.draw(st.lists(row, max_size=8)) if span.add(vec)]
        cols = []
        for k, (piv, p) in enumerate(span.pivots):
            first = inserted[: k + 1]
            minors = [fraction_det([[r[j] for j in cols + [c]] for r in first]) for c in range(piv + 1)]
            assert minors[:piv] == [0] * piv and minors[piv] == p
            cols.append(piv)

    def test_coordinates_over_inserted_vectors(self):
        span = RowSpan(3)
        assert span.add([Fraction(1, 2), 0, 3])
        assert not span.add([1, 0, 6])
        assert span.add([0, 0, 1])
        assert span.coords([Fraction(1, 2), 0, 3]) == [1, 0]
        assert span.coords([1, 0, 7]) == [2, 1]
        assert span.coords([0, 1, 0]) is None

    @pytest.mark.parametrize("bad", [[1], [1, 2, 3]])
    def test_length_mismatch_raises(self, bad):
        span = RowSpan(2)
        span.add([1, 1])
        with pytest.raises(ValueError):
            span.add(bad)
        with pytest.raises(ValueError):
            span.coords(bad)
        assert span.dim == 1

    def test_span_keeps_its_own_rows(self):
        # The first row takes no step, so it is the one the span must copy:
        # changing the caller's list afterwards changes no answer.
        first, second = [1, 2, 0], [0, 1, 1]
        span = RowSpan(3)
        assert span.add(first) and span.add(second)
        first[:] = second[:] = [0, 0, 0]
        assert span.pivots == [(0, 1), (1, 1)]
        assert span.coords([2, 5, 1]) == [2, 1]
        assert span.coords([0, 0, 1]) is None

    @pytest.mark.parametrize("zero", [[0], [0, 0, 0], (), (0, 0, 0), [Fraction(0)] * 3])
    def test_zero_vector_length_checked_first(self, zero):
        # A zero vector is answered without a step, but only after its
        # length is checked, on an empty span and on a grown one.
        span = RowSpan(2)
        for dim in (0, 1):
            with pytest.raises(ValueError):
                span.add(zero)
            with pytest.raises(ValueError):
                span.coords(zero)
            assert span.dim == dim
            span.add([1, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_coords_between_inserts(self, data):
        # Row expressions are built on the first coords call; rows inserted
        # after it must get theirs on the next one.
        length = data.draw(st.integers(1, 5))
        vectors = rational_vectors(data, length, data.draw(st.integers(1, 8)))
        span, inserted = RowSpan(length), []
        for vec in vectors:
            if span.add(vec):
                inserted.append(vec)
            for seen in inserted + [vec]:
                got = span.coords(seen)
                rebuilt = [sum(c * u[j] for c, u in zip(got, inserted)) for j in range(length)]
                assert rebuilt == seen

    def test_integer_vectors_over_one_denominator(self):
        # Integer vectors are taken as they are; a rational query is one sixth
        # of (5, 4), so its coordinates are one sixth of (5, 4)'s.
        span = RowSpan(2)
        assert span.add([1, 2]) and span.add([3, 0])
        assert span.coords([5, 4]) == [2, 1]
        assert span.coords([Fraction(5, 6), Fraction(2, 3)]) == [Fraction(1, 3), Fraction(1, 6)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_zero_vectors_change_nothing(self, data):
        # The integer form of the exact layer: numerators over one shared
        # denominator.  Zero vectors, as lists and tuples, interleaved with
        # the inserts and the coordinate solves leave every answer as it is.
        length = data.draw(st.integers(1, 6))
        vectors = rational_vectors(data, length, data.draw(st.integers(0, 8)))
        queries = vectors + rational_vectors(data, length, 4)
        den = lcm(*(x.denominator for vec in queries for x in vec))
        numerators = [[int(x * den) for x in vec] for vec in queries]
        plain, mixed = RowSpan(length), RowSpan(length)
        zeros = ([0] * length, (0,) * length)
        for vec in numerators[: len(vectors)]:
            for _ in range(data.draw(st.integers(0, 2))):
                zero = data.draw(st.sampled_from(zeros))
                assert not mixed.add(zero)
                if data.draw(st.booleans()):
                    assert mixed.coords(zero) == [Fraction(0)] * mixed.dim
            assert mixed.add(vec) == plain.add(vec)
        assert (mixed.dim, mixed.pivots) == (plain.dim, plain.pivots)
        for vec in numerators:
            assert mixed.coords(vec) == plain.coords(vec)
        for zero in zeros:
            got = mixed.coords(zero)
            assert got == [Fraction(0)] * mixed.dim
            assert all(type(c) is Fraction for c in got)
        with_zeros = [v for vec in numerators for v in (vec, zeros[0])]
        assert rank(with_zeros) == rank(numerators) == fraction_rank(queries)
