from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize.exactla import rank


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


class TestRank:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 3, 5, -1], [2, 0, 0, 1], [0, 0, 2, -1], [0, 3, 3, 0]],
            [[0, 0, -1], [2, -1, -1], [-1, 0, 3]],
        ],
    )
    def test_unscaled_zero_row_reproducers(self, rows):
        # Each has a row whose pivot-column entry is 0 while the previous
        # pivot is 1; that row must still be scaled by the pivot.
        assert fraction_rank(rows) == 3
        assert rank(rows) == 3

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([[0, 0], [Fraction(0), 0]]) == 0

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
