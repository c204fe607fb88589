"""solve_rational and RankTracker against the eliminations they replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjet.linalg import InconsistentSystem, RankTracker, solve_rational
from crjet.scalars import ExactComplex


def gauss_jordan(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b exactly over Q.

    Returns (solution, free_columns) with free variables pinned to 0, or
    raises InconsistentSystem when no solution exists.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if A[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        A[row], A[sel] = A[sel], A[row]
        inv = Fraction(1) / A[row][col]
        A[row] = [a * inv for a in A[row]]
        for r in range(m):
            if r != row and A[r][col] != 0:
                c = A[r][col]
                A[r] = [a - c * b for a, b in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if A[r][n] != 0:
            raise InconsistentSystem("linear system has no solution")
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = A[r][n]
    free = [c for c in range(n) if c not in pivots]
    return x, free


def outcome(solver, rows, rhs):
    """(solution, free) with the solution's types, or the raised exception."""
    try:
        x, free = solver([list(r) for r in rows], list(rhs))
    except InconsistentSystem:
        return "inconsistent"
    return [(v, type(v)) for v in x], free


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=7)
entries = st.one_of(fracs, st.integers(-6, 6), st.just(Fraction(0)))


@st.composite
def systems(draw):
    """Random systems grown by zero, duplicate, combined and contradicting rows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(fracs, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0)) for r in rows]
    else:
        rhs = [draw(entries) for _ in range(m)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination", "contradiction")))
        if kind == "zero":
            rows.append([Fraction(0)] * n)
            rhs.append(draw(st.sampled_from((Fraction(0), draw(entries)))))
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        elif kind == "combination":
            s, t = draw(fracs), draw(fracs)
            rows.append([s * a + t * b for a, b in zip(rows[i], rows[j])])
            rhs.append(s * rhs[i] + t * rhs[j])
        else:
            rows.append(list(rows[i]))
            rhs.append(rhs[i] + 1)
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order], [rhs[k] for k in order]


class TestSolveRational:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_matches_gauss_jordan(self, system):
        rows, rhs = system
        assert outcome(solve_rational, rows, rhs) == outcome(gauss_jordan, rows, rhs)

    def test_empty_system(self):
        assert solve_rational([], []) == ([], [])
        assert outcome(solve_rational, [], []) == outcome(gauss_jordan, [], [])

    def test_edge_cases(self):
        half = Fraction(1, 2)
        cases = [
            ([[0, 0]], [0]),                           # one zero row
            ([[0, 0]], [1]),                           # zero row, nonzero rhs
            ([[1, 2], [2, 4]], [1, 2]),                # rank 1, consistent
            ([[1, 2], [2, 4]], [1, 3]),                # rank 1, inconsistent
            ([[half, 0, 1]], [3]),                     # m < n
            ([[0, 1], [1, 0], [1, 1]], [2, 3, 5]),     # overdetermined
            ([[0, 1], [0, 2], [1, 0]], [1, 2, 7]),     # row swap needed
        ]
        for rows, rhs in cases:
            rows = [[Fraction(e) for e in r] for r in rows]
            rhs = [Fraction(b) for b in rhs]
            assert outcome(solve_rational, rows, rhs) == outcome(gauss_jordan, rows, rhs)


class ReducedRankTracker:
    """Incremental row reduction over ExactComplex, keeping the basis fully
    reduced: RankTracker before it became forward elimination only.

    Rows are reduced against the accumulated echelon basis; a row that adds
    new rank is kept together with its label (used for pivot certificates).
    """

    def __init__(self):
        self.rows = []      # echelon rows: (pivot_col, row)
        self.labels = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, vec, label=None) -> bool:
        vec = list(ExactComplex.coerce(c) for c in vec)
        for pivot_col, row in self.rows:
            c = vec[pivot_col]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        for j, c in enumerate(vec):
            if not c.is_zero():
                inv = c.inverse()
                vec = [a * inv for a in vec]
                # keep the basis fully reduced so later candidates need one pass
                self.rows = [
                    (pc, [a - row[j] * b for a, b in zip(row, vec)] if not row[j].is_zero() else row)
                    for pc, row in self.rows
                ]
                self.rows.append((j, vec))
                self.labels.append(label)
                return True
        return False


complexes = st.builds(ExactComplex, fracs, fracs)
sparse_complexes = st.one_of(complexes, st.just(ExactComplex(0)))


@st.composite
def complex_rows(draw):
    """Rows of one width grown by random, zero, duplicate and combined rows."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate", "combination")))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([ExactComplex(0)] * n)
        elif kind == "random":
            rows.append(draw(st.lists(sparse_complexes, min_size=n, max_size=n)))
        else:
            a = rows[draw(st.integers(0, len(rows) - 1))]
            b = rows[draw(st.integers(0, len(rows) - 1))]
            s = draw(complexes)
            t = draw(complexes) if kind == "combination" else ExactComplex(0)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


class TestRankTracker:
    @settings(max_examples=100, deadline=None)
    @given(complex_rows())
    def test_matches_fully_reduced_tracker(self, rows):
        new, old = RankTracker(), ReducedRankTracker()
        for k, row in enumerate(rows):
            assert new.add_row(row, label=k) == old.add_row(row, label=k)
            assert (new.rank, new.labels) == (old.rank, old.labels)
        assert [pc for pc, _ in new.rows] == [pc for pc, _ in old.rows]

class TestAgainstSympy:
    CASES = [
        ([[2, 1], [1, 3]], [3, 5]),
        ([[Fraction(1, 3), 2, 0], [0, Fraction(-5, 7), 1], [4, 0, Fraction(1, 2)]],
         [1, Fraction(2, 9), -3]),
        ([[1, 1, 1], [1, -1, 2], [2, 1, 0], [3, 1, 3]], [6, 5, 4, 14]),
        ([[0, 0, 5], [0, 3, 1], [7, 2, 0]], [10, Fraction(1, 2), -1]),
    ]

    @pytest.mark.parametrize("rows, rhs", CASES)
    def test_full_rank_solution(self, rows, rhs):
        sympy = pytest.importorskip("sympy")
        rows = [[Fraction(e) for e in r] for r in rows]
        rhs = [Fraction(b) for b in rhs]
        x, free = solve_rational(rows, rhs)
        assert free == []
        A = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r]
                          for r in rows])
        b = sympy.Matrix([sympy.Rational(e.numerator, e.denominator) for e in rhs])
        n = A.shape[1]
        want = (A.T * A).LUsolve(A.T * b)  # the unique solution; residual checked below
        assert A * want == b
        assert [sympy.Rational(v.numerator, v.denominator) for v in x] == list(want)
        assert len(x) == n
