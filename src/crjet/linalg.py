"""Exact linear algebra over the rationals and Gaussian rationals."""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import ExactComplex


class RankTracker:
    """Incremental row reduction over ExactComplex.

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


def solve_rational(rows, rhs):
    """Solve A x = b exactly over Q by fraction-free elimination.

    Entries are ints or Fractions.  Each row of [A | b] is cleared to
    integers by the lcm of its denominators; Bareiss elimination
    (Math. Comp. 22, 1968) with first-nonzero row pivoting then keeps every
    entry an integer minor, with one exact division per update, and a single
    back-substitution in Fraction gives the solution.

    Returns (solution, free_columns) with free variables pinned to 0, or
    raises InconsistentSystem when no solution exists.  The pivot columns are
    those where the column rank grows, a property of A alone, so the result
    is the one Gauss-Jordan elimination gives.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = []
    for r, b in zip(rows, rhs):
        row = list(r)
        row.append(b)
        if not any(row[:n]):
            if b:
                raise InconsistentSystem("linear system has no solution")
            continue                     # a zero row constrains nothing
        d = math.lcm(*(e.denominator for e in row))
        A.append([e.numerator * (d // e.denominator) for e in row])
    m = len(A)
    pivots = []
    prev = 1
    rank = 0
    for col in range(n):
        sel = next((r for r in range(rank, m) if A[r][col]), None)
        if sel is None:
            continue
        A[rank], A[sel] = A[sel], A[rank]
        top = A[rank]
        p = top[col]
        for r in range(rank + 1, m):
            cur = A[r]
            c = cur[col]
            A[r] = [(p * a - c * t) // prev for a, t in zip(cur, top)]
        prev = p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    if any(A[r][n] for r in range(rank, m)):
        raise InconsistentSystem("linear system has no solution")
    x = [Fraction(0)] * n
    for r in range(rank - 1, -1, -1):
        cur = A[r]
        acc = Fraction(cur[n])
        for c in pivots[r + 1:]:
            if cur[c]:
                acc -= cur[c] * x[c]
        x[pivots[r]] = acc / cur[pivots[r]]
    free = [c for c in range(n) if c not in pivots]
    return x, free


class InconsistentSystem(ArithmeticError):
    pass
