"""Exact linear algebra over the rationals and the Gaussian integers."""

from __future__ import annotations

import math
from fractions import Fraction


class RankTracker:
    """Incremental fraction-free row reduction over the Gaussian integers.

    A row is a list of (re, im) integer pairs.  It is reduced against the
    stored rows in insertion order: a stored row with pivot p at column j
    sets v <- p*v - v[j]*row, which clears column j.  Each stored row is
    zero at the pivots stored before it, so one pass clears every pivot.
    Every step scales v by a nonzero p, so the reduced row is a nonzero
    multiple of the one elimination over the Gaussian rationals gives, with
    the same zeros: the rank and the rows that add it are the same.  A row
    that adds new rank is kept, divided by the gcd of its integers, together
    with its label (used for pivot certificates).
    """

    def __init__(self):
        self.rows = []      # echelon rows: (pivot_col, row)
        self.labels = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, vec, label=None) -> bool:
        for j, row in self.rows:
            ca, cb = vec[j]
            if ca or cb:
                pa, pb = row[j]
                vec = [(pa * a - pb * b - ca * ra + cb * rb,
                        pa * b + pb * a - ca * rb - cb * ra)
                       for (a, b), (ra, rb) in zip(vec, row)]
        for j, (a, b) in enumerate(vec):
            if a or b:
                g = math.gcd(*(x for pair in vec for x in pair))
                if g != 1:
                    vec = [(a // g, b // g) for a, b in vec]
                self.rows.append((j, list(vec)))
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
