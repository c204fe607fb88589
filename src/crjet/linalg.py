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
    integers by the lcm of its denominators and reduced, one row at a time,
    against the rows kept so far, as ``RankTracker`` does: v <- p*v - v[j]*row
    for each kept row with pivot p at column j.  A row whose A-part reduces
    to zero is dropped, or raises when its b-part does not; any other row is
    kept, divided by the gcd of its integers, with its first nonzero column
    as pivot.  Elimination stops once the rank equals the number of columns.
    Back-substitution then gives x as one integer vector X over one
    denominator, and each row not yet eliminated is checked by one integer
    dot product against X.

    Returns (solution, free_columns) with free variables pinned to 0, or
    raises InconsistentSystem when no solution exists.  The pivot columns
    are the leading columns of an echelon basis of the row space, which are
    those where the column rank grows, so the result is the one Gauss-Jordan
    elimination gives.
    """
    n = len(rows[0]) if rows else 0
    pending = zip(rows, rhs)
    kept = []                            # (pivot column, integer row [A | b])
    for r, b in pending:
        v = _integer_row(r, b)
        for j, row in kept:
            c = v[j]
            if c:
                p = row[j]
                v = [p * a - c * t for a, t in zip(v, row)]
        j = next((j for j in range(n) if v[j]), None)
        if j is None:
            if v[n]:
                raise InconsistentSystem("linear system has no solution")
            continue
        g = math.gcd(*v)
        if g != 1:
            v = [a // g for a in v]
        kept.append((j, v))
        if len(kept) == n:
            break
    # x = X / den; each kept row is zero left of its pivot, so the rows are
    # solved from the rightmost pivot leftwards
    X, den = [0] * n, 1
    for j, row in sorted(kept, reverse=True):
        t = row[n] * den - sum(row[c] * X[c] for c in range(j + 1, n))
        p = row[j]
        X = [x * p for x in X]
        X[j], den = t, den * p
        g = math.gcd(den, *X)
        if g != 1:
            X, den = [x // g for x in X], den // g
    for r, b in pending:
        v = _integer_row(r, b)
        if sum(a * x for a, x in zip(v, X)) != v[n] * den:
            raise InconsistentSystem("linear system has no solution")
    pivots = {j for j, _ in kept}
    free = [c for c in range(n) if c not in pivots]
    return [Fraction(x, den) for x in X], free


def _integer_row(row, b):
    """[row | b] times the lcm of its denominators, as integers."""
    v = [*row, b]
    d = math.lcm(*(e.denominator for e in v))
    return [e.numerator * (d // e.denominator) for e in v]


class InconsistentSystem(ArithmeticError):
    pass
