"""Exact Gauss-Jordan elimination over the rationals, computed on integers:
the one elimination behind conserved bases, splitting certificates, cocycle
solves and the inverses of translation generator matrices.

Each input row is scaled to integers once and every step is fraction-free
(Bareiss 1968, with a gcd division in place of the exact quotient), so only
the pivot rows handed back are ever turned into ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


def _integer_row(row):
  """(numerators, denominator): the entries of ``row`` (ints and Fractions)
  as integer numerators over the lcm of their denominators."""
  row = tuple(row)
  denom = lcm(*(x.denominator for x in row))
  return [x.numerator * (denom // x.denominator) for x in row], denom


def rref(rows, n_cols: int):
  """Reduced row echelon form of ``rows`` over their first ``n_cols`` columns.

  Column by column, the first row at or below the current rank with a
  nonzero entry is swapped up, and the column is cleared in every other row.
  Entries past ``n_cols`` (a right-hand side, say) are carried along but
  never chosen as pivots.

  Returns (reduced, pivots, order).  The first ``len(pivots)`` reduced rows
  hold the pivots, as ``Fraction`` rows scaled to 1 at their pivot column;
  ``pivots`` is the column of each.  The leftover rows are integer rows that
  hold the eliminated rows only up to a nonzero factor, so callers test them
  against zero and nothing else.  ``order[k]`` is the index of the input row
  that ended up as reduced row ``k``.

  Only pivot rows are ever added to another row.  So a leftover row is its
  own input row plus a combination of the inputs ``order[:len(pivots)]``,
  which callers that need it can recover with one more solve.
  """
  rows = [_integer_row(r)[0] for r in rows]
  order = list(range(len(rows)))
  pivots = []
  for c in range(n_cols):
    rank = len(pivots)
    pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
    if pivot is None:
      continue
    rows[rank], rows[pivot] = rows[pivot], rows[rank]
    order[rank], order[pivot] = order[pivot], order[rank]
    prow = rows[rank]
    p = prow[c]
    for i, row in enumerate(rows):
      f = row[c]
      if i == rank or not f:
        continue
      g = gcd(p, f)
      a, b = p // g, f // g
      row = [a * x - b * y for x, y in zip(row, prow)]
      g = gcd(*row)
      rows[i] = [x // g for x in row] if g > 1 else row
    pivots.append(c)
  for k, c in enumerate(pivots):
    p = rows[k][c]
    rows[k] = [Fraction(x, p) if x else ZERO for x in rows[k]]
  return rows, pivots, order
