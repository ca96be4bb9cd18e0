"""Exact Gauss-Jordan elimination over the rationals, computed on sparse
integer rows: the one elimination behind conserved bases, splitting
certificates, cocycle solves and the inverses of translation generator
matrices.

A row is a ``{column: value}`` map that holds only its nonzero entries.  Each
input row is scaled to integers once; a fraction-free forward elimination
(Bareiss 1968, with a gcd division in place of the exact quotient) clears
each pivot column below the pivot, and a back-substitution then clears it
above.  Only the pivot rows handed back are ever turned into ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
  """(numerators, denominator): the entries of ``row`` (ints and Fractions)
  as integer numerators over the lcm of their denominators."""
  row = tuple(row)
  denom = lcm(*(x.denominator for x in row))
  return [x.numerator * (denom // x.denominator) for x in row], denom


def _eliminate(row, prow, c):
  """``row`` with column ``c`` cleared by the pivot row ``prow``, divided by
  the gcd of its entries: ``(p/g)·row − (f/g)·prow`` with g = gcd(p, f)."""
  p, f = prow[c], row[c]
  g = gcd(p, f)
  a, b = p // g, f // g
  out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
  for k, y in prow.items():
    x = out.get(k, 0) - b * y
    if x:
      out[k] = x
    else:
      del out[k]
  g = gcd(*out.values())
  return {k: x // g for k, x in out.items()} if g > 1 else out


def rref(rows, n_cols: int):
  """Reduced row echelon form of the sparse ``rows`` over the columns
  ``0 .. n_cols - 1``.

  Each row is a ``{column: value}`` map of ints and Fractions.  Column by
  column, the first row at or below the current rank with a nonzero entry
  is swapped up and the column is cleared in every row below it; the pivot
  rows are then reduced from the last up.  Entries at columns from
  ``n_cols`` on (a right-hand side, say) are carried along but never chosen
  as pivots.

  Returns (reduced, pivots, order).  The first ``len(pivots)`` reduced rows
  hold the pivots, as maps to ``Fraction``s scaled to 1 at their pivot
  column; ``pivots`` is the column of each.  The leftover rows are integer
  maps that hold the eliminated rows only up to a nonzero factor, so callers
  test them against zero and nothing else.  ``order[k]`` is the index of the
  input row that ended up as reduced row ``k``.  Pivots, order and leftover
  rows are those of a Gauss-Jordan elimination with the same pivot rule,
  which updates the rows below the rank by the same pivot rows.

  Only pivot rows are ever added to another row.  So a leftover row is its
  own input row plus a combination of the inputs ``order[:len(pivots)]``,
  which callers that need it can recover with one more solve.
  """
  rows = [{k: x for k, x in zip(row, _integer_row(row.values())[0]) if x}
          for row in rows]
  order = list(range(len(rows)))
  pivots = []
  for c in range(n_cols):
    rank = len(pivots)
    pivot = next((i for i in range(rank, len(rows)) if c in rows[i]), None)
    if pivot is None:
      continue
    rows[rank], rows[pivot] = rows[pivot], rows[rank]
    order[rank], order[pivot] = order[pivot], order[rank]
    prow = rows[rank]
    for i in range(rank + 1, len(rows)):
      if c in rows[i]:
        rows[i] = _eliminate(rows[i], prow, c)
    pivots.append(c)
  for k in range(len(pivots) - 2, -1, -1):
    for j in range(k + 1, len(pivots)):
      if pivots[j] in rows[k]:
        rows[k] = _eliminate(rows[k], rows[j], pivots[j])
  for k, c in enumerate(pivots):
    p = rows[k][c]
    rows[k] = {col: Fraction(x, p) for col, x in rows[k].items()}
  return rows, pivots, order
