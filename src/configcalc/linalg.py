"""Exact Gauss-Jordan elimination over the rationals, computed on sparse
integer rows: the one elimination behind conserved bases, splitting
certificates, cocycle solves and the inverses of translation generator
matrices.

A row is a ``{column: value}`` map that holds only its nonzero entries.  Each
input row is scaled to integers once.  The elimination is left-looking, in
the manner of Gilbert and Peierls (1988): only the pivot rows are ever
rewritten, each kept reduced on every pivot found so far by fraction-free
steps (Bareiss 1968, with a gcd division in place of the exact quotient).
A row below the rank is only tested, by its residual at a column, read off
the pivot rows that its own entries name, so the eliminations follow the
rank, not the number of rows.  Each such row keeps its lead, the first
column where its residual is nonzero, and is read again only after a pivot
lands on that column, so a row in the span of the pivots is read once.
Only the pivot rows handed back are ever turned into ``Fraction``s.
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
  the gcd of its entries: ``(p/g)·row − (f/g)·prow`` with g = gcd(p, f).
  ``rref`` calls it only to form a new pivot row and to clear the new pivot
  column from the pivot rows before it."""
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


def _residual(row, c, reduced):
  """x_c − Σ x_j·R_j[c]/R_j[j] over the entries x_j of ``row`` at the pivot
  columns j of ``reduced`` (pivot column j -> pivot row R_j), times the
  common factor Π R_j[j]: up to that factor, the entry that Gauss-Jordan
  leaves in ``row`` at column c."""
  num, den = row.get(c, 0), 1
  for j, x in row.items():
    prow = reduced.get(j)
    if prow is not None:
      p = prow[j]
      num, den = num * p - den * x * prow.get(c, 0), den * p
  return num


def _lead(row, c, n_cols, reduced):
  """The first column from ``c`` on, below ``n_cols``, where the residual of
  ``row`` is nonzero, or ``n_cols`` when there is none.  Only the columns
  that ``row`` and its pivot rows hold can be nonzero, so only they are
  read."""
  for k in sorted(set(row).union(*[reduced[j] for j in row if j in reduced])):
    if c <= k < n_cols and _residual(row, k, reduced):
      return k
  return n_cols


def rref(rows, n_cols: int):
  """Reduced row echelon form of the sparse ``rows`` over the columns
  ``0 .. n_cols - 1``.

  Each row is a ``{column: value}`` map of ints and Fractions.  Only pivot
  rows are ever rewritten, and they are kept reduced on every pivot found so
  far.  Each row at or below the current rank keeps its lead (see
  ``_lead``), read when the search first reaches it.  A residual does not
  change while pivots land where it is zero, so a lead holds until a pivot
  lands on it; a lead below the current column is read again.  Column by
  column, the search walks the rows from the rank to the first whose lead
  is the column; that row is swapped up with its order and lead, reduced
  against the pivot rows, and its column is cleared from the pivot rows
  that hold it.  Entries at columns from ``n_cols`` on (a right-hand side,
  say) are carried along but never chosen as pivots.

  Returns (reduced, pivots, order).  The first ``len(pivots)`` reduced rows
  hold the pivots, as maps to ``Fraction``s scaled to 1 at their pivot
  column; ``pivots`` is the column of each.  The leftover rows are integer
  maps: each is its input row's residual on the columns from ``n_cols`` on,
  over one nonzero factor, so callers test them against zero and nothing
  else.  ``order[k]`` is the index of the input row that ended up as
  reduced row ``k``.  A row's residual is the entry that a Gauss-Jordan
  elimination with the same pivot rule leaves in it, so pivots, order and
  leftover rows are that elimination's.

  A leftover row is never rewritten: its residual is its own input row plus
  a combination of the inputs ``order[:len(pivots)]``, which callers that
  need it can recover with one more solve.
  """
  rows = [{k: x for k, x in zip(row, _integer_row(row.values())[0]) if x}
          for row in rows]
  order = list(range(len(rows)))
  pivots = []
  reduced = {}  # pivot column j -> pivot row R_j, reduced, its scale R_j[j]
  leads = [-1] * len(rows)  # per place; one below the column is stale
  for c in range(n_cols):
    rank = len(pivots)
    for pivot in range(rank, len(rows)):
      if leads[pivot] < c:
        leads[pivot] = _lead(rows[pivot], c, n_cols, reduced)
      if leads[pivot] == c:
        break
    else:
      continue
    for seq in (rows, order, leads):
      seq[rank], seq[pivot] = seq[pivot], seq[rank]
    prow = rows[rank]
    for j in [j for j in prow if j in reduced]:
      prow = _eliminate(prow, reduced[j], j)
    for j, row in reduced.items():
      if c in row:
        reduced[j] = _eliminate(row, prow, c)
    reduced[c] = prow
    pivots.append(c)
  for i in range(len(pivots), len(rows)):
    row = rows[i]
    tail = {k for r in [row, *(reduced[j] for j in row if j in reduced)]
            for k in r if k >= n_cols}
    rows[i] = {k: x for k in sorted(tail) if (x := _residual(row, k, reduced))}
  for k, c in enumerate(pivots):
    p = reduced[c][c]
    rows[k] = {col: Fraction(x, p) for col, x in reduced[c].items()}
  return rows, pivots, order
