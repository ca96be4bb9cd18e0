"""Exact Gauss-Jordan elimination over the rationals: the one elimination
behind conserved bases, splitting certificates, cocycle solves and the
inverses of translation generator matrices."""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows, n_cols: int):
  """Reduced row echelon form of ``rows`` over their first ``n_cols`` columns.

  Column by column, the first row at or below the current rank with a
  nonzero entry is swapped up and scaled to 1, and the column is cleared in
  every other row.  Entries past ``n_cols`` (a right-hand side, say) are
  carried along but never chosen as pivots.

  Returns (reduced, pivots, combos): all reduced rows, the first
  ``len(pivots)`` of them holding the pivots; the pivot column of each; and
  for each reduced row its combination ``{original row index: coefficient}``
  of the input rows, which may list zero coefficients.
  """
  rows = [list(r) for r in rows]
  combos = [{i: ONE} for i in range(len(rows))]
  pivots = []
  for c in range(n_cols):
    rank = len(pivots)
    pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
    if pivot is None:
      continue
    rows[rank], rows[pivot] = rows[pivot], rows[rank]
    combos[rank], combos[pivot] = combos[pivot], combos[rank]
    inv = ONE / rows[rank][c]
    prow = rows[rank] = [x * inv for x in rows[rank]]
    pcombo = combos[rank] = {k: v * inv for k, v in combos[rank].items()}
    for i, row in enumerate(rows):
      factor = row[c]
      if i == rank or factor == 0:
        continue
      rows[i] = [a - factor * b if b else a for a, b in zip(row, prow)]
      combo = combos[i]
      for k, v in pcombo.items():
        combo[k] = combo.get(k, ZERO) - factor * v
    pivots.append(c)
  return rows, pivots, combos
