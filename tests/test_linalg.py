"""The fraction-free elimination against a tracked Fraction elimination.

``tracked_rref`` is the textbook Gauss-Jordan elimination over Fractions,
with the same pivot rule as ``linalg.rref``, that also carries each row's
combination of the input rows.  ``linalg.rref`` must reproduce its pivots,
pivot rows and row order, and the splitting certificate recovered by one
extra solve must be the combination this elimination tracks.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.cohomology import (PairingTable, SplittingInfeasible,
                                   solve_splitting)
from configcalc.configspace import quantity_to_json
from configcalc.linalg import _integer_row, rref
from configcalc.serialize import fraction_to_str


def tracked_rref(rows, n_cols):
  """(reduced, pivots, combos, order): pivot rows scaled to 1, their
  columns, each reduced row's ``{input index: coefficient}`` and its input
  index."""
  rows = [[Fraction(x) for x in r] for r in rows]
  combos = [{i: Fraction(1)} for i in range(len(rows))]
  order = list(range(len(rows)))
  pivots = []
  for c in range(n_cols):
    rank = len(pivots)
    pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
    if pivot is None:
      continue
    for seq in (rows, combos, order):
      seq[rank], seq[pivot] = seq[pivot], seq[rank]
    inv = 1 / rows[rank][c]
    prow = rows[rank] = [x * inv for x in rows[rank]]
    pcombo = combos[rank] = {k: v * inv for k, v in combos[rank].items()}
    for i, row in enumerate(rows):
      factor = row[c]
      if i == rank or factor == 0:
        continue
      rows[i] = [a - factor * b for a, b in zip(row, prow)]
      for k, v in pcombo.items():
        combos[i][k] = combos[i].get(k, 0) - factor * v
    pivots.append(c)
  return rows, pivots, combos, order


rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
entry = st.one_of(st.just(Fraction(0)), rational)


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7),
    st.integers(0, width))))
def test_rref_matches_the_tracked_elimination(case):
  rows, n_cols = case
  reduced, pivots, order = rref(rows, n_cols)
  ref_rows, ref_pivots, ref_combos, ref_order = tracked_rref(rows, n_cols)
  rank = len(pivots)
  assert pivots == ref_pivots
  assert order == ref_order
  assert reduced[:rank] == ref_rows[:rank]
  for row, ref in zip(reduced[rank:], ref_rows[rank:]):
    # a leftover row holds only up to a nonzero factor
    lead = next((k for k, x in enumerate(ref) if x), None)
    if lead is None:
      assert not any(row)
    else:
      factor = Fraction(row[lead]) / ref[lead]
      assert [Fraction(x) for x in row] == [factor * x for x in ref]
  # What the certificate recovery rests on: a leftover row is its own input
  # plus a combination of the inputs that became pivots.
  for k in range(rank, len(rows)):
    combo = {i: v for i, v in ref_combos[k].items() if v}
    assert combo.pop(order[k]) == 1
    assert set(combo) <= set(order[:rank])


def reference_certificate(table):
  """The splitting certificate read off the tracked elimination of the
  equations h(a) + h(b) - h(a+b) = cell and h(0) = pin, or None."""
  def add(a, b):
    return tuple(x + y for x, y in zip(a, b))

  zero = table.zero_vector()
  unknowns = {zero}
  for alpha, beta in table.cells:
    unknowns.update((alpha, beta, add(alpha, beta)))
  cols = {v: i for i, v in enumerate(sorted(unknowns))}
  n = len(cols)
  rows, equations = [], []
  for (alpha, beta), val in sorted(table.cells.items()):
    row = [0] * n + [val]
    row[cols[alpha]] += 1
    row[cols[beta]] += 1
    row[cols[add(alpha, beta)]] -= 1
    rows.append(row)
    equations.append({"cell": {"a": quantity_to_json(alpha),
                               "b": quantity_to_json(beta)},
                      "value": fraction_to_str(val)})
  pin = table.cells.get((zero, zero), Fraction(0))
  rows.append([int(v == zero) for v in sorted(cols)] + [pin])
  equations.append({"pin": quantity_to_json(zero),
                    "value": fraction_to_str(pin)})
  reduced, pivots, combos, _ = tracked_rref(rows, n)
  for row, combo in zip(reduced[len(pivots):], combos[len(pivots):]):
    if row[n] != 0:
      return {"combination": [
                  dict(equations[i], coefficient=fraction_to_str(coef))
                  for i, coef in sorted(combo.items()) if coef != 0],
              "contradiction": fraction_to_str(row[n])}
  return None


quantity = st.integers(0, 2).map(Fraction)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.lists(
    st.tuples(st.tuples(*[quantity] * dim), st.tuples(*[quantity] * dim),
              rational),
    min_size=1, max_size=14)))
def test_certificate_is_the_tracked_combination(cells):
  table = PairingTable(basis=tuple(range(len(cells[0][0]))), radius=0)
  for alpha, beta, value in cells:
    table.cells[(alpha, beta)] = value
  expected = reference_certificate(table)
  try:
    solve_splitting(table)
  except SplittingInfeasible as exc:
    assert exc.certificate == expected
  else:
    assert expected is None


def old_integer_row(row):
  """The idiom the helper replaces: numerators over the lcm, spelled out."""
  denom = lcm(*(x.denominator for x in row))
  return [x.numerator * (denom // x.denominator) for x in row], denom


@pytest.mark.parametrize("row", [
    [], [0], [3, -6, 0, 9], [Fraction(1, 2), Fraction(-2, 3), Fraction(0)],
    [Fraction(5, 4), 2, -1, Fraction(7, 6)], [Fraction(-3, 9), 4],
    [Fraction(1, 10 ** 20), 10 ** 20]])
def test_integer_row_is_numerators_over_the_lcm(row):
  assert _integer_row(row) == old_integer_row(row)
  assert _integer_row(iter(row)) == old_integer_row(row)
  nums, denom = _integer_row(row)
  assert [Fraction(k, denom) for k in nums] == row


@given(st.lists(st.fractions(max_denominator=30) | st.integers(-50, 50),
                max_size=6))
def test_integer_row_matches_the_old_idiom(row):
  assert _integer_row(row) == old_integer_row(row)
