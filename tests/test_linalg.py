"""The fraction-free elimination against a tracked Fraction elimination.

``tracked_rref`` is the textbook Gauss-Jordan elimination over Fractions on
dense rows, with the same pivot rule as ``linalg.rref``, that also carries
each row's combination of the input rows.  ``linalg.rref`` eliminates sparse
rows and must reproduce its pivots, pivot rows and row order, and the
splitting certificate recovered by one extra solve must be the combination
this elimination tracks.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.cohomology import (PairingTable, SplittingInfeasible,
                                   compute_pairing, default_probes,
                                   inversion_count_function, solve_splitting)
from configcalc.configspace import quantity_to_json
from configcalc.interactions import by_name, conserved_basis
from configcalc.linalg import _integer_row, rref
from configcalc.locales import Euclidean, box
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


def dense(row, width):
  return [row.get(k, 0) for k in range(width)]


def check_against_tracked(rows, n_cols, width):
  """``rref`` on ``rows`` as maps (zero entries kept) against the tracked
  elimination of the dense rows."""
  reduced, pivots, order = rref([dict(enumerate(r)) for r in rows], n_cols)
  ref_rows, ref_pivots, ref_combos, ref_order = tracked_rref(rows, n_cols)
  rank = len(pivots)
  assert pivots == ref_pivots
  assert order == ref_order
  for row in reduced:
    assert all(row.values()) and set(row) <= set(range(width))
  assert all(type(x) is Fraction for row in reduced[:rank] for x in row.values())
  assert [dense(row, width) for row in reduced[:rank]] == ref_rows[:rank]
  for row, ref in zip(reduced[rank:], ref_rows[rank:]):
    # a leftover row holds only up to a nonzero factor
    row = dense(row, width)
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


rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
entry = st.one_of(st.just(Fraction(0)), rational)


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7),
    st.integers(0, width))))
def test_rref_matches_the_tracked_elimination(case):
  rows, n_cols = case
  check_against_tracked(rows, n_cols, len(rows[0]) if rows else 0)


def splitting_shaped_system(rng, n_rows, side, dim, perturbed):
  """The equations h(a) + h(b) - h(a+b) = v over the quantities of a
  ``side``^``dim`` grid, with a and b drawn at random so that a + b is in
  the grid and v read off a hidden h, then ``perturbed`` right-hand sides
  shifted; plus the pin h(0) = 0.  Linear functions solve the homogeneous
  equations, so the rank falls short of the unknowns and the reduced rows
  keep entries past their pivots."""
  grid = sorted(product(range(side), repeat=dim))
  col = {q: i for i, q in enumerate(grid)}
  hidden = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in grid]
  hidden[0] = Fraction(0)
  rows = []
  while len(rows) < n_rows:
    a, b = rng.choice(grid), rng.choice(grid)
    ab = tuple(x + y for x, y in zip(a, b))
    if ab not in col:
      continue
    row = [0] * (len(grid) + 1)
    for q, x in ((a, 1), (b, 1), (ab, -1)):
      row[col[q]] += x
      row[-1] += x * hidden[col[q]]
    rows.append(row)
  for row in rng.sample(rows, perturbed):
    row[-1] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
  rows.append([int(k == 0) for k in range(len(grid))] + [0])
  return rows


@pytest.mark.parametrize("seed", range(8))
def test_rref_matches_the_tracked_elimination_on_splitting_shapes(seed):
  rng = random.Random(seed)
  dim = 1 + seed % 2
  side = rng.randint(20, 45) if dim == 1 else rng.randint(5, 6)
  rows = splitting_shaped_system(rng, rng.randint(50, 300), side, dim,
                                 perturbed=seed % 3)
  n_unknowns = len(rows[0]) - 1
  check_against_tracked(rows, n_unknowns, n_unknowns + 1)


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


def check_certificate(table):
  expected = reference_certificate(table)
  try:
    solve_splitting(table)
  except SplittingInfeasible as exc:
    assert exc.certificate == expected
  else:
    assert expected is None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.lists(
    st.tuples(st.tuples(*[quantity] * dim), st.tuples(*[quantity] * dim),
              rational),
    min_size=1, max_size=14)))
def test_certificate_is_the_tracked_combination(cells):
  table = PairingTable(basis=tuple(range(len(cells[0][0]))), radius=0)
  for alpha, beta, value in cells:
    table.cells[(alpha, beta)] = value
  check_certificate(table)


@pytest.mark.parametrize("seed", range(12))
def test_certificate_is_the_tracked_combination_on_wide_tables(seed):
  """Up to 60 cells in one to three quantity dimensions, with negative and
  fractional entries, whose values come from a splitting h with none, one
  or two cells then shifted."""
  rng = random.Random(seed)
  dim = 1 + seed // 4
  spread = ([Fraction(k, 2) for k in range(-4, 5) if k]
            if seed % 4 == 3 else [Fraction(k) for k in range(-3, 4) if k])
  # small combinations of two generators, so that sums of quantities are
  # quantities again and the equations close cycles
  gens = [tuple(rng.choice(spread) for _ in range(dim)) for _ in range(2)]
  pool = sorted({tuple(i * x + j * y for x, y in zip(*gens))
                 for i in range(-2, 3) for j in range(-1, 2)})
  h = {tuple(Fraction(0) for _ in range(dim)): Fraction(0)}

  def h_of(q):
    if q not in h:
      h[q] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return h[q]

  table = PairingTable(basis=tuple(range(dim)), radius=0)
  for _ in range(rng.randint(20, 60)):
    # ordered pairs only: a mirrored pair would certify in two terms
    alpha, beta = sorted((rng.choice(pool), rng.choice(pool)))
    table.cells[(alpha, beta)] = h_of(alpha) + h_of(beta) - h_of(
        tuple(x + y for x, y in zip(alpha, beta)))
  for key in rng.sample(sorted(table.cells), seed % 3):
    table.cells[key] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
  check_certificate(table)


def test_inversion_count_certificate_is_the_tracked_combination():
  """The infeasible splitting of the inversion count's pairing on line(7)
  multispecies:2, probed on balls of radius 2 as the benchmark probes it."""
  win = box(Euclidean(1), (0,), (6,))
  inter = by_name("multispecies:2")
  basis = conserved_basis(inter)
  f = inversion_count_function(win, inter)
  probes = default_probes(win, inter, 0, ball_radius=2)
  table = compute_pairing(f, win, inter, basis, 0, probes)
  expected = reference_certificate(table)
  assert expected is not None
  with pytest.raises(SplittingInfeasible) as exc:
    solve_splitting(table)
  assert exc.value.certificate == expected


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
