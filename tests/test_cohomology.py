"""Pairing tables, splitting, uniformization, and the degree-zero count.

The quadratic-defect oracle is frozen from a hand computation: for the
single-species hop with f(eta) = q(sum eta)^2 on a long interval the pairing
cell at (alpha, beta) is 2*alpha*beta and the splitting solves to
h(n) = -n^2 + n on the chain of multiples.
"""

import random
from fractions import Fraction

import pytest

from itertools import product

from configcalc.calculus import (LocalFunction, differential,
                                 exact_support_radius, expansion,
                                 from_callable, functions_equal)
from configcalc.cohomology import (PairingNotWellDefined, SplittingInfeasible,
                                   check_pairing_laws, compute_pairing,
                                   default_probes, h_zero_report,
                                   inversion_count_function,
                                   ordered_flux_form, pairing_table_to_json,
                                   pairing_table_from_json, set_distance,
                                   solve_splitting, splitting_to_json,
                                   uniformize)
from configcalc.configspace import quantity_of, quantity_to_json
from configcalc.serialize import InputError, fraction_to_str
from configcalc.interactions import (by_name, conserved_basis, exclusion,
                                     multispecies)
from configcalc.locales import Euclidean, box


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


def quadratic_table(n_sites=13):
  win = line(n_sites)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  return compute_pairing(f, win, inter, basis, radius=5), basis


def test_quadratic_defect_pairing_cells():
  table, basis = quadratic_table()
  # alpha, beta run over particle counts encoded as quantity tuples
  for a in range(4):
    for b in range(4):
      key = ((Fraction(a),), (Fraction(b),))
      if key in table.cells:
        assert table.cells[key] == 2 * a * b, (a, b)
  assert any(k[0] == (Fraction(2),) and k[1] == (Fraction(3),)
             for k in table.cells)


def test_quadratic_defect_split_frozen_values():
  # chain probes: growing left block against one far-right site, so every
  # consecutive cell (k, 1) is present and the constructive method applies
  win = line(13)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  probes = [(tuple((x,) for x in range(k)), ((11,),)) for k in range(1, 6)]
  table = compute_pairing(f, win, inter, basis, radius=3, probes=probes)
  split = solve_splitting(table)
  assert split["method"] == "chain-iteration"
  h = split["h"]
  frozen = {2: -2, 3: -6, 4: -12, 5: -20, 6: -30}
  for n, val in frozen.items():
    assert h[(Fraction(n),)] == val, n
  assert h[(Fraction(0),)] == 0 and h[(Fraction(1),)] == 0


def test_split_kills_the_defect():
  # h(a+b) - h(a) - h(b) = -H(a, b) on every tabulated cell
  table, basis = quadratic_table()
  split = solve_splitting(table)
  h = split["h"]
  for (a, b), val in table.cells.items():
    total = tuple(x + y for x, y in zip(a, b))
    if total in h and a in h and b in h:
      assert h[total] - h[a] - h[b] == -val


def test_pairing_laws_hold_for_symmetric_table():
  table, basis = quadratic_table(11)
  rep = check_pairing_laws(table)
  assert rep["cocycle"]["ok"]
  assert rep["cocycle"]["checked"] > 0
  assert rep["symmetry"]["ok"]
  assert rep["symmetry"]["checked"] > 0


def test_asymmetric_table_is_infeasible_with_certificate():
  win = line(9)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  f = inversion_count_function(win, inter)
  table = compute_pairing(f, win, inter, basis, radius=3)

  low = (Fraction(1), Fraction(0))
  high = (Fraction(0), Fraction(1))
  assert table.cells[(low, high)] == 1
  assert table.cells[(high, low)] == 0

  rep = check_pairing_laws(table)
  assert rep["cocycle"]["ok"]
  assert not rep["symmetry"]["ok"]
  assert rep["symmetry"]["violations"]

  with pytest.raises(SplittingInfeasible) as exc:
    solve_splitting(table)
  cert = exc.value.certificate
  # the certificate is a rational combination of defining equations whose
  # unknowns cancel while the right-hand sides add to something nonzero;
  # replay it against the table
  total = Fraction(0)
  unknown_balance = {}
  for entry in cert["combination"]:
    coeff = Fraction(entry["coefficient"])
    total += coeff * Fraction(entry["value"])
    if "cell" in entry:
      a = tuple(Fraction(x) for x in entry["cell"]["a"])
      b = tuple(Fraction(x) for x in entry["cell"]["b"])
      assert table.cells[(a, b)] == Fraction(entry["value"])
      s = tuple(x + y for x, y in zip(a, b))
      for q, w in ((a, coeff), (b, coeff), (s, -coeff)):
        unknown_balance[q] = unknown_balance.get(q, Fraction(0)) + w
    else:
      q = tuple(Fraction(x) for x in entry["pin"])
      unknown_balance[q] = unknown_balance.get(q, Fraction(0)) + coeff
  assert all(v == 0 for v in unknown_balance.values())
  assert total == Fraction(cert["contradiction"])
  assert total != 0


def test_pairing_orientation_is_left_to_right():
  win = line(9)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  f = inversion_count_function(win, inter)
  table = compute_pairing(f, win, inter, basis, radius=3)
  # a lone low-species particle LEFT of a high-species one contributes the
  # inversion; the mirrored order does not
  low = (Fraction(1), Fraction(0))
  high = (Fraction(0), Fraction(1))
  assert table.cells[(low, high)] != table.cells[(high, low)]


def reference_pairing(f, window, inter, basis, probes):
  """The pairing as its definition reads: value_at and quantity_of at every
  assignment of each probe pair, in product order.  Returns the cells in
  insertion order, the probe records and the first conflict's witness."""
  enc = window.locale.encode_vertex
  cells, provenance, records = {}, {}, []
  for first, second in probes:
    union = tuple(sorted(first + second))
    records.append({"first": [enc(v) for v in first],
                    "second": [enc(v) for v in second],
                    "distance": set_distance(first, second, window.locale)})
    for digits in product(range(inter.n_states), repeat=len(union)):
      assign = dict(zip(union, digits))
      defect = (f.value_at(assign)
                - f.value_at({v: assign[v] for v in first})
                - f.value_at({v: assign[v] for v in second}))
      key = tuple(tuple(map(Fraction, quantity_of([assign[v] for v in part],
                                                  basis)))
                  for part in (first, second))
      if key not in cells:
        cells[key] = defect
        provenance[key] = records[-1]
      elif cells[key] != defect:
        return cells, records, {
            "cell": {"a": quantity_to_json(key[0]),
                     "b": quantity_to_json(key[1])},
            "values": [fraction_to_str(cells[key]), fraction_to_str(defect)],
            "probes": [provenance[key], records[-1]],
        }
  return cells, records, None


@pytest.mark.parametrize("name", ["multispecies:2", "spin3", "pair-flip"])
def test_pairing_matches_reference(name):
  inter = by_name(name)
  basis = conserved_basis(inter)
  win = line(9)
  probes = default_probes(win, inter, radius=1)
  # a square of the window quantity plus a radius-1 term is well defined;
  # a random table over sites in both probe halves is not
  rng = random.Random(7)
  defined = from_callable(
      win.vertices, inter.n_states, inter.base,
      lambda d: sum(quantity_of(d, basis), Fraction(0)) ** 2 + 3 * d[3] * d[4])
  support = ((2,), (3,), (5,), (6,))
  arbitrary = LocalFunction(support, inter.n_states, inter.base, tuple(
      Fraction(rng.randint(-9, 9), rng.randint(1, 4))
      for _ in range(inter.n_states ** len(support))))
  cells, records, conflict = reference_pairing(defined, win, inter, basis,
                                               probes)
  assert conflict is None
  table = compute_pairing(defined, win, inter, basis, 1, probes)
  assert list(table.cells.items()) == list(cells.items())
  assert table.probes == records
  if not basis:
    assert list(table.cells) == [((), ())]
  _, _, conflict = reference_pairing(arbitrary, win, inter, basis, probes)
  assert conflict is not None
  with pytest.raises(PairingNotWellDefined) as exc:
    compute_pairing(arbitrary, win, inter, basis, 1, probes)
  assert exc.value.witness == conflict


def test_default_probes_are_oriented_on_the_line():
  win = line(13)
  inter = exclusion()
  probes = default_probes(win, inter, radius=3)
  assert probes
  for first, second in probes:
    assert max(v[0] for v in first) < min(v[0] for v in second)


def test_pairing_requires_enough_room():
  win = line(3)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  with pytest.raises(InputError):
    compute_pairing(f, win, inter, basis, radius=5)


def test_uniformize_flattens_quadratic_counter():
  # f = (particle count)^2 has exact-support pieces across every site pair;
  # adding the right function of the count must collapse it to a sum of
  # single-site terms
  win = line(13)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  rep = uniformize(f, win, inter, basis, radius=1)
  assert rep["uniform"]["uniform"]
  assert rep["criterion_ok"]
  g = rep["g"]
  assert exact_support_radius(g, win.locale) == 0
  pieces = expansion(g)
  assert all(len(s) <= 1 for s in pieces)
  # the correction is quadratic with a linear kernel: g is c * count
  region = g.support
  one = {region[0]: 1}
  c = g.value_at(one) - g.value_at({})
  for digits in product(range(2), repeat=len(region)):
    assign = dict(zip(region, digits))
    assert g.value_at(assign) == g.value_at({}) + c * sum(digits)


def test_uniformize_leaves_uniform_function_uniform():
  win = line(13)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(3) * sum(d))
  rep = uniformize(f, win, inter, basis, radius=1)
  assert rep["uniform"]["uniform"]
  assert rep["criterion_ok"]


def test_h_zero_counts_components_by_quantity():
  win = line(3)
  inter = exclusion()
  basis = conserved_basis(inter)
  rep = h_zero_report(win, inter, basis)
  assert rep["h0_dimension"] == 4
  assert rep["c_phi"] == 1
  assert rep["n_quantity_fibers"] == 4
  assert rep["quantities_separate_components"]


def test_h_zero_two_species():
  win = line(2)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  rep = h_zero_report(win, inter, basis)
  # quantities (n1, n2) with n1 + n2 <= 2: six fibers
  assert rep["n_quantity_fibers"] == 6
  assert rep["h0_dimension"] == 6
  assert rep["quantities_separate_components"]


def test_h_zero_flags_quantity_blind_disconnection():
  win = line(4)
  inter = by_name("pair-flip")
  basis = conserved_basis(inter)
  rep = h_zero_report(win, inter, basis)
  assert not rep["quantities_separate_components"]
  assert rep["fiber_witness"] is not None
  assert rep["h0_dimension"] > rep["n_quantity_fibers"]


def test_ordered_flux_is_differential_of_inversions():
  win = line(7)
  inter = multispecies(2)
  f = inversion_count_function(win, inter)
  omega = ordered_flux_form(win, inter)
  df = differential(f, win, inter)
  for e in set(omega.fns) | set(df.fns):
    x = omega.fn(e)
    y = df.fn(e)
    if x is None or y is None:
      assert (x or y).is_zero(), e
    else:
      assert functions_equal(x, y), e


def test_pairing_table_json_roundtrip():
  table, basis = quadratic_table(11)
  obj = pairing_table_to_json(table)
  back = pairing_table_from_json(obj, basis)
  assert back.cells == table.cells


def test_splitting_json_shape():
  table, basis = quadratic_table(11)
  split = solve_splitting(table)
  obj = splitting_to_json(split)
  assert obj["method"] in ("chain-iteration", "linear-solve")
  entries = {tuple(Fraction(x) for x in row["q"]): Fraction(row["v"])
             for row in obj["h"]}
  assert entries == split["h"]
