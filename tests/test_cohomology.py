"""Pairing tables, splitting, uniformization, and the degree-zero count.

The quadratic-defect oracle is frozen from a hand computation: for the
single-species hop with f(eta) = q(sum eta)^2 on a long interval the pairing
cell at (alpha, beta) is 2*alpha*beta and the splitting solves to
h(n) = -n^2 + n on the chain of multiples.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itertools import product

from configcalc.calculus import (LocalFunction, _pieces_radius,
                                 differential, expansion, from_callable,
                                 functions_equal)
from configcalc.cohomology import (PairingNotWellDefined, PairingTable,
                                   SplittingInfeasible, _chain_splitting,
                                   _pairing, check_pairing_laws,
                                   compute_pairing, default_probes,
                                   h_zero_report, inversion_count_function,
                                   ordered_flux_form, pairing_table_to_json,
                                   pairing_table_from_json, set_distance,
                                   solve_splitting, splitting_to_json,
                                   uniformize)
from configcalc.configspace import (fibers_report, quantity_of,
                                    quantity_to_json)
from configcalc.serialize import InputError, fraction_to_str
from configcalc.interactions import (by_name, conserved_basis, exclusion,
                                     multispecies, spin3)
from configcalc.locales import (Euclidean, Hexagonal, NNeighbor, Triangular,
                                box)


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


def quadratic_table(n_sites=13):
  win = line(n_sites)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  return compute_pairing(f, win, inter, basis, radius=5), basis


@pytest.mark.parametrize("probes,budget,message", [
    ([(((0,), (1,)), ((1,), (5,)))], 200_000, "probe sets overlap"),
    ([(((0,),), ((1,),))], 200_000,
     "probe pair at distance 1 is not separated beyond 1"),
    ([(((0,), (1,), (2,)), ((6,), (7,), (8,)))], 32,
     "probe pair over 6 sites exceeds budget")])
def test_explicit_probes_are_checked_before_they_are_read(probes, budget,
                                                          message):
  win = line(9)
  inter = exclusion()
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)))
  with pytest.raises(InputError) as err:
    compute_pairing(f, win, inter, conserved_basis(inter), 1, probes, budget)
  assert str(err.value) == message


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



def test_quadratic_defect_split_walks_the_negative_chain():
  # spin3 quantities take both signs, so the chain also steps down through
  # the cells (1, -1) and (-k, -1)
  win = line(13)
  inter = spin3()
  basis = conserved_basis(inter)
  probes = [(tuple((x,) for x in range(k)), ((11,),)) for k in range(1, 6)]
  sites = tuple((x,) for x in range(5)) + ((11,),)
  f = from_callable(sites, inter.n_states, inter.base,
                    lambda d: Fraction(sum(inter.states[s] for s in d)) ** 2)
  table = compute_pairing(f, win, inter, basis, radius=3, probes=probes)
  split = solve_splitting(table)
  assert split["method"] == "chain-iteration"
  assert split["h"] == {(Fraction(q),): Fraction(-q * q + q) for q in range(-6, 7)}

@pytest.mark.parametrize("cells", [
    # 3 is not an integer multiple of the primitive 2
    [(2, 3)],
    # the negative chain has no cell (1, -1)
    [(1, 1), (-1, -1)],
    # it has (1, -1) but no (-1, -1)
    [(1, -1), (-2, -1)],
], ids=["not-a-multiple", "no-first-negative-cell", "no-next-negative-cell"])
def test_chain_refusal_falls_back_to_the_linear_solve(cells):
  def h(q):
    return Fraction(q * q, 3) - q

  table = PairingTable(basis=(0,), radius=0)
  for a, b in cells:
    table.cells[((Fraction(a),), (Fraction(b),))] = h(a) + h(b) - h(a + b)
  assert _chain_splitting(table) is None
  split = solve_splitting(table)
  assert split["method"] == "linear-solve"
  got = split["h"]
  for (alpha, beta), val in table.cells.items():
    assert got[alpha] + got[beta] - got[(alpha[0] + beta[0],)] == val


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


def test_pairing_cells_are_keyed_by_raw_quantity_sums():
  """A computed table keys its cells by the raw quantity sums, int tuples
  for the conserved basis; they hash and compare like the Fraction tuples
  of a JSON table, so the two key formats give one dict."""
  table, basis = quadratic_table(11)
  for key, value in table.cells.items():
    assert type(value) is Fraction
    for q in key:
      assert type(q) is tuple and all(type(x) is int for x in q)
  as_fractions = {tuple(tuple(map(Fraction, q)) for q in key): value
                  for key, value in table.cells.items()}
  assert table.cells == as_fractions
  assert table.zero_vector() == (0,) * len(basis)


def reference_laws(table):
  """check_pairing_laws as a loop over all pairs of cells."""
  def add(a, b):
    return tuple(x + y for x, y in zip(a, b))

  cells = table.cells
  cocycle, cocycle_bad = 0, []
  for (alpha, beta), v1 in cells.items():
    for (beta2, gamma), v3 in cells.items():
      if beta2 != beta:
        continue
      k2, k4 = (add(alpha, beta), gamma), (alpha, add(beta, gamma))
      if k2 in cells and k4 in cells:
        cocycle += 1
        if v1 + cells[k2] != v3 + cells[k4]:
          cocycle_bad.append({"alpha": quantity_to_json(alpha),
                              "beta": quantity_to_json(beta),
                              "gamma": quantity_to_json(gamma)})
  symmetry, symmetry_bad = 0, []
  for (alpha, beta), v in sorted(cells.items()):
    if (beta, alpha) in cells:
      symmetry += 1
      if cells[(beta, alpha)] != v:
        symmetry_bad.append({"a": quantity_to_json(alpha),
                             "b": quantity_to_json(beta),
                             "values": [fraction_to_str(v),
                                        fraction_to_str(cells[(beta, alpha)])]})
  return {"cocycle": {"checked": cocycle, "ok": not cocycle_bad,
                      "violations": cocycle_bad[:5]},
          "symmetry": {"checked": symmetry, "ok": not symmetry_bad,
                       "violations": symmetry_bad[:5]}}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]))
def test_pairing_laws_match_the_all_pairs_loop(seed, n_bad, scale):
  # a table that splits as h(a) + h(b) - h(a+b), so it satisfies both laws,
  # with violations injected into n_bad of its cells
  rng = random.Random(seed)
  vectors = [(Fraction(a) * scale, Fraction(b) * scale)
             for a in range(-1, 4) for b in range(3)]
  h = {}

  def h_of(q):
    return h.setdefault(q, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

  table = PairingTable(basis=(0, 1), radius=0)
  for alpha, beta in rng.sample([(a, b) for a in vectors for b in vectors],
                                80):
    table.cells[(alpha, beta)] = (h_of(alpha) + h_of(beta)
                                  - h_of(tuple(x + y for x, y in zip(alpha, beta))))
  for key in rng.sample(sorted(table.cells), n_bad):
    table.cells[key] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
  rep = check_pairing_laws(table)
  assert rep == reference_laws(table)
  assert rep["cocycle"]["checked"] > 0 and rep["symmetry"]["checked"] > 0
  if not n_bad:
    assert rep["cocycle"]["ok"] and rep["symmetry"]["ok"]


@pytest.mark.parametrize("name,low,high", [
    ("multispecies:2", 1, 2), ("multispecies:2", 2, 1),
    ("spin3", -1, 1), ("spin3", 1, -1), ("spin3", 0, 1)])
@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_count_matches_its_definition(name, low, high, n):
  win, inter = line(n), by_name(name)
  lo, hi = inter.state_index(low), inter.state_index(high)
  f = inversion_count_function(win, inter, low, high)
  assert f.support == win.vertices and f.base == inter.base
  assert f.values == tuple(
      sum(d[i] == lo and d[j] == hi for i in range(n) for j in range(i + 1, n))
      for d in product(range(inter.n_states), repeat=n))


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


# Hand-placed pairs on a 5x4 box, each separated beyond 1: halves that
# interleave in union order; a pair listed later half first, each half out
# of its sorted order; and two single sites.
INTERLEAVED = (((0, 0), (1, 0), (2, 0)), ((0, 3), (1, 3)))
REVERSED = (((4, 3), (3, 3)), ((1, 0), (0, 1)))
SINGLES = (((3, 0),), ((1, 3),))


def _random_on(pair):
  """Random values on every site of both halves of a probe pair."""
  rng = random.Random(23)
  support = tuple(sorted(pair[0] + pair[1]))
  return LocalFunction(support, 3, 0, [
      Fraction(rng.randint(-9, 9), rng.randint(1, 4))
      for _ in range(3 ** len(support))])


def _box_case(case):
  """(probes, basis, f) for one pairing case on the box."""
  basis = conserved_basis(multispecies(2))
  if case == "defined":
    # a square of the window quantity plus a term on two adjacent sites;
    # each probe brings new cells
    sites = sorted({v for half in INTERLEAVED + REVERSED + SINGLES
                    for v in half})
    pos = {v: k for k, v in enumerate(sites)}
    f = from_callable(sites, 3, 0, lambda d: sum(
        quantity_of(d, basis), Fraction(0)) ** 2
        + 3 * d[pos[0, 0]] * d[pos[0, 1]])
    return [REVERSED, INTERLEAVED, SINGLES], basis, f
  if case == "within":
    return [REVERSED, SINGLES], basis, _random_on(REVERSED)
  if case == "across":
    # the product of the states at the two single sites: each probe on its
    # own is a function of the quantities, the two disagree
    return [SINGLES, REVERSED], basis, from_callable(
        SINGLES[0] + SINGLES[1], 3, 0, lambda d: d[0] * d[1])
  # no conserved quantity: one cell, defined only for a defect-free f
  if case == "empty-basis":
    one_site = LocalFunction(((0, 0),), 3, 0, (0, 5, Fraction(-1, 2)))
    return [INTERLEAVED, REVERSED, SINGLES], (), one_site
  return [INTERLEAVED, REVERSED], (), _random_on(INTERLEAVED)


@pytest.mark.parametrize("case", ["defined", "within", "across",
                                  "empty-basis", "empty-basis-conflict"])
def test_pairing_matches_reference_on_a_box(case):
  win = box(Euclidean(2), (0, 0), (4, 3))
  inter = multispecies(2)
  probes, basis, f = _box_case(case)
  union = sorted(INTERLEAVED[0] + INTERLEAVED[1])
  assert union[:2] == [INTERLEAVED[0][0], INTERLEAVED[1][0]]
  cells, records, conflict = reference_pairing(f, win, inter, basis, probes)
  if conflict is None:
    table = compute_pairing(f, win, inter, basis, 1, probes)
    assert list(table.cells.items()) == list(cells.items())
    assert table.probes == records
    assert case in ("defined", "empty-basis")
    if not basis:
      assert list(table.cells) == [((), ())]
    return
  with pytest.raises(PairingNotWellDefined) as exc:
    compute_pairing(f, win, inter, basis, 1, probes)
  assert exc.value.witness == conflict
  first, second = conflict["probes"]
  assert (first == second) == (case != "across")


@pytest.mark.parametrize("case", ["defined", "conflict"])
def test_pairing_reads_a_function_that_skips_union_sites(case):
  """``_pairing`` over a read whose denominator properly divides ``denom``
  and which leaves union sites of the second probe unread, while its sites
  outside a probe's union sit at base.  The first probe's defect is
  7/4 C(n, 2) m for n species-1 particles on the left and m on the right,
  less f at base; a term on two sites of one half adds nothing.  The
  conflict case reads (4,), (7,) and (8,) of the second probe, never (6,):
  its first conflict depends on (6,)'s digit, which g's table does not
  order by."""
  win = line(9)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  probes = [(((0,), (1,), (2,)), ((5,),)), (((4,),), ((6,), (7,), (8,)))]
  sites = ((0,), (1,), (2,), (5,))

  def value(d):
    left = sum(x == 1 for x in d[:3])
    return (Fraction(5, 6)
            + Fraction(7, 4) * (left * (left - 1) // 2) * (d[3] == 1))

  if case == "defined":
    f = from_callable(sites + ((6,), (8,)), 3, 0, lambda d: value(
        d[:4]) + Fraction(1, 5) * (d[4] == 2) * d[5])
  else:
    f = from_callable(sites + ((4,), (7,), (8,)), 3, 0, lambda d: value(
        d[:3] + d[4:5]) + Fraction(1, 3) * (d[3] == d[5] == d[6] == 2))
  assert 180 % f.denom == 0 and f.denom < 180
  cells, records, conflict = reference_pairing(f, win, inter, basis, probes)
  assert (conflict is None) == (case == "defined")
  if conflict is None:
    table = _pairing(lambda union: f, 180, win, inter, basis, 1, probes)
    assert list(table.cells.items()) == list(cells.items())
    assert table.probes == records
    assert set(table.cells.values()) > {Fraction(-5, 6)}
    return
  with pytest.raises(PairingNotWellDefined) as exc:
    _pairing(lambda union: f, 180, win, inter, basis, 1, probes)
  assert exc.value.witness == conflict


def test_default_probes_are_oriented_on_the_line():
  win = line(13)
  inter = exclusion()
  probes = default_probes(win, inter, radius=3)
  assert probes
  for first, second in probes:
    assert max(v[0] for v in first) < min(v[0] for v in second)


@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize("locale", [
    Euclidean(1), Euclidean(2), Triangular(), Hexagonal(), NNeighbor(2, 2),
    NNeighbor(2, 3), NNeighbor(3, 2)], ids=repr)
def test_default_probes_are_separated_inside_the_window(locale, radius):
  # the probe offsets count graph steps; on n-neighbor lattices one step
  # covers n coordinates
  reach = (2 + (radius + 1) // 2) * getattr(locale, "n", 1)
  d = locale.coord_dim()
  win = box(locale, (-reach,) * d, (reach,) * d)
  probes = default_probes(win, exclusion(), radius)
  assert probes
  for first, second in probes:
    assert all(v in win for v in first + second)
    assert set_distance(first, second, locale) > radius


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
  pieces = expansion(g)
  assert _pieces_radius(pieces, win.locale) == 0
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
  rep = h_zero_report(fibers_report(win, inter, basis), basis)
  assert rep["h0_dimension"] == 4
  assert rep["c_phi"] == 1
  assert rep["n_quantity_fibers"] == 4
  assert rep["quantities_separate_components"]


def test_h_zero_two_species():
  win = line(2)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  rep = h_zero_report(fibers_report(win, inter, basis), basis)
  # quantities (n1, n2) with n1 + n2 <= 2: six fibers
  assert rep["n_quantity_fibers"] == 6
  assert rep["h0_dimension"] == 6
  assert rep["quantities_separate_components"]


def test_h_zero_flags_quantity_blind_disconnection():
  win = line(4)
  inter = by_name("pair-flip")
  basis = conserved_basis(inter)
  rep = h_zero_report(fibers_report(win, inter, basis), basis)
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
    assert functions_equal(omega.fn(e), df.fn(e)), e


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
