import random
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.configspace import (BudgetExceeded, _fixed_slices,
                                    _quantity_sums, _site_sums, apply_edge,
                                    components,
                                    config_from_json, config_to_json,
                                    digits_from_sites, digits_of,
                                    exchange_path, fibers_report, index_of,
                                    n_configs, quantity_of, digit_powers)
from configcalc.calculus import is_closed
from configcalc.cohomology import _half
from configcalc.decomposition import TranslationAction, build_omega_rho
from configcalc.interactions import (Interaction, by_name, conserved_basis,
                                     exclusion, glauber, multispecies,
                                     pair_flip, spin3)
from configcalc.locales import (Euclidean, FiniteGraph, Hexagonal, Triangular,
                               box, window)
from configcalc.serialize import InputError


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


# independent oracle: plain BFS over explicitly generated moves
def brute_components(window, inter):
  total = n_configs(window, inter)
  powers = digit_powers(window.n_sites, inter.n_states)
  epos = [(window.position(u), window.position(v)) for u, v in window.edges]
  label = [None] * total
  comp = 0
  for start in range(total):
    if label[start] is not None:
      continue
    queue = deque([start])
    label[start] = comp
    while queue:
      idx = queue.popleft()
      digits = digits_of(idx, window.n_sites, inter.n_states)
      for pu, pv in epos:
        out = apply_edge(digits, pu, pv, inter)
        if out == digits:
          continue
        jdx = index_of(out, powers)
        if label[jdx] is None:
          label[jdx] = comp
          queue.append(jdx)
    comp += 1
  return label, comp


@given(st.integers(2, 4), st.integers(0, 80))
def test_mixed_radix_roundtrip(n_sites, seed):
  win = line(n_sites)
  inter = multispecies(2)
  total = n_configs(win, inter)
  idx = seed % total
  digits = digits_of(idx, win.n_sites, inter.n_states)
  powers = digit_powers(win.n_sites, inter.n_states)
  assert index_of(digits, powers) == idx


def test_first_vertex_most_significant():
  win = line(3)
  inter = exclusion()
  # index 4 = binary 100 over (site0, site1, site2)
  assert digits_of(4, win.n_sites, inter.n_states) == (1, 0, 0)
  assert digits_of(1, win.n_sites, inter.n_states) == (0, 0, 1)


def test_all_configs_is_index_order():
  win = line(2)
  inter = multispecies(2)
  for idx, digits in enumerate(product(range(inter.n_states),
                                       repeat=win.n_sites)):
    assert digits == digits_of(idx, win.n_sites, inter.n_states)


@pytest.mark.parametrize("radices", [(), (1,), (3,), (1, 1), (2, 1, 3),
                                     (3, 3, 3), (2, 2, 2, 2)])
def test_site_sums_match_brute_force(radices):
  rng = random.Random(len(radices))
  tables = [[rng.randint(-9, 9) for _ in range(s)] for s in radices]
  expected = [sum(t[d] for t, d in zip(tables, digits))
              for digits in product(*(range(s) for s in radices))]
  assert _site_sums(tables) == expected


@pytest.mark.parametrize("s", [2, 3])
def test_fixed_slices_hold_exactly_the_fixed_digits(s):
  """Every index whose digits match, once, for 0 to 3 fixed positions on up
  to 6 sites, with slices both contiguous and strided."""
  rng = random.Random(s)
  steps = set()
  for n in range(7):
    configs = list(product(range(s), repeat=n))
    indices = range(len(configs))
    for k in range(min(n, 3) + 1):
      for positions in combinations(range(n), k):
        fixed = tuple((p, rng.randrange(s)) for p in positions)
        slices = _fixed_slices(n, s, fixed)
        steps.update(sl.step > 1 for sl in slices)
        assert sorted(i for sl in slices for i in indices[sl]) == [
            i for i, c in enumerate(configs)
            if all(c[p] == d for p, d in fixed)], (n, fixed)
  assert steps == {True, False}


@pytest.mark.parametrize("name", ["multispecies:2", "spin3", "pair-flip"])
def test_quantity_table_matches_quantity_of(name):
  inter = by_name(name)
  basis = conserved_basis(inter)
  s = inter.n_states
  sites = ((2,), (0,), (5,), (1,))
  expected = [tuple(map(Fraction, quantity_of(digits, basis)))
              for digits in product(range(s), repeat=len(sites))]
  assert list(_quantity_sums(sites, basis, s)) == expected
  # one probe half as the pairing enumerates it: each of its configurations
  # sits at an index of the union's table, the other half at base, and
  # carries the half's own sums
  union = tuple(sorted(sites))
  half = (sites[2], sites[0])
  offsets, sums = _half(half, union, basis, s, inter.base)
  configs = list(product(range(s), repeat=len(union)))
  halves = list(product(range(s), repeat=len(half)))
  assert len(offsets) == len(sums) == len(halves)
  for digits, o, q in zip(halves, offsets, sums):
    assigned = dict(zip(half, digits))
    assert configs[o] == tuple(assigned.get(x, inter.base) for x in union)
    assert q == tuple(map(Fraction, quantity_of(digits, basis)))


# windows beyond the line, by key; the graph is a five-cycle with a pendant
# site, so edges (0, 4) and (0, 5) join far-apart window positions
WINDOWS = {
    "triangular": lambda: box(Triangular(), (0, 0), (2, 1)),
    "hexagonal": lambda: box(Hexagonal(), (0, 0), (1, 1)),
    "graph": lambda: window(
        FiniteGraph(range(6), [(0, 5), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        range(6)),
}


@pytest.mark.parametrize("name,n", [("exclusion", 4), ("multispecies:2", 3),
                                    ("spin3", 3), ("pair-flip", 4),
                                    ("glauber", 3),
                                    ("generalized-exclusion:2", 3),
                                    ("lattice-gas:2", 3),
                                    ("exclusion", "triangular"),
                                    ("multispecies:2", "triangular"),
                                    ("spin3", "hexagonal"),
                                    ("pair-flip", "hexagonal"),
                                    ("lattice-gas:2", "graph"),
                                    ("glauber", "graph")])
def test_components_match_brute_force(name, n):
  win = line(n) if isinstance(n, int) else WINDOWS[n]()
  inter = by_name(name)
  labels, reps = components(win, inter)
  brute, n_brute = brute_components(win, inter)
  assert max(labels) + 1 == n_brute
  # same partition (labels may be permuted, but both are ordered by least
  # member, so they agree exactly)
  assert list(labels) == brute


def test_components_2d():
  win = box(Euclidean(2), (0, 0), (1, 1))
  inter = exclusion()
  labels, reps = components(win, inter)
  brute, n_brute = brute_components(win, inter)
  assert list(labels) == brute
  assert len(reps) == n_brute == 5   # particle counts 0..4


def test_components_of_a_one_way_rule_join_both_ends():
  # (0, 1) -> (1, 1) is never undone, so forward reachability is not
  # symmetric; components are those of the undirected transition graph
  inter = Interaction("one-way", (0, 1), 0,
                      (((0, 0), (1, 1)), ((1, 0), (1, 1))))
  win = line(4)
  powers = digit_powers(win.n_sites, inter.n_states)
  links = {i: set() for i in range(n_configs(win, inter))}
  for digits in product(range(inter.n_states), repeat=win.n_sites):
    for u, v in win.edges:
      out = apply_edge(digits, win.position(u), win.position(v), inter)
      i, j = index_of(digits, powers), index_of(out, powers)
      links[i].add(j)
      links[j].add(i)
  want = [None] * len(links)
  comp = 0
  for start in links:
    if want[start] is None:
      queue = deque([start])
      want[start] = comp
      while queue:
        for j in links[queue.popleft()]:
          if want[j] is None:
            want[j] = comp
            queue.append(j)
      comp += 1
  labels, reps = components(win, inter)
  assert labels == want
  assert reps == [want.index(c) for c in range(comp)]
  assert brute_components(win, inter)[1] > comp  # forward search splits more


def test_budget_enforced():
  win = box(Euclidean(2), (0, 0), (4, 4))
  with pytest.raises(BudgetExceeded):
    components(win, exclusion(), budget=1000)


def traced_peak(call):
  """``call()`` and the peak of the memory it allocated, by ``tracemalloc``."""
  tracemalloc.start()
  try:
    out = call()
    return out, tracemalloc.get_traced_memory()[1]
  finally:
    tracemalloc.stop()


def test_fibers_and_closedness_build_no_dense_table():
  """``fibers_report`` and ``is_closed`` read only the kernel's least
  members and level maps: each peaks below one list of |S|^n ints."""
  inter = multispecies(2)
  basis = conserved_basis(inter)
  rep, peak = traced_peak(lambda: fibers_report(line(13), inter, basis))
  assert rep["n_components"] == 105 and rep["components_separated"]
  assert peak < sys.getsizeof([0] * 3 ** 13)
  win = line(11)
  omega = build_omega_rho([[Fraction(1, 3)], [Fraction(-2, 5)]],
                          TranslationAction(Euclidean(1), ((1,),)), ((0,),),
                          win, inter, basis)
  rep, peak = traced_peak(lambda: is_closed(omega, win, inter))
  assert rep == {"closed": True, "witness": None, "n_components": 78}
  assert peak < sys.getsizeof([0] * 3 ** 11)


def test_quantity_preserved_along_moves():
  win = line(4)
  inter = spin3()
  basis = conserved_basis(inter)
  epos = [(win.position(u), win.position(v)) for u, v in win.edges]
  for digits in product(range(inter.n_states), repeat=win.n_sites):
    q = quantity_of(digits, basis)
    for pu, pv in epos:
      out = apply_edge(digits, pu, pv, inter)
      assert quantity_of(out, basis) == q


def swapped(digits, win, x, y):
  """``digits`` with the states at sites x and y exchanged."""
  px, py = win.position(x), win.position(y)
  out = list(digits)
  out[px], out[py] = out[py], out[px]
  return tuple(out)


def exchange_path_endpoint_oracle(win, inter, digits, x, y):
  """Replay a path and check every step is a genuine one-edge transition."""
  steps, final = exchange_path(win, inter, digits, x, y)
  seen = digits
  for config, edge in steps:
    assert config == seen
    pu, pv = win.position(edge[0]), win.position(edge[1])
    nxt = apply_edge(config, pu, pv, inter)
    assert nxt != config, "path contains a frozen step"
    seen = nxt
  assert seen == final
  return final


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3",
                                  "generalized-exclusion:2", "lattice-gas:2"])
def test_exchange_path_swaps_exactly(name):
  inter = by_name(name)
  win = line(5)
  x, y = (1,), (4,)
  for a in range(inter.n_states):
    for b in range(inter.n_states):
      digits = digits_from_sites(win, inter, {x: a, y: b})
      final = exchange_path_endpoint_oracle(win, inter, digits, x, y)
      assert final == swapped(digits, win, x, y)


def test_exchange_path_2d_around_corner():
  inter = multispecies(2)
  win = box(Euclidean(2), (0, 0), (2, 2))
  digits = digits_from_sites(win, inter, {(0, 0): 1, (2, 2): 2})
  final = exchange_path_endpoint_oracle(win, inter, digits, (0, 0), (2, 2))
  assert final == swapped(digits, win, (0, 0), (2, 2))


def test_exchange_path_leaves_spectators_alone():
  inter = exclusion()
  win = line(5)
  digits = digits_from_sites(win, inter, {(0,): 1, (2,): 1, (4,): 1})
  final = exchange_path_endpoint_oracle(win, inter, digits, (0,), (4,))
  # swapping equal states is the identity; spectator at (2,) untouched
  assert final == digits


def test_exchange_path_refuses_non_exchangeable():
  win = line(3)
  inter = pair_flip()
  digits = digits_from_sites(win, inter, {(0,): 1})
  with pytest.raises(InputError):
    exchange_path(win, inter, digits, (0,), (2,))


def test_exchange_path_refuses_only_a_pair_it_must_swap():
  # pair-flip has no exchange witness for (0, 1), but swapping two base
  # sites never needs one
  win = line(3)
  inter = pair_flip()
  digits = digits_from_sites(win, inter, {})
  assert exchange_path(win, inter, digits, (0,), (2,)) == ([], digits)


def test_fibers_connected_catalog_small():
  for name in ("exclusion", "multispecies:2", "spin3"):
    inter = by_name(name)
    rep = fibers_report(line(3), inter, conserved_basis(inter))
    assert rep["fibers_connected"], name
    assert rep["components_separated"], name
    assert rep["witness"] is None


def test_pair_flip_parity_disconnection():
  inter = pair_flip()
  rep = fibers_report(line(4), inter, conserved_basis(inter))
  assert not rep["fibers_connected"]
  w = rep["witness"]
  assert w is not None
  # both witness configs share every conserved quantity (there are none),
  # yet they sit in different components
  assert w["quantity"] == []


def test_glauber_single_fiber_connected():
  inter = glauber()
  rep = fibers_report(line(3), inter, conserved_basis(inter))
  assert rep["n_fibers"] == 1
  assert rep["fibers_connected"]


def test_exclusion_fiber_counts():
  rep = fibers_report(line(4), exclusion(), conserved_basis(exclusion()))
  assert rep["n_configs"] == 16
  assert rep["n_components"] == 5
  assert rep["n_fibers"] == 5


def grouped_fibers(window, inter, basis):
  """Reference report: every configuration grouped by (quantity, component),
  components from the brute-force search."""
  labels, _ = brute_components(window, inter)
  least = {}
  for idx, digits in enumerate(product(range(inter.n_states),
                                       repeat=window.n_sites)):
    least.setdefault((quantity_of(digits, basis), labels[idx]), idx)
  fibers = {}
  for (q, _comp), idx in least.items():
    fibers.setdefault(q, []).append(idx)
  witness = None
  for q in sorted(fibers):
    if len(fibers[q]) > 1:
      first, second = sorted(fibers[q])[:2]
      witness = {
          "quantity": [str(Fraction(v)) for v in q],
          "configs": [config_to_json(window, inter,
                                     digits_of(i, window.n_sites,
                                               inter.n_states))
                      for i in (first, second)],
      }
      break
  n_components = max(labels) + 1
  return {
      "n_configs": n_configs(window, inter),
      "n_components": n_components,
      "n_fibers": len(fibers),
      "fibers_connected": witness is None,
      "components_separated": n_components == len(fibers),
      "witness": witness,
  }


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3",
                                  "pair-flip", "glauber"])
def test_fibers_report_matches_per_configuration_grouping(name):
  # Reading each component's quantity at its least member gives the counts,
  # verdicts and witness of grouping every configuration.
  inter = by_name(name)
  basis = conserved_basis(inter)
  reports = []
  for n in range(3, 9):
    rep = fibers_report(line(n), inter, basis)
    assert rep == grouped_fibers(line(n), inter, basis), n
    reports.append(rep)
  if name == "pair-flip":
    assert all(rep["witness"] is not None for rep in reports)


@pytest.mark.parametrize("name,vec", [("spin3", (1, 0, 1)),
                                      ("glauber", (0, 1)),
                                      ("pair-flip", (0, 1))])
def test_fibers_report_refuses_a_basis_the_moves_do_not_conserve(name, vec):
  inter = by_name(name)
  with pytest.raises(InputError, match="not conserved"):
    fibers_report(line(3), inter, conserved_basis(inter) + (vec,))


def test_config_json_roundtrip():
  win = line(4)
  inter = spin3()
  digits = digits_from_sites(win, inter, {(1,): 0, (3,): 2})
  obj = config_to_json(win, inter, digits)
  assert obj == {"sites": [[1], [3]], "states": [-1, 1]}
  assert config_from_json(win, inter, obj) == digits


def test_config_json_rejects_unknown_state():
  win = line(2)
  with pytest.raises(InputError):
    config_from_json(win, exclusion(), {"sites": [[0]], "states": [7]})


def test_zero_quantity_shape():
  basis = conserved_basis(multispecies(2))
  assert quantity_of((0, 0, 0), basis) == (0, 0)
  assert quantity_of((1, 2, 0), basis) == (1, 1)
