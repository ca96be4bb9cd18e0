import random
from collections import deque
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.configspace import (BudgetExceeded, _quantity_table,
                                    _site_sums, all_configs, apply_edge,
                                    components, config_from_json,
                                    config_to_json, digits_from_sites,
                                    digits_of, exchange_path, fibers_report,
                                    index_of, n_configs, quantity_of,
                                    swapped, zero_quantity, digit_powers)
from configcalc.interactions import (Interaction, by_name,
                                     check_exchangeability, conserved_basis,
                                     exclusion, glauber, multispecies,
                                     pair_flip, spin3)
from configcalc.locales import Euclidean, box
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
  for idx, digits in enumerate(all_configs(win, inter)):
    assert digits == digits_of(idx, win.n_sites, inter.n_states)


@pytest.mark.parametrize("radices", [(), (1,), (3,), (1, 1), (2, 1, 3),
                                     (3, 3, 3), (2, 2, 2, 2)])
def test_site_sums_match_brute_force(radices):
  rng = random.Random(len(radices))
  tables = [[rng.randint(-9, 9) for _ in range(s)] for s in radices]
  expected = [sum(t[d] for t, d in zip(tables, digits))
              for digits in product(*(range(s) for s in radices))]
  assert _site_sums(tables) == expected


@pytest.mark.parametrize("name", ["multispecies:2", "spin3", "pair-flip"])
def test_quantity_table_matches_quantity_of(name):
  inter = by_name(name)
  basis = conserved_basis(inter)
  sites = ((2,), (0,), (5,), (1,))
  counted = (sites[0], sites[2])
  for keep, table in ((sites, _quantity_table(sites, basis, inter.n_states)),
                      (counted, _quantity_table(sites, basis, inter.n_states,
                                                counted))):
    configs = product(range(inter.n_states), repeat=len(sites))
    expected = [tuple(map(Fraction, quantity_of(
        [d for x, d in zip(sites, digits) if x in keep], basis)))
        for digits in configs]
    assert table == expected
    assert all(type(v) is Fraction for q in table for v in q)


@pytest.mark.parametrize("name,n", [("exclusion", 4), ("multispecies:2", 3),
                                    ("spin3", 3), ("pair-flip", 4),
                                    ("glauber", 3),
                                    ("generalized-exclusion:2", 3),
                                    ("lattice-gas:2", 3)])
def test_components_match_brute_force(name, n):
  win = line(n)
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
  for digits in all_configs(win, inter):
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


def test_quantity_preserved_along_moves():
  win = line(4)
  inter = spin3()
  basis = conserved_basis(inter)
  epos = [(win.position(u), win.position(v)) for u, v in win.edges]
  for digits in all_configs(win, inter):
    q = quantity_of(digits, basis)
    for pu, pv in epos:
      out = apply_edge(digits, pu, pv, inter)
      assert quantity_of(out, basis) == q


def exchange_path_endpoint_oracle(win, inter, digits, x, y):
  """Replay a path and check every step is a genuine one-edge transition."""
  wit = check_exchangeability(inter)["witnesses"]
  steps, final = exchange_path(win, inter, digits, x, y, wit)
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
  assert zero_quantity(basis) == (0, 0)
  assert quantity_of((0, 0, 0), basis) == (0, 0)
  assert quantity_of((1, 2, 0), basis) == (1, 1)
