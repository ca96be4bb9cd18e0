"""Shift-invariant closed forms: profile forms, cocycle extraction, and the
full decomposition into exact part plus profile part.

Roundtrips are exact or they fail: synthesized forms carry a known cocycle
and a known local part, and the decomposition must return both on the nose,
with an edge-by-edge zero residual on the interior.
"""

import hashlib
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from configcalc import calculus, cli, decomposition
from configcalc.calculus import (Form, LocalFunction, _combine, _mobius,
                                 constant, differential, form_to_json,
                                 from_callable, functions_equal, gradient,
                                 integrate, is_closed,
                                 restrict, scale, support_diameter, trim)
from configcalc.cli import main
from configcalc.cohomology import (PairingNotWellDefined, _quantity_corrected,
                                   default_probes)
from configcalc.configspace import (apply_edge, config_from_json, digits_of,
                                    fibers_report)
from configcalc.decomposition import (DEFAULT_SUB_BUDGET, InconsistentCocycle,
                                      NotShiftInvariant, TranslationAction,
                                      _centered_subwindow, _tile_weights,
                                      _verify_identity,
                                      build_omega_rho, cocycle_from_json,
                                      cocycle_to_json, counterexample_report,
                                      extract_cocycle, interior_vertices,
                                      is_shift_invariant, synthesized_form,
                                      tile_of,
                                      translate_function, translates_meeting,
                                      varadhan_decompose)
from configcalc.interactions import (Interaction, by_name, conserved_basis,
                                     exclusion, interaction_from_json,
                                     lattice_gas, multispecies, spin3)
from configcalc.locales import (Euclidean, FiniteGraph, Hexagonal, NNeighbor,
                               Triangular, box, window as build_window)
from configcalc.serialize import InputError, fraction_to_str
from test_calculus import replayed_integral


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


def square(n):
  return box(Euclidean(2), (0, 0), (n - 1, n - 1))


Z_ACTION = TranslationAction(Euclidean(1), ((1,),))


def rows(a):
  return tuple(tuple(x) for x in a)


def carrying(act, v, x):
  """The coefficients of the shift that carries v to x, read off ``reduce``:
  the difference of their coeffs when their reps are equal, else None.  A
  second reduction, and one by a fresh action, must agree with the first."""
  fresh = TranslationAction(act.locale, act.generators)
  (kv, rv), (kx, rx) = act.reduce(v), act.reduce(x)
  for y, got in ((v, (kv, rv)), (x, (kx, rx))):
    assert act.reduce(y) == got and fresh.reduce(y) == got
  return tuple(a - b for a, b in zip(kx, kv)) if rv == rx else None


def test_translation_action_basics():
  act = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  assert act.rank == 2
  assert act.shift_of((2, -1)) == (2, -1)
  assert act.reduce((3, 4)) == ((3, 4), (0, 0))
  assert carrying(act, (0, 0), (3, 4)) == (3, 4)
  assert act.act_vertex((2, -1), (1, 1)) == (3, 0)
  # sublattice action: only even shifts along the first axis
  sub = TranslationAction(Euclidean(2), ((2, 0), (0, 1)))
  assert sub.reduce((3, 0)) == ((1, 0), (1, 0))
  assert carrying(sub, (0, 0), (4, 1)) == (2, 1)
  assert carrying(sub, (0, 0), (3, 0)) is None
  assert carrying(sub, (0, 0), (1, 0)) is None
  assert carrying(sub, (0, 0), (2, 0)) == (1, 0)


def fraction_solve(gens, delta):
  """Coefficients c with c[0] * gens[0] + c[1] * gens[1] == delta, by
  Cramer's rule over Fractions; None unless both are integers."""
  (a, c), (b, d) = gens
  det = a * d - b * c
  coeffs = (Fraction(delta[0] * d - b * delta[1], det),
            Fraction(a * delta[1] - delta[0] * c, det))
  if any(k.denominator != 1 for k in coeffs):
    return None
  return tuple(int(k) for k in coeffs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.tuples(st.integers(-15, 15), st.integers(-15, 15)))
def test_coeffs_of_matches_a_fraction_solve(entries, delta):
  gens = (tuple(entries[:2]), tuple(entries[2:]))
  assume(gens[0][0] * gens[1][1] != gens[1][0] * gens[0][1])
  act = TranslationAction(Euclidean(2), gens)
  want = fraction_solve(gens, delta)
  got = carrying(act, (0, 0), delta)
  assert got == want
  if got is not None:
    assert all(type(k) is int for k in got)
    assert act.shift_of(got) == delta


def fraction_coords(gens, c):
  """The coefficients of c in the generators as Fractions: a quotient in
  one dimension, Cramer's rule in two."""
  if len(c) == 1:
    return (Fraction(c[0], gens[0][0]),)
  (a, c0), (b, d) = gens
  det = a * d - b * c0
  return (Fraction(c[0] * d - b * c[1], det),
          Fraction(a * c[1] - c[0] * c0, det))


REDUCE_ACTIONS = (
    [TranslationAction(Euclidean(1), ((g,),)) for g in (1, 2, 3, -4)]
    + [TranslationAction(locale, gens) for locale in (Triangular(), Hexagonal())
       for gens in (((1, 0), (0, 1)), ((2, 0), (0, 1)))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_moves_a_vertex_into_the_unit_cell(data):
  if data.draw(st.booleans()):
    entries = data.draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    gens = (tuple(entries[:2]), tuple(entries[2:]))
    assume(gens[0][0] * gens[1][1] != gens[1][0] * gens[0][1])
    act = TranslationAction(Euclidean(2), gens)
  else:
    act = data.draw(st.sampled_from(REDUCE_ACTIONS))
  locale, d = act.locale, act.locale.coord_dim()
  x = data.draw(st.tuples(*[st.integers(-15, 15)] * d))
  if isinstance(locale, Hexagonal):
    x += (data.draw(st.integers(0, 1)),)
  c = data.draw(st.tuples(*[st.integers(-4, 4)] * d))
  coeffs, rep = act.reduce(x)
  assert all(type(k) is int for k in coeffs)
  assert rep in locale and rep[d:] == x[d:]  # the honeycomb keeps its flag
  assert act.act_vertex(rep, act.shift_of(coeffs)) == x
  assert all(0 <= k < 1 for k in fraction_coords(act.generators,
                                                 locale.coord(rep)))
  moved = act.act_vertex(x, act.shift_of(c))
  assert act.reduce(moved) == (tuple(a + b for a, b in zip(coeffs, c)), rep)


def test_translation_action_rejects_wrong_generator_count():
  with pytest.raises(InputError):
    TranslationAction(Euclidean(2), ((1, 0),))


def test_translation_action_rejects_dependent_generators():
  with pytest.raises(InputError):
    TranslationAction(Euclidean(2), ((1, 0), (2, 0)))


def test_tile_of_and_orbit_tiles():
  win = box(Euclidean(1), (0,), (3,))
  act = TranslationAction(Euclidean(1), ((2,),))
  domain = ((0,), (1,))
  coeffs, anchor = tile_of(act, (3,), domain)
  assert coeffs == (1,) and anchor == (1,)
  # the sites of each orbit tile: two full tiles on line(4), and four full
  # tiles plus one partial one on line(9)
  for window, sizes in ((win, [2, 2]), (line(9), [1, 2, 2, 2, 2])):
    tiles = Counter(tile_of(act, x, domain)[0] for x in window.vertices)
    assert sorted(tiles.values()) == sizes


def test_tile_of_rejects_overlapping_domain():
  act = TranslationAction(Euclidean(1), ((1,),))
  with pytest.raises(InputError):
    tile_of(act, (0,), ((0,), (1,)))


def test_recenter_domain_keeps_a_domain_no_central_translate_fits():
  # ((0,), (13,)) tiles 0..13 under (2,): evens from (0,), odds from (13,).
  # The translates that carry (13,) to (5,), (7,) or (9,) near the centre
  # all leave the window, so the domain comes back as given.
  win, act = line(14), TranslationAction(Euclidean(1), ((2,),))
  domain = ((0,), (13,))
  anchors = [tile_of(act, x, domain)[1] for x in win.vertices]
  assert anchors == [(0,), (13,)] * 7
  assert win.center == (7,)
  assert decomposition._recenter_domain(win, act, domain) == domain


TILE_ACTIONS = REDUCE_ACTIONS + [
    TranslationAction(Euclidean(2), gens)
    for gens in (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((2, 1), (-1, 1)))]


@pytest.mark.parametrize("act", TILE_ACTIONS,
                         ids=lambda a: f"{a.locale.name}{a.generators}")
def test_tile_of_matches_a_search_over_domain_translates(act):
  # Every domain translate whose coefficients lie in a box wide enough for
  # the probed vertices: tile_of must return the one hit or refuse with the
  # message of no hit or of several.
  d, gens = act.rank, act.generators
  index = abs(gens[0][0] if d == 1
              else gens[0][0] * gens[1][1] - gens[1][0] * gens[0][1])
  flags = ((0,), (1,)) if isinstance(act.locale, Hexagonal) else ((),)
  # |index| sites along the first axis are one of each orbit here
  tiling = [(i,) + (0,) * (d - 1) + f for i in range(index) for f in flags]
  moved = act.act_vertex(tiling[0], act.shift_of((1,) * d))
  domains = {"tile": tiling, "overlap": tiling + [moved],
             "miss": tiling[:-1], "mixed": tiling[:-1] + [moved]}
  reach = 3 if d == 1 else 2
  probes = [c + f for c in product(range(-reach, reach + 1), repeat=d)
            for f in flags]
  seen = set()
  for name, domain in domains.items():
    hits = {}
    for v in domain:
      for k in product(range(-12, 13), repeat=d):
        x = act.act_vertex(v, act.shift_of(k))
        hits.setdefault(x, []).append((k, v))
    for x in probes:
      found = hits.get(x, [])
      if len(found) == 1:
        seen.add("tile")
        assert tile_of(act, x, domain) == found[0], (name, x)
        continue
      with pytest.raises(InputError) as refused:
        tile_of(act, x, domain)
      if found:
        seen.add("overlap")
        assert str(refused.value) == (
            f"domain translates overlap at {x!r}: not a tiling")
      else:
        seen.add("miss")
        assert str(refused.value) == (
            f"vertex {x!r} is not covered by the domain tiling")
    if name == "tile":
      assert seen == {"tile"}
  assert seen == {"tile", "overlap", "miss"}


@pytest.mark.parametrize("act", TILE_ACTIONS,
                         ids=lambda a: f"{a.locale.name}{a.generators}")
def test_carry_matches_a_search_over_translates(act):
  # Every (coeffs, x, y) with x moved by the coeffs' shift onto y, for
  # coefficients in a box wide enough for the probed vertices, by target and
  # then by source, each in the order given (here unsorted, with a repeat).
  d = act.rank
  flags = ((0,), (1,)) if isinstance(act.locale, Hexagonal) else ((),)
  vertices = [c + f for c in product(range(-2, 3), repeat=d) for f in flags]
  random.Random(d).shuffle(vertices)
  sources, targets = vertices[:5] + vertices[:1], vertices[3:]
  want = [(k, x, y) for y in targets for x in sources
          for k in product(range(-8, 9), repeat=d)
          if act.act_vertex(x, act.shift_of(k)) == y]
  assert act.carry(sources, targets) == want
  assert any(x != y for _, x, y in want)


def test_translate_function():
  inter = exclusion()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(2 * d[0] + d[1]))
  g = translate_function(Z_ACTION, f, (3,))
  assert g.support == ((3,), (4,))
  assert g.value_at({(3,): 1, (4,): 0}) == 2


def site_weights(a_matrix, action, domain, window, inter, basis):
  """Per window site x, the one-site table d -> sum_j tau(x)_j g_j(d), with
  g_j(d) = sum_i a[i][j] basis[i][d] and tau(x) the tile index of x."""
  tables = {}
  for x in window.vertices:
    tau, _ = tile_of(action, x, domain)
    tables[x] = LocalFunction((x,), inter.n_states, inter.base, [
        sum((k * Fraction(row[j]) * vec[d] for j, k in enumerate(tau)
             for row, vec in zip(a_matrix, basis)), Fraction(0))
        for d in range(inter.n_states)])
  return tables


def theta_profile(a_matrix, action, domain, window, inter, basis):
  """The window profile whose translation defect realizes the cocycle: the
  sum of the flux's per-site weight tables."""
  tables = site_weights(a_matrix, action, domain, window, inter, basis)
  return _combine(((1, t) for t in tables.values()), inter.n_states,
                  inter.base)


def test_theta_profile_differential_is_omega_rho():
  win = line(7)
  inter = exclusion()
  basis = conserved_basis(inter)
  a = ((Fraction(1, 2),),)
  domain = ((0,),)
  omega = build_omega_rho(a, Z_ACTION, domain, win, inter, basis)
  theta = theta_profile(a, Z_ACTION, domain, win, inter, basis)
  d_theta = differential(theta, win, inter)
  for e in set(omega.fns) | set(d_theta.fns):
    assert functions_equal(omega.fn(e), d_theta.fn(e)), e


def test_flux_refuses_a_basis_the_moves_do_not_conserve():
  # spin3 rotates the states, so this basis changes under its moves: the
  # flux and the synthesized form refuse it as fibers_report does.
  win, inter = line(9), spin3()
  basis = ((1, 0, 1), (-1, 0, 1))
  a = ((Fraction(1, 2),), (Fraction(-1, 3),))
  domain = ((0,),)
  f = _vanishing_at_base(((0,), (1,)), inter)
  with pytest.raises(InputError) as want:
    fibers_report(win, inter, basis)
  assert "not conserved by the move" in str(want.value)
  for build in (
      lambda: build_omega_rho(a, Z_ACTION, domain, win, inter, basis),
      lambda: synthesized_form(f, a, Z_ACTION, domain, win, inter, basis)):
    with pytest.raises(InputError) as got:
      build()
    assert str(got.value) == str(want.value)


def test_theta_profile_translation_defect_is_the_quantity():
  # moving theta by one lattice step changes it by rho times the total
  # conserved quantity, so the defect is constant on every fiber
  win = line(7)
  inter = exclusion()
  basis = conserved_basis(inter)
  rho = Fraction(1, 2)
  a = ((rho,),)
  domain = ((0,),)
  theta = theta_profile(a, Z_ACTION, domain, win, inter, basis)
  shifted = translate_function(Z_ACTION, theta, (1,))
  common = tuple(sorted(set(theta.support) & set(shifted.support)))
  for digits in _some_assignments(common, inter, 40):
    assign = dict(zip(common, digits))
    diff = theta.value_at(assign) - shifted.value_at(assign)
    expect = rho * sum(digits)
    assert diff == expect


def _some_assignments(support, inter, count, seed=1):
  rng = random.Random(seed)
  n = inter.n_states
  total = n ** len(support)
  picks = range(total) if total <= count else sorted(
      rng.sample(range(total), count))
  return [digits_of(i, len(support), n) for i in picks]


def test_omega_rho_is_closed_and_shift_invariant():
  win = square(5)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  act = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  a = ((Fraction(1, 3), Fraction(-1, 2)),
       (Fraction(2), Fraction(0)))
  omega = build_omega_rho(a, act, ((0, 0),), win, inter, basis)
  rep = is_shift_invariant(omega, win, inter, act)
  assert rep["invariant"]
  assert rep["checked"] > 0


def test_is_shift_invariant_catches_pinned_form():
  win = line(6)
  inter = exclusion()
  f = from_callable(((2,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  omega = differential(f, win, inter)
  rep = is_shift_invariant(omega, win, inter, Z_ACTION)
  assert not rep["invariant"]
  w = rep["witness"]
  assert w["generator"] == 0
  assert w["difference"] != "0"


def test_is_shift_invariant_witness_carries_state_values():
  # The bumped cell holds spin3's state indices 0 and 2, whose values are
  # -1 and 1: the witness reads like every other witness, in state values.
  win = line(9)
  inter = spin3()
  basis = conserved_basis(inter)
  omega = build_omega_rho(((Fraction(1, 2),),), Z_ACTION, ((0,),), win, inter,
                          basis)
  edge = ((4,), (5,))
  bumped = calculus.perturbed(omega, win, inter, edge, {(4,): 0, (5,): 2}, 1)
  rep = is_shift_invariant(bumped, win, inter, Z_ACTION, 0)
  assert not rep["invariant"]
  w = rep["witness"]
  assert w["edge"] == [[4], [5]] and w["sites"] == [[4], [5]]
  assert w["states"] == [-1, 1]


def test_extract_cocycle_recovers_built_profile():
  win = square(7)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  act = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  a = ((Fraction(1, 3), Fraction(-1, 2)),
       (Fraction(2), Fraction(5, 7)))
  omega = build_omega_rho(a, act, ((0, 0),), win, inter, basis)
  rep = extract_cocycle(omega, win, inter, basis, act)
  assert rows(rep["a"]) == a
  assert rep["cross_checks"]


def test_extract_cocycle_one_dimensional_models():
  win = line(9)
  for name, a in (("exclusion", ((Fraction(4, 5),),)),
                  ("spin3", ((Fraction(-2, 3),),)),
                  ("lattice-gas:2", ((Fraction(1, 2),), (Fraction(-1, 3),)))):
    inter = by_name(name)
    basis = conserved_basis(inter)
    omega = build_omega_rho(a, Z_ACTION, ((0,),), win, inter, basis)
    rep = extract_cocycle(omega, win, inter, basis, Z_ACTION)
    assert rows(rep["a"]) == a, name


def test_extract_cocycle_rejects_non_invariant_form():
  win = line(9)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(((3,), (4,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] - d[1], 3))
  omega = differential(f, win, inter)
  with pytest.raises(InconsistentCocycle):
    extract_cocycle(omega, win, inter, basis, Z_ACTION)


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3"])
def test_delta_refuses_a_form_not_closed_on_the_probe_window(name, tmp_path):
  # A synthesized form bumped across the first probe edge, at the probe's
  # source cell: the probe window's potential solve meets a cycle with a
  # nonzero integral, and that cycle replays on the whole window.
  inter = by_name(name)
  basis = conserved_basis(inter)
  win, base = line(9), inter.base
  f = from_callable(((4,), (5,)), inter.n_states, base,
                    lambda d: Fraction(0) if d == (base, base)
                    else Fraction(3 * d[0] - d[1] + 1, 2))
  a = tuple((Fraction(k + 2, 3),) for k in range(len(basis)))
  omega = synthesized_form(f, a, Z_ACTION, ((4,),), win, inter, basis)
  assert win.center == (4,)
  state = next(s for s in range(inter.n_states) if s != base)
  bad = calculus.perturbed(omega, win, inter, ((3,), (4,)), {(3,): state},
                           Fraction(1, 3))
  man = {"locale": {"kind": "euclidean", "d": 1}, "interaction": name,
         "window": {"kind": "box", "lo": [0], "hi": [8]},
         "form": form_to_json(bad, win), "action": {"generators": [[1]]}}
  path, out = tmp_path / "man.json", tmp_path / "out.json"
  path.write_text(json.dumps(man))
  assert main(["delta", "--manifest", str(path), "--out", str(out)]) == 1
  error = json.loads(out.read_text())["error"]
  assert error["kind"] == "NotClosedError"
  witness = error["witness"]
  total = replayed_integral(witness, bad, win, inter)
  assert fraction_to_str(total) == witness["integral"] == witness["defect"]
  assert total != 0
  # every step of the cycle stays on the probe window
  assert {v[0] for step in witness["cycle"]
          for v in step["edge"] + step["config"]["sites"]} <= {3, 4, 5, 6}
  assert is_closed(omega, win, inter)["closed"]


def _involutions(items):
  """Every involution of ``items`` as a dict, fixed points included."""
  if not items:
    yield {}
    return
  first, rest = items[0], items[1:]
  for rule in _involutions(rest):
    yield {first: first, **rule}
  for k, other in enumerate(rest):
    for rule in _involutions(rest[:k] + rest[k + 1:]):
      yield {first: other, other: first, **rule}


# The involutive rules on states 0, 1, 2 (base 0) with a conserved quantity
# and connected fibers on a line of 7, less the two-species swap.  None
# swaps (0, 1), (0, 2) or (1, 2) by a power of the rule across one edge:
# in the second, state 1 hops and (1, 1) <-> (2, 0).
HOP_RULES = [
    [[0, 2, 2, 0], [1, 0, 2, 2], [1, 2, 2, 1], [2, 0, 0, 2], [2, 1, 1, 2],
     [2, 2, 1, 0]],
    [[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 2, 0], [1, 2, 2, 1], [2, 0, 1, 1],
     [2, 1, 1, 2]],
    [[0, 1, 1, 0], [0, 2, 1, 1], [1, 0, 0, 1], [1, 1, 0, 2], [1, 2, 2, 1],
     [2, 1, 1, 2]],
    [[0, 1, 2, 2], [0, 2, 2, 0], [1, 2, 2, 1], [2, 0, 0, 2], [2, 1, 1, 2],
     [2, 2, 0, 1]],
    [[0, 0, 1, 2], [0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1], [1, 2, 0, 0],
     [2, 0, 0, 2]],
    [[0, 0, 2, 1], [0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1], [2, 0, 0, 2],
     [2, 1, 0, 0]],
]


def test_hop_rules_are_the_connected_three_state_involutions():
  pairs = list(product(range(3), repeat=2))
  found, count = [], 0
  for phi in _involutions(pairs):
    inter = Interaction("custom", (0, 1, 2), 0, tuple(
        tuple(phi[a, b] for b in range(3)) for a in range(3)))
    count += bool(inter.moved)
    basis = conserved_basis(inter)
    if basis and fibers_report(line(7), inter, basis)["fibers_connected"]:
      found.append([list(move) for move in inter.moved])
  assert count == 2619
  swap = [[a, b, b, a] for a, b in pairs if a != b]
  assert sorted(found) == sorted(HOP_RULES + [swap])


@pytest.mark.parametrize("window", ["line11", "square7"])
@pytest.mark.parametrize("k", range(len(HOP_RULES)))
def test_rules_without_one_edge_exchanges_decompose(k, window, tmp_path):
  """A synthesized form of each hop rule, from a seeded two-site f and a
  seeded a, decomposes with residual 0 and that exact a."""
  rng = random.Random(10 * k + len(window))
  d = 1 if window == "line11" else 2

  def draw():
    return fraction_to_str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                    rng.randint(1, 6)))

  a = [[draw() for _ in range(d)]]
  half = [5] if d == 1 else [3, 3]
  man = {"locale": {"kind": "euclidean", "d": d},
         "interaction": {"states": [0, 1, 2], "base": 0,
                         "map": HOP_RULES[k]},
         "window": {"kind": "box", "lo": [-h for h in half], "hi": half},
         "function": {"support": [[0] * d, [1] + [0] * (d - 1)],
                      "values": ["0"] + [draw() for _ in range(8)]},
         "form": {"builtin": "synthesized"}, "cocycle": {"a": a},
         "action": {"generators": [[int(i == j) for j in range(d)]
                                   for i in range(d)]},
         "domain": [[0] * d]}
  path, out = tmp_path / "man.json", tmp_path / "out.json"
  path.write_text(json.dumps(man))
  assert main(["decompose", "--manifest", str(path), "--out", str(out)]) == 0
  rep = json.loads(out.read_text())
  assert rep["residual"]["max_abs_residual"] == "0"
  assert rep["cocycle"]["a"] == a


def test_translates_meeting_counts_lattice_shifts():
  inter = exclusion()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  targets = {(0,), (1,), (2,)}
  shifts = translates_meeting(Z_ACTION, f, targets)
  # supports {0,1}+k meeting {0,1,2}: k in {-1, 0, 1, 2}
  assert sorted(shifts) == [(-1,), (0,), (1,), (2,)]


def per_edge_translate_gradients(action, f, edges, win_set, inter, theta):
  """Reference sums: per edge, one gradient per meeting translate of f plus
  the gradient of the tile weights theta_u + theta_v of its ends, summed and
  trimmed, with no reuse between edges."""
  sums = {}
  for edge in edges:
    grads = []
    for coeffs in translates_meeting(action, f, edge):
      tf = translate_function(action, f, action.shift_of(coeffs))
      grads.append((1, gradient(restrict(tf, win_set), edge, inter)))
    weights = _combine(((1, theta(x)) for x in edge), inter.n_states,
                       inter.base)
    grads.append((1, gradient(weights, edge, inter)))
    sums[edge] = trim(_combine(grads, inter.n_states, inter.base))
  return sums


def _vanishing_at_base(support, inter):
  def value(d):
    if all(x == inter.base for x in d):
      return Fraction(0)
    return Fraction(sum((k + 2) * (x + 1) ** (k + 1) for k, x in enumerate(d)),
                    3 + len(d))
  return from_callable(support, inter.n_states, inter.base, value)


SQUARE = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
GRADIENT_SUM_CASES = {
    "line9-multispecies": (line(9), "multispecies:2", Z_ACTION, ((0,),),
                           (((0,), (1,), (2,)), ((0,), (2,)))),
    "square7-exclusion": (square(7), "exclusion", SQUARE, ((0, 0),),
                          (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))),
    "square8-exclusion": (square(8), "exclusion", SQUARE, ((0, 0),),
                          (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))),
    "square7-coarse": (square(7), "exclusion",
                       TranslationAction(Euclidean(2), ((2, 0), (0, 1))),
                       ((0, 0), (1, 0)),
                       (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))),
    "triangular7-exclusion": (box(Triangular(), (0, 0), (6, 6)), "exclusion",
                              TranslationAction(Triangular(), ((1, 0), (0, 1))),
                              ((0, 0),),
                              (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))),
    "hexagonal5-exclusion": (box(Hexagonal(), (0, 0), (4, 4)), "exclusion",
                             TranslationAction(Hexagonal(), ((1, 0), (0, 1))),
                             ((0, 0, 0), (0, 0, 1)),
                             (((0, 0, 0), (0, 0, 1), (1, 0, 0)),
                              ((0, 0, 0), (1, 1, 0)))),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_SUM_CASES))
def test_translate_gradient_sums_match_the_per_edge_sum(case, monkeypatch):
  # Sums reused across an edge class must equal the sums built edge by edge,
  # table for table, on edges whose meeting translates the window cuts in
  # every pattern the supports allow.
  win, model, act, domain, supports = GRADIENT_SUM_CASES[case]
  inter = by_name(model)
  basis = conserved_basis(inter)
  a = tuple(tuple(Fraction(k - j, 3 + k + j) for j in range(act.rank))
            for k in range(len(basis)))
  theta = _tile_weights(a, act, domain, win, inter, basis)

  def run(f):
    form = synthesized_form(f, a, act, domain, win, inter, basis)
    reports = [_verify_identity(form, f_hat, theta, win, inter, act)
               for f_hat in (f, scale(f, Fraction(3, 2)))]
    return list(form.fns.items()), reports

  for support in supports:
    f = _vanishing_at_base(support, inter)
    got = run(f)
    with monkeypatch.context() as patch:
      patch.setattr(decomposition, "_translate_gradient_sums",
                    per_edge_translate_gradients)
      want = run(f)
    assert got == want
    ok, perturbed = got[1]
    assert ok["ok"] and ok["max_abs_residual"] == "0"
    assert not perturbed["ok"] and perturbed["max_abs_residual"] != "0"
    assert perturbed["witness"] is not None


@pytest.mark.parametrize("model", ["exclusion", "multispecies:2", "pair-flip"])
def test_translate_sums_share_each_edge_pair_exactly(model, monkeypatch):
  # Each reversed edge of an undirected rule takes the sum of the edge it
  # reverses; the forms, flux and identity reports (a perturbed f-hat
  # included) equal those built one orientation at a time.
  inter = by_name(model)
  assert inter.undirected
  basis = conserved_basis(inter)

  def run():
    out = []
    for win, act, domain, support in ((line(9), Z_ACTION, ((0,),),
                                       ((0,), (1,), (2,))),
                                      (square(7), SQUARE, ((0, 0),),
                                       ((0, 0), (1, 0), (0, 1)))):
      a = tuple(tuple(Fraction(k - j + 2, 3 + k + j) for j in range(act.rank))
                for k in range(len(basis)))
      theta = _tile_weights(a, act, domain, win, inter, basis)
      f = _vanishing_at_base(support, inter)
      form = synthesized_form(f, a, act, domain, win, inter, basis)
      flux = build_omega_rho(a, act, domain, win, inter, basis)
      reports = [_verify_identity(form, f_hat, theta, win, inter, act)
                 for f_hat in (f, scale(f, Fraction(3, 2)))]
      out.append((list(form.fns.items()), form.radius,
                  list(flux.fns.items()), reports))
    return out

  got = run()
  monkeypatch.setattr(Interaction, "undirected",
                      property(lambda self: False), raising=False)
  assert got == run()
  for _, _, _, (ok, bumped) in got:
    assert ok["ok"] and not bumped["ok"] and bumped["witness"] is not None
    assert ok["edges_checked"] == bumped["edges_checked"] > 0


# (window, action, domain, support of f): every window edge of the even
# action's odd rows meets no translate of f
ORBIT_CASES = {
    "line9": (line(9), Z_ACTION, ((0,),), ((0,), (1,))),
    "square9": (square(9), SQUARE, ((0, 0),), ((0, 0), (1, 0))),
    "square9-even": (square(9),
                     TranslationAction(Euclidean(2), ((2, 0), (0, 2))),
                     ((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0), (1, 0))),
    "hexagonal5": (box(Hexagonal(), (0, 0), (4, 4)),
                   TranslationAction(Hexagonal(), ((1, 0), (0, 1))),
                   ((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (0, 0, 1))),
}


# Per case, the translates_meeting and _combine calls of an undirected rule
# (multispecies:2): each reversed edge takes its sum from the edge it
# reverses, so half the orbits and half the keys are built.  A directed rule
# (spin3) builds every orbit and key: the counts in the parameters.
UNDIRECTED_ORBIT_CALLS = {"line9": (1, 3), "square9": (2, 6),
                          "square9-even": (8, 11), "hexagonal5": (3, 3)}


@pytest.mark.parametrize("case,meetings,combines", [
    ("line9", 2, 6), ("square9", 4, 12), ("square9-even", 16, 22),
    ("hexagonal5", 6, 6)])
def test_translate_gradient_sums_find_the_translates_once_per_orbit(
    case, meetings, combines, monkeypatch):
  # One translates_meeting call per orbit of directed edges it builds, and
  # one sum per (orbit, window cut) key, equal to the sums built edge by
  # edge.
  win, act, domain, support = ORBIT_CASES[case]
  win_set = set(win.vertices)
  for model, counts in (("spin3", (meetings, combines)),
                        ("multispecies:2", UNDIRECTED_ORBIT_CALLS[case])):
    inter = by_name(model)
    basis = conserved_basis(inter)
    a = tuple(tuple(Fraction(k + 1, 2 + j) for j in range(act.rank))
              for k in range(len(basis)))
    theta = _tile_weights(a, act, domain, win, inter, basis)
    f = _vanishing_at_base(support, inter)
    calls = Counter()

    with monkeypatch.context() as patch:
      def spy(name):
        real = getattr(decomposition, name)

        def counted(*args):
          calls[name] += 1
          return real(*args)
        patch.setattr(decomposition, name, counted)

      spy("translates_meeting")
      spy("_combine")
      sums = decomposition._translate_gradient_sums(act, f, win.edges,
                                                    win_set, inter, theta)
    assert calls == dict(zip(("translates_meeting", "_combine"), counts))
    assert sums == per_edge_translate_gradients(act, f, win.edges, win_set,
                                                inter, theta)


def edge_orbits(act, edges):
  """The orbits of directed edges, each keyed by (rep_u, rep_v, k_v - k_u)
  from the reductions of its ends."""
  return {(act.reduce(u)[1], act.reduce(v)[1],
           tuple(kv - ku for ku, kv in zip(act.reduce(u)[0], act.reduce(v)[0])))
          for u, v in edges}


# Per case, an undirected rule's (multispecies:2) moves of f, moves of key
# sums, tile weights read (two per built orbit) and flux-carrying keys: each
# reversed edge takes the sum of the edge it reverses, so it moves no sum
# and builds no orbit.
UNDIRECTED_ORBIT_MOVES = {"line9": (3, 8, 2, 3), "square9": (7, 144, 4, 6),
                          "square9-even": (7, 144, 16, 6),
                          "hexagonal5": (5, 65, 6, 2)}


@pytest.mark.parametrize("case,of_f,flux_keys", [
    ("line9", 6, 6), ("square9", 14, 12), ("square9-even", 14, 12),
    ("hexagonal5", 10, 4)])
def test_translate_sums_move_no_flux_weigh_orbits_twice(
    case, of_f, flux_keys, monkeypatch):
  # translate_function moves f to each meeting translate once per built
  # orbit and each key's sum forward once per edge that builds a sum, and
  # moves no flux back: the flux on e0 is the gradients of the tile weights
  # of its two ends, taken once per built orbit, and it is nonzero in the
  # sums of the (orbit, window cut) keys whose edges cross a tile boundary.
  # A directed rule (spin3) builds every orbit: the counts in the
  # parameters, and two tile weights read per orbit.
  win, act, domain, support = ORBIT_CASES[case]
  n_orbits = len(edge_orbits(act, win.edges))
  for model, counts in (
      ("spin3", (of_f, len(win.edges), 2 * n_orbits, flux_keys)),
      ("multispecies:2", UNDIRECTED_ORBIT_MOVES[case])):
    inter = by_name(model)
    basis = conserved_basis(inter)
    a = tuple(tuple(Fraction(k + 1, 2 + j) for j in range(act.rank))
              for k in range(len(basis)))
    theta = _tile_weights(a, act, domain, win, inter, basis)
    f = _vanishing_at_base(support, inter)
    moved, weighed, flux, combined = [], [], [], []

    def translate(action, g, shift):
      moved.append(g)
      return translate_function(action, g, shift)

    def weights(x):
      weighed.append(theta(x))
      return weighed[-1]

    def grad(g, edge, inter):
      out = gradient(g, edge, inter)
      if any(g is w for w in weighed):
        flux.append(out)
      return out

    def combine(terms, n_states, base):
      combined.append(list(terms))
      return _combine(combined[-1], n_states, base)
    with monkeypatch.context() as patch:
      patch.setattr(decomposition, "translate_function", translate)
      patch.setattr(decomposition, "gradient", grad)
      patch.setattr(decomposition, "_combine", combine)
      decomposition._translate_gradient_sums(act, f, win.edges,
                                             set(win.vertices), inter,
                                             weights)
    n_f = sum(g is f for g in moved)
    keys = sum(any(not g.is_zero() and any(g is h for h in flux)
                   for _, g in terms) for terms in combined)
    assert len(weighed) == len(flux)
    assert (n_f, len(moved) - n_f, len(weighed), keys) == counts


def gather_omega_rho(a, action, domain, window, inter, basis):
  """Reference flux form: per edge, the gradient of theta_u + theta_v read
  through ``_combine`` and ``gradient``."""
  tables = site_weights(a, action, domain, window, inter, basis)
  fns = {}
  for e in window.edges:
    fn = gradient(_combine(((1, tables[x]) for x in e), inter.n_states,
                           inter.base), e, inter)
    if not fn.is_zero():
      fns[e] = fn
  return Form(inter.n_states, inter.base, fns, 0)


def _exact_sums(action, f, edges, window, inter):
  return per_edge_translate_gradients(
      action, f, edges, set(window.vertices), inter,
      lambda x: constant(0, inter.n_states, inter.base))


def form_combine(a, b, sign, radius=None):
  """Reference form arithmetic: a + sign * b edge by edge, each sum trimmed
  and the zero ones dropped."""
  fns = {}
  for e in {**a.fns, **b.fns}:
    fn = trim(_combine([(c, g.fns[e]) for c, g in ((1, a), (sign, b))
                        if e in g.fns], a.n_states, a.base))
    if not fn.is_zero():
      fns[e] = fn
  return Form(a.n_states, a.base, fns, radius)


def form_add(a, b, radius=None):
  return form_combine(a, b, 1, radius)


def form_restricted(form, sub_win):
  """Reference restriction: each sub-window edge's function with every
  site outside the sub-window at base, trimmed, the zero ones dropped."""
  inside = set(sub_win.vertices)
  fns = {e: trim(restrict(form.fns[e], inside))
         for e in sub_win.edges if e in form.fns}
  return Form(form.n_states, form.base,
              {e: fn for e, fn in fns.items() if not fn.is_zero()},
              form.radius)


def form_add_synthesized(f, a, action, domain, window, inter, basis):
  """Reference synthesized form: the exact part, then the flux added edge by
  edge with ``form_add``."""
  sums = _exact_sums(action, f, window.edges, window, inter)
  exact = Form(inter.n_states, inter.base,
               {e: t for e, t in sums.items() if not t.is_zero()}, None)
  flux = gather_omega_rho(a, action, domain, window, inter, basis)
  return form_add(exact, flux, max(1, support_diameter(f.support,
                                                       window.locale)))


def form_add_identity(form, f_hat, flux, window, inter, action):
  """Reference identity check: form - flux - exact sum on each interior
  edge, subtracted through ``_combine``."""
  locale = window.locale
  pad = support_diameter(f_hat.support, locale) if f_hat.support else 0
  inner = interior_vertices(window, pad)
  edges = [(u, v) for u, v in window.edges if u in inner and v in inner]
  witness, worst = None, Fraction(0)
  for (u, v), total in _exact_sums(action, f_hat, edges, window,
                                   inter).items():
    terms = [(1, form.fn((u, v))), (-1, flux.fn((u, v))), (-1, total)]
    diff = trim(_combine([(c, g) for c, g in terms if g is not None],
                         inter.n_states, inter.base))
    for dg, val in diff.assignments():
      if val != 0:
        worst = max(worst, abs(val))
        if witness is None:
          witness = {
              "edge": [locale.encode_vertex(u), locale.encode_vertex(v)],
              "sites": [locale.encode_vertex(s) for s in diff.support],
              "states": [inter.states[d] for d in dg],
              "difference": fraction_to_str(val),
          }
  return {"ok": witness is None, "edges_checked": len(edges),
          "interior_pad": pad, "max_abs_residual": fraction_to_str(worst),
          "witness": witness}


EVEN = TranslationAction(Euclidean(2), ((2, 0), (0, 2)))
EVEN_DOMAIN = ((0, 0), (0, 1), (1, 0), (1, 1))
# translates by EVEN cover only the even rows, so the odd rows' edges meet
# none of them
EVEN_SUPPORTS = (((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0)))
SQUARE_SUPPORTS = (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))
LINE_SUPPORTS = (((0,), (1,), (2,)), ((0,), (2,)))
# (window, model, action, domain, supports, basis or None for the conserved)
FOLD_CASES = {
    "line9-multispecies": (line(9), "multispecies:2", Z_ACTION, ((0,),),
                           LINE_SUPPORTS, None),
    "line11-multispecies": (line(11), "multispecies:2", Z_ACTION, ((0,),),
                            LINE_SUPPORTS, None),
    "square7-even": (square(7), "exclusion", EVEN, EVEN_DOMAIN,
                     EVEN_SUPPORTS, None),
    "square8-even": (square(8), "multispecies:2", EVEN, EVEN_DOMAIN,
                     EVEN_SUPPORTS[:1], None),
    "square9-even": (square(9), "exclusion", EVEN, EVEN_DOMAIN,
                     EVEN_SUPPORTS, None),
    "triangular7-multispecies": (
        box(Triangular(), (0, 0), (6, 6)), "multispecies:2",
        TranslationAction(Triangular(), ((1, 0), (0, 1))), ((0, 0),),
        SQUARE_SUPPORTS[1:], None),
    "hexagonal5-exclusion": GRADIENT_SUM_CASES["hexagonal5-exclusion"]
                            + (None,),
    # a rotating rule whose base is not the first state
    "line9-spin3": (line(9), "spin3", Z_ACTION, ((0,),), LINE_SUPPORTS, None),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_synthesized_form_matches_form_add_reference(case):
  # The flux read off the tile weights inside the class sums gives the forms
  # and identity reports of the flux built edge by edge and added edge by
  # edge.
  win, model, act, domain, supports, basis = FOLD_CASES[case]
  inter = by_name(model)
  if basis is None:
    basis = conserved_basis(inter)
  a = tuple(tuple(Fraction(k - j + 1, 3 + k + j) for j in range(act.rank))
            for k in range(len(basis)))
  flux = build_omega_rho(a, act, domain, win, inter, basis)
  assert flux == gather_omega_rho(a, act, domain, win, inter, basis)
  theta = _tile_weights(a, act, domain, win, inter, basis)
  assert flux.fns
  for support in supports:
    f = _vanishing_at_base(support, inter)
    if act is EVEN:  # some edges carry the flux alone
      assert any(not translates_meeting(act, f, e) and e in flux.fns
                 for e in win.edges)
    form = synthesized_form(f, a, act, domain, win, inter, basis)
    want = form_add_synthesized(f, a, act, domain, win, inter, basis)
    assert form.fns == want.fns and form.radius == want.radius
    for f_hat in (f, scale(f, Fraction(3, 2))):
      assert (_verify_identity(form, f_hat, theta, win, inter, act)
              == form_add_identity(form, f_hat, flux, win, inter, act))
    assert _verify_identity(form, f, theta, win, inter, act)["ok"]


def move_table_omega_rho(a, action, domain, window, inter, basis):
  """Reference flux read off the move table, with no gradient: across
  (u, v), at each pair (p, q) that a move takes to (r, t), the closed form
  sum_j (tau(v) - tau(u))_j (g_j(t) - g_j(q)) of a conserved basis, with
  g_j(d) = sum_i a[i][j] basis[i][d], on the sorted sites of the edge."""
  s = inter.n_states
  g = [[sum((Fraction(row[j]) * vec[d] for row, vec in zip(a, basis)),
            Fraction(0)) for d in range(s)] for j in range(action.rank)]
  fns = {}
  for u, v in window.edges:
    step = [tv - tu for tu, tv in zip(tile_of(action, u, domain)[0],
                                      tile_of(action, v, domain)[0])]
    values = [Fraction(0)] * (s * s)
    for p, q, _, t in inter.moved:
      values[p * s + q if u < v else q * s + p] = sum(
          k * (col[t] - col[q]) for k, col in zip(step, g))
    fn = trim(LocalFunction(tuple(sorted((u, v))), s, inter.base, values))
    if not fn.is_zero():
      fns[(u, v)] = fn
  return Form(s, inter.base, fns, 0)


ORACLE_CASES = {**{name: case + (None,)
                   for name, case in GRADIENT_SUM_CASES.items()},
                **FOLD_CASES}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_omega_rho_matches_the_move_table_formula(case):
  # build_omega_rho takes gradients of the tile weights; the oracle reads
  # the closed form off the moves, so a fault shared with gradient shows.
  win, model, act, domain, _, basis = ORACLE_CASES[case]
  inter = by_name(model)
  if basis is None:
    basis = conserved_basis(inter)
  for shift in (1, 2):
    a = tuple(tuple(Fraction(k - j + shift, 3 + k + j)
                    for j in range(act.rank)) for k in range(len(basis)))
    flux = build_omega_rho(a, act, domain, win, inter, basis)
    assert flux.fns
    assert flux == move_table_omega_rho(a, act, domain, win, inter, basis)


# Orbits of directed window edges per case: the even action's 16 are more
# than the 6 (orientation, tile difference) classes of the flux's tables.
FLUX_ORBITS = {"hexagonal5-exclusion": 6, "line11-multispecies": 2,
               "line9-multispecies": 2, "line9-spin3": 2, "square7-even": 16,
               "square8-even": 16, "square9-even": 16,
               "triangular7-multispecies": 6}
# The flux tables trimmed per case: one per orbit for the directed spin3,
# one per pair of reversed orbits for the undirected rules, whose reversed
# edges take the sums of the edges they reverse.
FLUX_TRIMS = {"hexagonal5-exclusion": 3, "line11-multispecies": 1,
              "line9-multispecies": 1, "line9-spin3": 2, "square7-even": 8,
              "square8-even": 8, "square9-even": 8,
              "triangular7-multispecies": 3}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_each_call_reduces_a_vertex_once_and_trims_one_flux_table_per_key(
    case, monkeypatch):
  # An action computes each vertex's reduction at most once, across
  # build_omega_rho and every _translate_gradient_sums call, and the flux
  # trims one table per orbit of directed edges it builds, the zero
  # function's one (orbit, window cut) key.
  win, model, act, domain, supports, basis = FOLD_CASES[case]
  inter = by_name(model)
  if basis is None:
    basis = conserved_basis(inter)
  a = tuple(tuple(Fraction(k - j + 1, 3 + k + j) for j in range(act.rank))
            for k in range(len(basis)))
  assert len(edge_orbits(act, win.edges)) == FLUX_ORBITS[case]
  act = TranslationAction(act.locale, act.generators)  # nothing reduced yet
  locale_type = type(act.locale)
  real_reduce, real_coord = TranslationAction.reduce, locale_type.coord
  real_trim = decomposition.trim
  reducing, computed, trimmed = [], Counter(), []

  # reduce reads a vertex's coordinate only when it computes the reduction
  def reduce(self, x):
    reducing.append(x)
    try:
      return real_reduce(self, x)
    finally:
      reducing.pop()

  def coord(self, x):
    if reducing and reducing[-1] == x:
      computed[x] += 1
    return real_coord(self, x)

  def trim_counted(f):
    trimmed.append(f)
    return real_trim(f)
  monkeypatch.setattr(TranslationAction, "reduce", reduce)
  monkeypatch.setattr(locale_type, "coord", coord)
  monkeypatch.setattr(decomposition, "trim", trim_counted)
  build_omega_rho(a, act, domain, win, inter, basis)
  assert len(trimmed) == FLUX_TRIMS[case]
  assert set(computed.values()) == {1}
  assert set(win.vertices) <= set(computed)
  theta = _tile_weights(a, act, domain, win, inter, basis)
  for support in supports:
    f = _vanishing_at_base(support, inter)
    inner = interior_vertices(win, support_diameter(f.support, win.locale))
    for edges in (win.edges, [e for e in win.edges if set(e) <= inner]):
      decomposition._translate_gradient_sums(act, f, edges, set(win.vertices),
                                             inter, theta)
      assert set(computed.values()) == {1}


@pytest.mark.parametrize("case", ["line9", "square9"])
def test_remainder_is_subtracted_on_the_sub_window(case, monkeypatch):
  # The remainder the decomposition integrates, read on the sub-window as
  # the scan reads it, is omega restricted to the sub-window minus the flux
  # restricted to it, which is also the whole remainder restricted.  The
  # decomposition builds that flux once, on the sub-window, and the whole
  # window's never.
  inter = multispecies(2)
  basis = conserved_basis(inter)
  if case == "line9":
    # all of line(9) fits the default budget: take a five-site sub-window
    win, act, domain, support = line(9), Z_ACTION, ((4,),), ((4,), (5,))
    budget = 3 ** 5
  else:
    win, act, domain = square(9), SQUARE, ((4, 4),)
    support, budget = ((4, 4), (5, 4)), DEFAULT_SUB_BUDGET
  f = _vanishing_at_base(support, inter)
  a = tuple(tuple(Fraction(k + 1, 2 + j) for j in range(act.rank))
            for k in range(len(basis)))
  real_reader = decomposition._potential_scan
  passed = []

  def reader(remainder, sub_win, inter, sub_budget):
    passed.append((remainder, sub_win))
    return real_reader(remainder, sub_win, inter, sub_budget)

  real_flux = decomposition.build_omega_rho
  fluxes = []

  def flux_of(a, action, domain, window, inter, basis):
    fluxes.append(window)
    return real_flux(a, action, domain, window, inter, basis)

  monkeypatch.setattr(decomposition, "_potential_scan", reader)
  monkeypatch.setattr(decomposition, "build_omega_rho", flux_of)
  for b in (a, tuple(tuple(2 * x for x in row) for row in a)):
    form = synthesized_form(f, b, act, domain, win, inter, basis)
    rep = varadhan_decompose(form, win, inter, basis, act, domain,
                             sub_budget=budget)
    assert rows(rep["a"]) == b
    # one solve per generator's probe window, then one sub-window solve
    *probes, (remainder, sub_win) = passed
    sizes = [w.n_sites for _, w in probes]
    assert sizes == _probe_sizes(win, act, basis) == [4] * act.rank
    assert fluxes == [sub_win]  # one flux, on the sub-window alone
    passed.clear()
    fluxes.clear()
    assert sub_win == _centered_subwindow(win, inter, domain[0], budget)
    assert 1 < sub_win.n_sites < win.n_sites
    flux = build_omega_rho(b, act, domain, win, inter, basis)
    local = form_combine(form_restricted(form, sub_win),
                         form_restricted(flux, sub_win), -1, 1)
    assert local == form_restricted(form_combine(form, flux, -1, 1), sub_win)
    assert form_restricted(remainder, sub_win) == local
    assert local.fns


def test_synthesized_form_roundtrip_line():
  win = line(7)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1], 2))
  a = ((Fraction(-2, 3),),)
  omega = synthesized_form(f, a, Z_ACTION, ((0,),), win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, Z_ACTION, ((0,),))
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]
  assert rep["residual"]["max_abs_residual"] == "0"
  assert rep["shift_invariance"]["invariant"]


@pytest.mark.parametrize("win,inter,act,a", [
    (line(7), multispecies(2), Z_ACTION,
     ((Fraction(2, 3),), (Fraction(-5, 4),))),
    (square(5), exclusion(),
     TranslationAction(Euclidean(2), ((1, 0), (0, 1))),
     ((Fraction(1, 5), Fraction(-2, 3)),)),
    (box(Triangular(), (0, 0), (4, 4)), exclusion(),
     TranslationAction(Triangular(), ((1, 0), (0, 1))),
     ((Fraction(1, 5), Fraction(-2, 3)),)),
], ids=["line-multispecies2", "square-exclusion", "triangular-exclusion"])
def test_synthesized_form_ignores_the_constant_of_f(win, inter, act, a):
  """f enters only through its gradients: f plus a constant synthesizes
  the same form, whatever f takes on the base configuration."""
  basis = conserved_basis(inter)
  origin = win.vertices[0]
  support = (origin, win.vertices[1])

  def f_plus(c):
    return from_callable(support, inter.n_states, inter.base,
                         lambda d: Fraction(d[0] * (d[1] + 2), 3) + c)

  want = synthesized_form(f_plus(0), a, act, (origin,), win, inter, basis)
  assert want.fns
  for c in (Fraction(5, 3), Fraction(-2), Fraction(1, 7)):
    assert synthesized_form(f_plus(c), a, act, (origin,), win, inter,
                            basis) == want


def test_decompose_square_multispecies():
  win = square(7)
  inter = multispecies(2)
  basis = conserved_basis(inter)
  act = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  f = from_callable(((0, 0), (1, 0)), inter.n_states, inter.base,
                    lambda d: Fraction(1, 2) if d == (1, 2) else Fraction(0))
  a = ((Fraction(1, 5), Fraction(0)), (Fraction(-1), Fraction(3, 7)))
  omega = synthesized_form(f, a, act, ((0, 0),), win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, act, ((0, 0),))
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]
  assert rep["residual"]["max_abs_residual"] == "0"


@pytest.mark.parametrize("model", ["exclusion", "multispecies:2"])
@pytest.mark.parametrize("lattice", ["square8", "hexagonal5"])
def test_decompose_probes_from_the_window_center(lattice, model):
  # The middle of the sorted vertex list is (4, 0) on an 8x8 box, and the
  # hexagonal sub-window's middle vertex leaves no room for a probe pair;
  # the vertex of least eccentricity has room on both.
  inter = by_name(model)
  basis = conserved_basis(inter)
  if lattice == "square8":
    locale, support, domain = Euclidean(2), ((0, 0), (1, 0)), ((0, 0),)
    win = square(8)
  else:
    locale = Hexagonal()
    support = domain = ((0, 0, 0), (0, 0, 1))
    win = box(locale, (0, 0), (4, 4))
  act = TranslationAction(locale, ((1, 0), (0, 1)))
  f = from_callable(support, inter.n_states, inter.base,
                    lambda d: Fraction(0) if inter.base in d
                    else Fraction(3 * d[0] - d[1], 2))
  a = tuple((Fraction(k + 1, 3), Fraction(-1, k + 4)) for k in range(len(basis)))
  omega = synthesized_form(f, a, act, domain, win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, act, domain)
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]
  assert rep["residual"]["max_abs_residual"] == "0"


def test_decompose_spin_conserving_three_state():
  win = line(9)
  inter = spin3()
  basis = conserved_basis(inter)
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction((d[0] - 1) * (d[1] - 1), 3))
  a = ((Fraction(7, 4),),)
  omega = synthesized_form(f, a, Z_ACTION, ((0,),), win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, Z_ACTION, ((0,),))
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]


def test_decompose_two_charge_model():
  win = line(9)
  inter = lattice_gas(2)
  basis = conserved_basis(inter)
  f = from_callable(((0,),), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * (d[0] - 1), 4))
  a = ((Fraction(1, 2),), (Fraction(-1, 3),))
  omega = synthesized_form(f, a, Z_ACTION, ((0,),), win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, Z_ACTION, ((0,),))
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]


def test_decompose_coarse_sublattice_domain():
  # two-site fundamental domain moved by even shifts
  win = line(9)
  inter = by_name("generalized-exclusion:2")
  basis = conserved_basis(inter)
  act = TranslationAction(Euclidean(1), ((2,),))
  domain = ((0,), (1,))
  f = from_callable(((0,),), inter.n_states, inter.base,
                    lambda d: Fraction(d[0], 5))
  a = ((Fraction(3, 2),),)
  omega = synthesized_form(f, a, act, domain, win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, act, domain)
  assert rows(rep["a"]) == a
  assert rep["residual"]["ok"]


def test_decompose_pure_profile_has_trivial_local_part():
  win = line(7)
  inter = exclusion()
  basis = conserved_basis(inter)
  a = ((Fraction(1, 2),),)
  omega = build_omega_rho(a, Z_ACTION, ((0,),), win, inter, basis)
  rep = varadhan_decompose(omega, win, inter, basis, Z_ACTION, ((0,),))
  assert rows(rep["a"]) == a
  assert rep["f"].is_zero()
  assert rep["residual"]["ok"]


def test_decompose_refuses_non_invariant_input():
  win = line(7)
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(((2,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  omega = differential(f, win, inter)
  with pytest.raises((NotShiftInvariant, InconsistentCocycle)):
    varadhan_decompose(omega, win, inter, basis, Z_ACTION, ((0,),))


def test_interior_shrinks_with_pad():
  win = square(5)
  inner = interior_vertices(win, 1)
  assert len(inner) == 9
  assert all(0 < x < 4 and 0 < y < 4 for x, y in inner)


def _holed_square():
  return build_window(Euclidean(2), [x for x in product(range(7), repeat=2)
                                     if x != (3, 3)])


def _wheel(vertices):
  """The wheel graph on hub 6 and rim 0..5, windowed on ``vertices``."""
  rim = [(k, (k + 1) % 6) for k in range(6)]
  return build_window(FiniteGraph(range(7), rim + [(6, k) for k in range(6)]),
                      vertices)


INTERIOR_WINDOWS = {
    "square6": lambda: square(6),
    "n-neighbour6": lambda: box(NNeighbor(2, 2), (0, 0), (5, 5)),
    "triangular6": lambda: box(Triangular(), (0, 0), (5, 5)),
    "hexagonal4": lambda: box(Hexagonal(), (0, 0), (3, 3)),
    "holed-square7": _holed_square,
    "whole-wheel": lambda: _wheel(range(7)),
    "wheel-part": lambda: _wheel(range(1, 7)),
}


@pytest.mark.parametrize("pad", range(5))
@pytest.mark.parametrize("case", sorted(INTERIOR_WINDOWS))
def test_interior_vertices_match_the_per_vertex_balls(case, pad):
  # The one breadth-first search from the window's edge keeps exactly the
  # vertices whose pad-ball stays inside the window.
  win = INTERIOR_WINDOWS[case]()
  want = {x for x in win.vertices
          if all(y in win for y in win.locale.ball(x, pad))}
  assert interior_vertices(win, pad) == want
  if case == "whole-wheel":
    assert want == set(win.vertices)


def test_counterexample_report_carries_all_evidence():
  rep = counterexample_report(9)
  assert rep["closed"]
  assert rep["is_differential_of_inversions"]
  assert rep["shift_invariant"]
  assert rep["form_axioms_ok"]
  asym = rep["asymmetry"]
  assert asym["low_left_high_right"] == "1"
  assert asym["high_left_low_right"] == "0"
  assert rep["pairing_laws"]["cocycle"]["ok"]
  assert not rep["pairing_laws"]["symmetry"]["ok"]
  assert rep["splitting_certificate"] is not None
  assert rep["decomposition_refused"]


def test_cocycle_json_roundtrip():
  basis = conserved_basis(multispecies(2))
  a = ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(5, 7)))
  obj = cocycle_to_json(a)
  back = cocycle_from_json(obj)
  assert rows(back) == a
  assert obj["a"] == [["1/3", "-1/2"], ["2", "5/7"]]


def test_hexagonal_window_profile_is_invariant():
  # the honeycomb's two-site cell is the fundamental domain
  loc = Hexagonal()
  win = box(loc, (0, 0), (2, 2))
  inter = exclusion()
  basis = conserved_basis(inter)
  act = TranslationAction(loc, ((1, 0), (0, 1)))
  a = ((Fraction(1, 2), Fraction(-1, 3)),)
  domain = tuple(sorted(v for v in win.vertices if v[:2] == (0, 0)))
  omega = build_omega_rho(a, act, domain, win, inter, basis)
  rep = is_shift_invariant(omega, win, inter, act)
  assert rep["invariant"]


# ---------------------------------------------------------------------------
# The potential is spelled out only where the decomposition reads it


def _read_case(case):
  """A synthesized form on the named lattice, model and support radius."""
  lattice, rest = case.split("-", 1)
  model, r = rest.rsplit("-", 1)
  inter = by_name(model)
  basis = conserved_basis(inter)
  if lattice.startswith("line"):
    win, act, c = line(int(lattice[4:])), Z_ACTION, 4
    support, domain = ((c,), (c + int(r[1:]),)), ((c,),)
  elif lattice.startswith("square"):
    n = int(lattice[6:])
    win, act, c = square(n), SQUARE, n // 2
    support, domain = ((c, c), (c + 1, c)), ((c, c),)
  elif lattice == "hexagonal5":
    win = box(Hexagonal(), (0, 0), (4, 4))
    act = TranslationAction(Hexagonal(), ((1, 0), (0, 1)))
    support = domain = ((2, 2, 0), (2, 2, 1))
  else:
    win = box(Triangular(), (0, 0), (6, 6))
    act = TranslationAction(Triangular(), ((1, 0), (0, 1)))
    support, domain = ((3, 3), (4, 3)), ((3, 3),)
  f = _vanishing_at_base(support, inter)
  a = tuple(tuple(Fraction(k + 1, 3 + j) for j in range(act.rank))
            for k in range(len(basis)))
  omega = synthesized_form(f, a, act, domain, win, inter, basis)
  return win, inter, basis, act, domain, omega


def _probe_sizes(win, act, basis):
  """The site count of each generator's probe window, in generator order:
  the window path from the center moved back by g to the center, joined,
  when the window holds both ends, by the path from the center moved by g
  to the center moved by 2g.  Empty without a conserved quantity."""
  sizes = []
  for g in act.generators if basis else ():
    center = win.center
    ahead = act.act_vertex(center, g)
    far = act.act_vertex(ahead, g)
    sites = set(win.path_between(
        act.act_vertex(center, tuple(-a for a in g)), center))
    if ahead in win and far in win:
      sites.update(win.path_between(ahead, far))
    sizes.append(len(sites))
  return sizes


def _spy_scans(monkeypatch):
  """The site counts of the windows the potential scan runs on, from now:
  each generator's probe window, in order, then the sub-window."""
  scanned, real = [], decomposition._potential_scan

  def scan(form, window, inter, budget):
    scanned.append(window.n_sites)
    return real(form, window, inter, budget)

  monkeypatch.setattr(decomposition, "_potential_scan", scan)
  return scanned


READ_CASES = ([f"line{n}-{m}-r{r}" for n in (9, 10)
               for m in ("multispecies:2", "exclusion") for r in (1, 2)]
              + [f"{lat}-{m}-r1" for lat in ("square7", "square9", "hexagonal5")
                 for m in ("multispecies:2", "exclusion")]
              + ["triangular7-exclusion-r1"]
              + [f"line9-{m}-r1"
                 for m in ("spin3", "generalized-exclusion:2", "glauber")])


def _brute_supports(sites, domain, locale, radius):
  """Every subset of ``sites`` of diameter at most ``radius`` that meets
  ``domain``, by size, then in ``combinations`` order.  Dropping a site
  outside the domain keeps a support admissible, so the first size with
  none ends the search."""
  found = []
  for size in range(1, len(sites) + 1):
    kept = [supp for supp in combinations(sites, size)
            if set(supp) & set(domain)
            and support_diameter(supp, locale) <= radius]
    if not kept:
      break
    found += kept
  return found


def _maximal(supports):
  """The admissible supports that lie in no other, in sorted order.  A
  support inside another is one site short of some admissible support
  between them, so only one-site-short supports are dropped."""
  short = {t[:k] + t[k + 1:] for t in supports for k in range(len(t))}
  return sorted(set(supports) - short)


def _orbit_average_by_support(read, h, basis, domain, sites, locale, radius,
                              action, inter):
  """The orbit average support by support: over every admissible support L
  (``_brute_supports``), the top Moebius piece of the corrected potential
  read on L alone, weighted by 1 / ``translates_meeting``."""
  s, base = inter.n_states, inter.base
  terms = []
  for supp in _brute_supports(sites, domain, locale, radius):
    g = _quantity_corrected(read(supp), supp, basis, h, "{}")
    # The top piece of the Moebius table: its entries with no site at base.
    table = _mobius(g.nums, len(supp), s, base)
    piece = LocalFunction._exact(
        supp, s, base, [0 if base in digits else v for digits, v in
                        zip(product(range(s), repeat=len(supp)), table)],
        g.denom)
    if not piece.is_zero():
      terms.append((Fraction(1, len(translates_meeting(action, piece,
                                                       domain))), piece))
  return trim(_combine(terms, s, base))


# (locale, window corners, domain): the sites searched are the window's part
# of the domain's radius ball.
SUPPORT_CASES = {
    "line": (Euclidean(1), ((0,), (8,)), ((4,),)),
    "square": (Euclidean(2), ((0, 0), (6, 6)), ((3, 3),)),
    "triangular": (Triangular(), ((0, 0), (6, 6)), ((3, 3),)),
    "hexagonal": (Hexagonal(), ((0, 0), (4, 4)), ((2, 2, 0), (2, 2, 1))),
    "nneighbor22": (NNeighbor(2, 2), ((0, 0), (3, 3)), ((1, 1),)),
}


@pytest.mark.parametrize("radius", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_admissible_supports_match_the_subset_filter(name, radius):
  # The maximal supports are the maximal sets the subset filter admits.
  locale, (lo, hi), domain = SUPPORT_CASES[name]
  win = box(locale, lo, hi)
  sites = sorted({y for x in domain for y in locale.ball(x, radius)
                  if y in win})
  got = decomposition._maximal_supports(sites, domain, locale, radius)
  assert got == _maximal(_brute_supports(sites, domain, locale, radius))


def _check_maximal_supports(got, sites, domain, locale, radius):
  """Each support is sorted, of diameter at most ``radius``, meets
  ``domain`` and takes no further site; none repeats; sorted order."""
  assert got == sorted(set(got))
  for supp in got:
    assert supp == tuple(sorted(supp)) and set(supp) <= set(sites)
    assert support_diameter(supp, locale) <= radius
    assert set(supp) & set(domain)
    assert not any(all(locale.distance(x, y) <= radius for y in supp)
                   for x in sites if x not in supp)


def test_maximal_supports_on_the_whole_nneighbor_ball():
  # 41 sites and 59392 admissible supports, 25 maximal ones.  The center
  # is within the radius of every site, so each support holds it.
  locale, radius = NNeighbor(2, 2), 2
  sites = list(locale.ball((0, 0), radius))
  got = decomposition._maximal_supports(sites, ((0, 0),), locale, radius)
  assert len(sites) == 41 and len(got) == 25
  _check_maximal_supports(got, sites, ((0, 0),), locale, radius)


@pytest.mark.parametrize("mutant", ("not-maximal", "domain-unfiltered"))
def test_maximal_support_checks_catch_mutants(mutant):
  # On the hexagonal two-site domain at r = 2, 4 of the 16 maximal sets of
  # the ball miss the domain.
  locale, (lo, hi), domain = SUPPORT_CASES["hexagonal"]
  win, radius = box(locale, lo, hi), 2
  sites = sorted({y for x in domain for y in locale.ball(x, radius)
                  if y in win})
  got = decomposition._maximal_supports(sites, domain, locale, radius)
  if mutant == "not-maximal":  # one support loses a site off the domain
    drop = next(x for x in got[0] if x not in domain)
    got = sorted(got[1:] + [tuple(x for x in got[0] if x != drop)])
  else:
    got = decomposition._maximal_supports(sites, sites, locale, radius)
  assert got != _maximal(_brute_supports(sites, domain, locale, radius))
  with pytest.raises(AssertionError):
    _check_maximal_supports(got, sites, domain, locale, radius)


@pytest.mark.parametrize("case", READ_CASES)
def test_read_regions_match_the_sub_window_potential(case, monkeypatch):
  win, inter, basis, act, domain, omega = _read_case(case)
  readers, paired = [], []
  real_reader = decomposition._potential_scan
  real_pairing = decomposition._pairing

  def reader(remainder, sub_win, inter, budget):
    read, denom, pins = real_reader(remainder, sub_win, inter, budget)
    calls = []
    readers.append((remainder, sub_win, calls))

    def recorded(sites, *label):
      calls.append((sites, read(sites, *label)))
      return calls[-1][1]
    return recorded, denom, pins

  def pairing(read, *args):
    table = real_pairing(read, *args)
    paired.append(len(readers[-1][2]))
    return table

  monkeypatch.setattr(decomposition, "_potential_scan", reader)
  monkeypatch.setattr(decomposition, "_pairing", pairing)
  scanned = _spy_scans(monkeypatch)
  try:
    rep = varadhan_decompose(omega, win, inter, basis, act, domain)
  except InputError as exc:  # the probe plan or the window falls short
    rep = str(exc)
  *probes, (remainder, sub_win, calls) = readers
  scans = list(scanned)

  # The pairing reads the probe unions; then each maximal support is read
  # once, in order, until the end or an uncovered quantity; no read spans
  # more sites than the largest of those.  Each read equals the whole
  # sub-window's potential restricted to it.
  unions = {tuple(sorted(first + second))
            for first, second in default_probes(sub_win, inter, omega.radius)}
  centered = decomposition._recenter_domain(win, act, domain)
  ball = sorted({y for x in centered
                 for y in win.locale.ball(x, omega.radius)})
  supports = _maximal(_brute_supports(ball, centered, win.locale,
                                      omega.radius))
  (split,) = paired
  reads = [sites for sites, _ in calls]
  assert set(reads[:split]) == unions
  assert reads[split:] == supports[:len(reads) - split]
  if isinstance(rep, str) and "did not cover" in rep:
    assert split < len(reads) <= split + len(supports)
  else:
    assert reads[split:] == supports
  assert max(map(len, reads)) <= max(map(len, unions | set(supports)))
  whole, _ = integrate(remainder, sub_win, inter, budget=DEFAULT_SUB_BUDGET)
  for sites, got in calls:
    assert got == restrict(whole, sites)
  if isinstance(rep, dict):
    assert rep["residual"]["ok"]
    # The pieces of the maximal supports' expansions are the pieces of
    # every admissible support read alone.
    assert rep["f"] == _orbit_average_by_support(
        lambda sites: restrict(whole, sites), rep["h"], basis, centered, ball,
        win.locale, omega.radius, act, inter)

  # One scan per generator's probe window, read twice at its four probe
  # ends (potentials, then labels), then one on the sub-window; every read
  # comes from its level maps.
  assert scans == _probe_sizes(win, act, basis) + [sub_win.n_sites]
  assert [w.n_sites for _, w, _ in probes] == scans[:-1]
  for _, _, ((first, _), (second, _)) in probes:
    assert first == second and len(first) == 4


CYCLE_MAP = {"name": "cyc", "states": [0, 1, 2], "base": 0,
             "map": [[0, 1, 1, 0], [1, 0, 0, 1], [1, 2, 2, 1], [2, 1, 1, 2],
                     [0, 2, 1, 1], [1, 1, 2, 0], [2, 0, 0, 2]]}


def _result_digest(rep):
  out = dict(rep)
  out["a"] = [list(map(fraction_to_str, row)) for row in rep["a"]]
  out["f"] = [list(rep["f"].support), list(rep["f"].nums), rep["f"].denom]
  out["h"] = sorted((str(list(map(str, q))), str(v))
                    for q, v in rep["h"].items())
  out["table"] = decomposition.pairing_table_to_json(rep["table"])
  text = json.dumps(out, sort_keys=True, default=str)
  return hashlib.sha256(text.encode()).hexdigest()


# Digests of the whole result, taken before the read-region integration and
# re-taken when the result dropped its unread ``radius`` (a copy of
# ``margins.radius``) and ``potential_components`` (the scan's pin count):
# the result with those two keys put back hashes to the earlier digests.
FALLBACK_DIGESTS = {
    "spin3": "87e902316509327bb18e5b41fc8a1a3892979e92a814a285396ecff47e51165c",
    "generalized-exclusion:2":
        "0db3ae079f7dba2ee47b5549728fa1edf5f2ca9e3aa917e83d954ed9bf01d7d1",
    "glauber": "945148b1edcb1b8c55f225d1bf9f65c12704769dd5a04268c9b0cb6a600137ff",
    "custom": "2cdf482cb1ca915d80c8d35747f73ab52ab5a33dd52913f4bc49cc5f43c91f14",
}


@pytest.mark.parametrize("name", sorted(FALLBACK_DIGESTS) + ["pair-flip"])
def test_fallback_models_scan_the_whole_sub_window(name, monkeypatch):
  inter = (interaction_from_json(CYCLE_MAP) if name == "custom"
           else by_name(name))
  basis = conserved_basis(inter)
  win = line(9)
  act, domain = ((TranslationAction(Euclidean(1), ((2,),)), ((4,), (5,)))
                 if name == "generalized-exclusion:2" else (Z_ACTION, ((4,),)))
  base = inter.base
  f = from_callable(((4,), (5,)), inter.n_states, base,
                    lambda d: Fraction(0) if d == (base, base)
                    else Fraction(3 * d[0] - d[1] + 1, 2))
  a = tuple(tuple(Fraction(k + 1, 3) for _ in range(act.rank))
            for k in range(len(basis)))
  omega = synthesized_form(f, a, act, domain, win, inter, basis)
  sub_win = decomposition._centered_subwindow(win, inter, (4,),
                                              DEFAULT_SUB_BUDGET)
  scanned = _spy_scans(monkeypatch)
  if name == "pair-flip":  # parity splits the fibers
    with pytest.raises(PairingNotWellDefined) as info:
      varadhan_decompose(omega, win, inter, basis, act, domain)
    probe = {"first": [[1], [2], [3]], "second": [[5], [6], [7]],
             "distance": 2}
    assert info.value.witness == {"cell": {"a": [], "b": []},
                                  "values": ["0", "4"],
                                  "probes": [probe, probe]}
  else:
    rep = varadhan_decompose(omega, win, inter, basis, act, domain)
    assert rep["residual"]["ok"]
    assert _result_digest(rep) == FALLBACK_DIGESTS[name]
  assert scanned == _probe_sizes(win, act, basis) + [sub_win.n_sites]


def _three_body_bump(win, c):
  """A shift-invariant exclusion form that is not closed: c on the move
  (1, 1, 0, 1) -> (1, 0, 1, 1) of four consecutive sites, across the middle
  edge in either orientation, and -c on the move back."""
  fns = {}
  for (x,) in win.vertices:
    sites = ((x - 1,), (x,), (x + 1,), (x + 2,))
    if not all(v in win for v in sites):
      continue
    g = from_callable(sites, 2, 0, lambda d: c if d == (1, 1, 0, 1)
                      else -c if d == (1, 0, 1, 1) else 0)
    fns[((x,), (x + 1,))] = fns[((x + 1,), (x,))] = g
  return Form(2, 0, fns, 2)


def test_non_closed_input_exits_1_with_a_cycle_that_replays(tmp_path):
  win = box(Euclidean(1), (0,), (10,))
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(((5,), (6,)), 2, 0, lambda d: Fraction(d[0] * d[1], 2))
  omega = synthesized_form(f, ((Fraction(-2, 3),),), Z_ACTION, ((5,),), win,
                           inter, basis)
  bad = form_add(omega, _three_body_bump(win, Fraction(1, 3)), 2)
  man = {"locale": {"kind": "euclidean", "d": 1}, "interaction": "exclusion",
         "window": {"kind": "box", "lo": [0], "hi": [10]},
         "form": form_to_json(bad, win), "action": {"generators": [[1]]},
         "domain": [[5]]}
  path, out = tmp_path / "man.json", tmp_path / "out.json"
  path.write_text(json.dumps(man))
  assert main(["decompose", "--manifest", str(path), "--out", str(out)]) == 1
  rep = json.loads(out.read_text())
  assert rep["error"]["kind"] == "NotClosedError"
  witness = rep["error"]["witness"]
  # The cycle comes from the scan of the sub-window, with every site
  # outside it at base; it closes on the window and its integral under the
  # input form is the reported nonzero defect.
  configs = [config_from_json(win, inter, step["config"])
             for step in witness["cycle"]]
  edges = [tuple(map(win.locale.decode_vertex, step["edge"]))
           for step in witness["cycle"]]
  total = Fraction(0)
  for k, (cfg, (u, v)) in enumerate(zip(configs, edges)):
    nxt = apply_edge(cfg, win.position(u), win.position(v), inter)
    assert nxt != cfg and nxt == configs[(k + 1) % len(configs)]
    total += bad.fn((u, v)).value_at(dict(zip(win.vertices, cfg)))
  assert fraction_to_str(total) == witness["integral"] == witness["defect"]
  assert total != 0


# ---------------------------------------------------------------------------
# CLI reports stay byte-identical

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(json.loads(
    (DATA / "report_digests.json").read_text())))
def test_cli_reports_keep_their_bytes(name, tmp_path):
  """The sha256 of each committed manifest's report, as recorded before the
  decomposition learnt to integrate only where it reads (the ``diff``
  report: before the gradient read move slices; the two ``_coarse``
  decompositions, whose actions step by two sites along the first axis: at
  commit 4aaa1b0, before the translate sums were keyed by edge orbit; the
  ``pairing`` and ``uniformize`` reports of the 3x3 quadratic, whose axis-1
  probe halves interleave in union order: at commit 671442b, before the
  pairing enumerated each probe half once; the triangular 10x10 glauber
  decomposition at radius 2: at commit 9f07541, before the orbit average
  read each admissible support alone instead of the whole radius ball: 6-8
  s there, 0.15 s after, in process on a 2-vCPU host; the ``split`` of an
  inline exclusion table whose quantities are halves, the one report where
  the chain iteration divides Fraction keys: at commit 856ec30, before the
  pairing table was keyed by the raw quantity sums; the two ``expand``
  reports, a four-site inline spin3 function with pieces of every size and
  the inversion count on a multispecies:2 line of 7: at commit 1931115,
  before the expansion read its pieces in one pass; the ``omega-rho``
  report of every committed ``decompose_*`` manifest and the ``integrate``
  report of each of its five line manifests, the flux alone and the
  potential of the synthesized form: at commit 47e198f, before the flux was
  built as the gradient of the tile weights by the translate sums; the
  ``decompose`` and ``omega-rho`` reports of the triangular 7x7 exclusion
  manifest at radius 1, whose 19-site sub-window needs ``sub_budget`` 2^20
  and whose one-quantity table takes the linear solve: at commit 616043f,
  before ``decompose`` stopped reading the manifest's ``probe`` section; the
  ``decompose`` and ``omega-rho`` reports of the 13-site n-neighbor (d 1,
  n 2) exclusion line: taken when default probes first oriented every
  one-dimensional lattice, the first change under which that line
  decomposed; the ``decompose`` report of the custom hop rule on line(11),
  where state 1 hops and (1, 1) <-> (2, 0): taken when the cocycle was
  first read off the probe-window potential, the first change under which
  that rule decomposed).  A key runs the command it starts with, on the
  manifest named by the whole key or else by the rest of it."""
  want = json.loads((DATA / "report_digests.json").read_text())[name]
  out = tmp_path / "report.json"
  if name == "counterexample":
    argv = ["counterexample"]
  else:
    command, rest = name.split("_", 1)
    manifest = DATA / f"{name}.json"
    if not manifest.exists():
      manifest = DATA / f"{rest}.json"
    argv = [command, "--manifest", str(manifest)]
  assert main(argv + ["--out", str(out)]) == 0
  assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("name", [
    "decompose_exclusion_hexagonal5", "decompose_exclusion_square7",
    "decompose_exclusion_square7_coarse",
    "decompose_multispecies2_line9_coarse", "decompose_spin3_line9"])
def test_far_domain_translates_keep_the_pinned_bytes(name, tmp_path):
  """decompose carries the fundamental domain next to the window's center,
  so a translate 20 steps of the first generator outside the window gives
  the pinned report."""
  man = json.loads((DATA / f"{name}.json").read_text())
  step = man["action"]["generators"][0]
  man["domain"] = [[c + 20 * g for c, g in zip(v, step)] + v[len(step):]
                   for v in man["domain"]]
  assert all(v[0] > man["window"]["hi"][0] for v in man["domain"])
  path, out = tmp_path / "man.json", tmp_path / "report.json"
  path.write_text(json.dumps(man))
  assert main(["decompose", "--manifest", str(path), "--out", str(out)]) == 0
  want = json.loads((DATA / "report_digests.json").read_text())[name]
  assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_triangular_r2_orbit_average_matches_the_support_by_support_rule(
    tmp_path, monkeypatch):
  """19 maximal supports stand in for the 448 admissible ones of the
  triangular 10x10 glauber decomposition at radius 2: same f."""
  seen = {}
  real_reader = decomposition._potential_scan
  real_decompose = decomposition.varadhan_decompose

  def reader(*args):
    seen["read"], denom, pins = real_reader(*args)
    return seen["read"], denom, pins

  def decompose(form, win, inter, basis, action, domain, **kwargs):
    seen["rep"] = real_decompose(form, win, inter, basis, action, domain,
                                 **kwargs)
    seen["args"] = win, inter, basis, action, domain
    return seen["rep"]

  monkeypatch.setattr(decomposition, "_potential_scan", reader)
  monkeypatch.setattr(cli, "varadhan_decompose", decompose)
  out = tmp_path / "report.json"
  manifest = DATA / "decompose_glauber_triangular10_r2.json"
  assert main(["decompose", "--manifest", str(manifest), "--out",
               str(out)]) == 0
  win, inter, basis, act, domain = seen["args"]
  rep, radius = seen["rep"], seen["rep"]["margins"]["radius"]
  centered = decomposition._recenter_domain(win, act, tuple(sorted(domain)))
  ball = sorted({y for x in centered for y in win.locale.ball(x, radius)})
  assert len(decomposition._maximal_supports(ball, centered, win.locale,
                                             radius)) == 19
  assert len(_brute_supports(ball, centered, win.locale, radius)) == 448
  assert rep["f"] == _orbit_average_by_support(
      seen["read"], rep["h"], basis, centered, ball, win.locale, radius, act,
      inter)


# The sha256 of each ``closed`` report, taken before the witness cycle was
# read off the breadth-first scan's own tree: spin3's two-step rotation
# cycle, an 8-step cycle of a one-cell perturbed glauber differential, and a
# 16-step cycle pinned at a component late in seed order (a multispecies:2
# omega-rho form bumped at a cell that sets all nine sites).
WITNESS_DIGESTS = {
    "closed_glauber_line6":
        "d36c95bef868dbd5058e63eda9cde1397bff4001dfce4eb04600d727bd98c0b3",
    "closed_multispecies2_line9_far":
        "bca9f98e50be0914e018609ff948f079c6253171bd7c67cd89df6d33c7e18828",
    "closed_spin3_line7":
        "5bcf2cc4a92dcd1ef8b58617340501ab9f82d500632a7c914f292d78302be265",
}


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_witness_reports_keep_their_bytes(name, tmp_path):
  out = tmp_path / "report.json"
  assert main(["closed", "--manifest", str(DATA / f"{name}.json"),
               "--out", str(out)]) == 1
  assert hashlib.sha256(out.read_bytes()).hexdigest() == WITNESS_DIGESTS[name]


# The sha256 of each report, taken before the slab kernel read wide forms.
WIDE_SCAN_DIGESTS = {
    "decompose_glauber_square6":
        "2dd3b3e896436edab5026270d608f6d3effd678300777db8707d51449c60f5b1",
    "decompose_multispecies2_line10_r2":
        "453548dd1030d24a29b61bd264972fddd19b9ec4a6c4e7fd09156f4d6d9fe82b",
    "decompose_spin3_line10":
        "7e45b55262ed85c3fb502124895ae341af3405d3877d04902ac7c6cbd2d9781b",
    "decompose_spin3_line9":
        "80c44449b5449f0d77ed38eff38585944abb90d7596ea306614dfb64a842243e",
}


@pytest.mark.parametrize("name", sorted(WIDE_SCAN_DIGESTS))
def test_decompose_scans_take_no_breadth_first_step(name, tmp_path,
                                                    monkeypatch):
  """Each remainder the decomposition integrates on its sub-window reads
  beyond its edges, and the slab kernel decides every one: the
  breadth-first loop never starts a queue, and the report keeps its
  bytes."""
  wide, solved, queues = [], [], []
  real_scan, real_slab, real_deque = (decomposition._potential_scan,
                                      calculus._slab_solve, calculus.deque)

  def scan(form, window, inter, budget):
    wide.append(any(not set(fn.support) <= set(e)
                    for e, fn in form.fns.items()))
    return real_scan(form, window, inter, budget)

  def slab(window, inter, reads):
    out = real_slab(window, inter, reads)
    solved.append(out is not None)
    return out

  def deque(*args):
    queues.append(args)
    return real_deque(*args)

  monkeypatch.setattr(decomposition, "_potential_scan", scan)
  monkeypatch.setattr(calculus, "_slab_solve", slab)
  monkeypatch.setattr(calculus, "deque", deque)
  out = tmp_path / "report.json"
  assert main(["decompose", "--manifest", str(DATA / f"{name}.json"),
               "--out", str(out)]) == 0
  assert wide and all(wide)
  assert solved == [True] * len(wide)
  assert not queues
  assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_SCAN_DIGESTS[name]


def test_decompose_builds_no_sub_window_table(tmp_path):
  """The remainder's potential is read off the kernel's level maps: CLI
  ``decompose`` on a 3^10 sub-window peaks below one list of 3^10 ints."""
  out = tmp_path / "report.json"
  argv = ["decompose", "--manifest", str(DATA / "decompose_spin3_line10.json"),
          "--out", str(out)]
  tracemalloc.start()
  try:
    assert main(argv) == 0
    peak = tracemalloc.get_traced_memory()[1]
  finally:
    tracemalloc.stop()
  assert json.loads(out.read_text())["sub_window_sites"] == 10
  assert peak < sys.getsizeof([0] * 3 ** 10)
