"""Exact-support expansion, differentials, closed forms on windows.

The expansion tests pit the closed-form inclusion-exclusion against the
defining recursion, computed here from scratch, on randomized functions.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.calculus import (Form, LocalFunction, NotClosedError, _gather,
                                 add, constant, differential, embed, expansion,
                                 exact_support_radius, form_axioms_report,
                                 form_add, form_from_json, form_scale,
                                 form_sub, form_to_json, from_callable,
                                 functions_equal, gradient, integrate,
                                 is_closed, is_uniform,
                                 local_function_from_json,
                                 local_function_to_json, perturbed, reassemble,
                                 restrict, scale, sub, trim,
                                 uniformity_criterion)
from configcalc.configspace import (all_configs, apply_edge, config_to_json,
                                    digits_from_sites)
from configcalc.interactions import (by_name, conserved_basis, exclusion,
                                     glauber, multispecies, spin3)
from configcalc.locales import Euclidean, box
from configcalc.serialize import InputError, fraction_to_str


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


def random_function(rng, support, n_states, base, denom=6):
  vals = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, denom))
               for _ in range(n_states ** len(support)))
  return LocalFunction(tuple(sorted(support)), n_states, base, vals)


def iota(f, region):
  return restrict(f, set(region))


def recursion_pieces(f):
  """The defining recursion: piece(L) = iota_L f - sum of smaller pieces."""
  supp = f.support
  pieces = {}
  subsets = []
  for k in range(len(supp) + 1):
    subsets.extend(combinations(supp, k))
  for sub_supp in subsets:
    val = iota(f, sub_supp)
    acc = constant(0, f.n_states, f.base)
    for smaller in pieces:
      if set(smaller) < set(sub_supp):
        acc = add(acc, embed(pieces[smaller], sub_supp)
                  if smaller else constant(pieces[smaller].value_at({}),
                                           f.n_states, f.base))
    pieces[sub_supp] = trim(sub(val, acc))
  return {s: p for s, p in pieces.items() if not p.is_zero()}


def test_expansion_matches_recursion_small():
  rng = random.Random(7)
  inter = multispecies(2)
  for _ in range(25):
    support = tuple((x,) for x in sorted(rng.sample(range(5), rng.randint(1, 3))))
    f = random_function(rng, support, inter.n_states, inter.base)
    got = expansion(f)
    want = recursion_pieces(f)
    assert set(got) == set(want)
    for s in got:
      assert functions_equal(got[s], embed(want[s], s) if want[s].support != s
                             else want[s]), s


def inclusion_exclusion_pieces(f):
  """Brute force: f_L(eta) is the sum over L' inside L of
  (-1)^(|L| - |L'|) f(eta on L'); pieces by size, then combinations order."""
  pieces = {}
  for size in range(len(f.support) + 1):
    for sub_supp in combinations(f.support, size):
      vals = []
      for digits in product(range(f.n_states), repeat=size):
        total = Fraction(0)
        for k in range(size + 1):
          for inner in combinations(range(size), k):
            total += (-1) ** (size - k) * f.value_at(
                {sub_supp[i]: digits[i] for i in inner})
        vals.append(total)
      if any(vals):
        pieces[sub_supp] = tuple(vals)
  return pieces


@pytest.mark.parametrize("n, n_states, base", [
    (0, 3, 0), (1, 2, 1), (3, 3, 0), (3, 3, 2), (3, 4, 3), (4, 2, 1),
    (4, 3, 1), (5, 2, 0)])
def test_expansion_matches_inclusion_exclusion(n, n_states, base):
  rng = random.Random(100 * n + 10 * n_states + base)
  for _ in range(3):
    support = tuple((x,) for x in sorted(rng.sample(range(9), n)))
    dense = random_function(rng, support, n_states, base)
    # a function of the first half of the support only: pieces get dropped
    half = embed(random_function(rng, support[:n // 2], n_states, base),
                 support)
    for f in (dense, half):
      got = expansion(f)
      want = inclusion_exclusion_pieces(f)
      assert list(got) == list(want)
      assert [p.support for p in got.values()] == list(want)
      assert [p.values for p in got.values()] == list(want.values())


def test_expansion_reconstructs():
  rng = random.Random(11)
  inter = spin3()
  for _ in range(25):
    support = tuple((x,) for x in sorted(rng.sample(range(6), rng.randint(1, 3))))
    f = random_function(rng, support, inter.n_states, inter.base)
    pieces = expansion(f)
    back = reassemble(pieces, f.support, f.n_states, f.base)
    assert functions_equal(back, f)


def test_expansion_pieces_vanish_when_any_site_is_base():
  rng = random.Random(13)
  inter = multispecies(2)
  support = ((0,), (1,), (2,))
  f = random_function(rng, support, inter.n_states, inter.base)
  for supp, piece in expansion(f).items():
    if not supp:
      continue
    for digits in product(range(inter.n_states), repeat=len(piece.support)):
      if all(d != inter.base for d in digits):
        continue
      assert piece.value_at(dict(zip(piece.support, digits))) == 0


def test_expansion_of_embedded_function_adds_no_pieces():
  # padding the support with irrelevant sites must not create pieces there
  inter = exclusion()
  f = from_callable(((1,),), inter.n_states, inter.base, lambda d: 3 * d[0])
  g = embed(f, ((0,), (1,), (2,)))
  pieces = expansion(g)
  assert set(pieces) == {((1,),)}


def test_trim_drops_padding():
  inter = exclusion()
  f = from_callable(((1,),), inter.n_states, inter.base, lambda d: 3 * d[0])
  g = embed(f, ((0,), (1,), (5,)))
  assert trim(g).support == ((1,),)


def test_exact_support_radius():
  inter = exclusion()
  loc = Euclidean(1)
  f = from_callable(((0,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  assert exact_support_radius(f, loc) == 3
  g = from_callable(((0,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] + d[1]))
  # additive: splits into singleton pieces
  assert exact_support_radius(g, loc) == 0


def test_is_uniform_reports_offenders():
  inter = exclusion()
  loc = Euclidean(1)
  f = from_callable(((0,), (4,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  rep = is_uniform(f, loc, 2)
  assert not rep["uniform"]
  assert rep["offenders"]
  assert is_uniform(f, loc, 4)["uniform"]


def test_uniformity_criterion_matches_direct_check():
  inter = exclusion()
  loc = Euclidean(1)
  region = tuple((x,) for x in range(5))
  rng = random.Random(3)
  for _ in range(10):
    f = random_function(rng, ((0,), (1,)), inter.n_states, inter.base)
    g = embed(f, region)
    for x in region:
      assert uniformity_criterion(g, loc, region, x, 1)
  # product across distance 3 fails the radius-1 criterion at an endpoint
  h = from_callable(((0,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  h = embed(h, region)
  assert not uniformity_criterion(h, loc, region, (0,), 1)


def test_gradient_is_zero_for_conserved_quantity():
  win = line(4)
  for name in ("exclusion", "multispecies:2", "spin3", "lattice-gas:2"):
    inter = by_name(name)
    for vec in conserved_basis(inter):
      f = from_callable(win.vertices, inter.n_states, inter.base,
                        lambda d: sum(vec[x] for x in d))
      for e in win.edges:
        assert gradient(f, e, inter).is_zero(), (name, e)


def test_differential_satisfies_axioms():
  win = line(4)
  inter = multispecies(2)
  rng = random.Random(5)
  f = random_function(rng, ((1,), (2,)), inter.n_states, inter.base)
  form = differential(f, win, inter)
  rep = form_axioms_report(form, win, inter)
  assert rep["ok"], rep


def test_differential_radius_is_honest():
  win = line(5)
  inter = exclusion()
  f = from_callable(((1,), (2,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  form = differential(f, win, inter)
  assert form.radius == 1


def test_closed_and_integrate_roundtrip():
  win = line(4)
  inter = multispecies(2)
  rng = random.Random(17)
  for _ in range(10):
    f = random_function(rng, ((0,), (1,), (2,)), inter.n_states, inter.base)
    form = differential(f, win, inter)
    rep = is_closed(form, win, inter)
    assert rep["closed"]
    g, meta = integrate(form, win, inter)
    # recovered up to a constant on each transition component
    dg = differential(g, win, inter)
    for e in set(dg.fns) | set(form.fns):
      a = dg.fn(e) or constant(0, inter.n_states, inter.base)
      b = form.fn(e) or constant(0, inter.n_states, inter.base)
      assert functions_equal(a, b), e


def test_integrate_pins_zero_at_base_configuration():
  win = line(3)
  inter = exclusion()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(2 * d[0] * d[1] + d[1]))
  form = differential(f, win, inter)
  g, meta = integrate(form, win, inter)
  assert g.value_at({}) == 0
  assert meta["n_components"] == 4


def test_perturbed_breaks_closedness_with_valid_cycle():
  win = line(4)
  inter = exclusion()
  rng = random.Random(23)
  f = random_function(rng, ((0,), (1,), (2,)), inter.n_states, inter.base)
  form = differential(f, win, inter)
  edge = ((1,), (2,))
  bad = perturbed(form, win, inter, edge, {(1,): 1, (2,): 0}, Fraction(5, 7))
  rep = is_closed(bad, win, inter)
  assert not rep["closed"]
  w = rep["witness"]
  assert w["integral"] == w["defect"]
  assert w["integral"] != "0"
  # every step of the witness cycle is a genuine transition
  seen = None
  win_pos = {v: i for i, v in enumerate(win.vertices)}
  for step in w["cycle"]:
    digits = digits_from_sites(
        win, inter,
        {tuple(s): inter.state_index(x)
         for s, x in zip(step["config"]["sites"], step["config"]["states"])})
    if seen is not None:
      assert digits == seen
    e = tuple(tuple(v) for v in step["edge"])
    nxt = apply_edge(digits, win_pos[e[0]], win_pos[e[1]], inter)
    assert nxt != digits
    seen = nxt
  first = w["cycle"][0]["config"]
  start = digits_from_sites(
      win, inter, {tuple(s): inter.state_index(x)
                   for s, x in zip(first["sites"], first["states"])})
  assert seen == start, "witness walk is closed"


# -- the integer transition kernel against a plain Fraction oracle ----------

MIXED = (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 9), Fraction(4, 21),
         Fraction(-1, 6), Fraction(0))


def mixed_function(rng, support, inter):
  vals = tuple(rng.choice(MIXED) for _ in range(inter.n_states ** len(support)))
  return LocalFunction(tuple(sorted(support)), inter.n_states, inter.base, vals)


def reference_scan(form, window, inter):
  """The potential scan in plain Fraction arithmetic over digit tuples.

  Seeds: the all-base configuration, then every unreached configuration in
  index order; each popped configuration tries the window edges in order,
  first in first out.  Returns (values, pins, witness).
  """
  configs = list(all_configs(window, inter))
  index = {digits: i for i, digits in enumerate(configs)}
  pos = [(window.position(u), window.position(v)) for u, v in window.edges]
  moves = {}  # (configuration index, edge) -> target index, moved pairs only
  for i, digits in enumerate(configs):
    for e, (pu, pv) in zip(window.edges, pos):
      moved = apply_edge(digits, pu, pv, inter)
      if moved != digits:
        moves[i, e] = index[moved]

  def value(e, i):
    fn = form.fn(e)
    if fn is None:
      return Fraction(0)
    return fn.value_at(dict(zip(window.vertices, configs[i])))

  values = [None] * len(configs)
  parent = {}
  pins = []
  star = index[(inter.base,) * window.n_sites]
  for seed in [star] + list(range(len(configs))):
    if values[seed] is not None:
      continue
    values[seed] = Fraction(0)
    pins.append(seed)
    queue = deque([seed])
    while queue:
      i = queue.popleft()
      for e in window.edges:
        j = moves.get((i, e))
        if j is None:
          continue
        new = values[i] + value(e, i)
        if values[j] is None:
          values[j] = new
          parent[j] = (i, e)
          queue.append(j)
        elif values[j] != new:
          return None, None, reference_witness(
              form, window, inter, configs, moves, parent, pins[-1], i, e, j,
              new - values[j], value)
  return values, pins, None


def reference_witness(form, window, inter, configs, moves, parent, pin, i, e,
                      j, defect, value):
  def branch(to):
    steps = []
    while to != pin and to in parent:
      prev, edge = parent[to]
      steps.append((prev, edge, to))
      to = prev
    return steps[::-1]

  walk = branch(i) + [(i, e, j)]
  for prev, edge, cur in reversed(branch(j)):
    partner = (edge[1], edge[0])
    if moves.get((cur, partner)) != prev:
      partner = next((f for f in window.edges if moves.get((cur, f)) == prev),
                     edge)
    walk.append((cur, partner, prev))
  enc = window.locale.encode_vertex
  return {
      "cycle": [{"config": config_to_json(window, inter, configs[src]),
                 "edge": [enc(edge[0]), enc(edge[1])]}
                for src, edge, _ in walk],
      "integral": fraction_to_str(sum(value(edge, src) for src, edge, _ in walk)),
      "defect": fraction_to_str(defect),
  }


def mixed_closed_form(rng, window, inter):
  """A sum of differentials whose edge functions read the edge alone, a
  contiguous run of sites around it, or two separate runs."""
  f = mixed_function(rng, ((1,), (3,)), inter)
  g = mixed_function(rng, ((4,), (5,)), inter)
  return form_add(differential(f, window, inter), differential(g, window, inter))


@pytest.mark.parametrize("name", ["multispecies:2", "generalized-exclusion:2",
                                  "glauber"])
def test_integrate_matches_fraction_oracle(name):
  rng = random.Random(23)
  win, inter = line(6), by_name(name)
  form = mixed_closed_form(rng, win, inter)
  assert {v.denominator for fn in form.fns.values() for v in fn.values} - {1}
  values, pins, witness = reference_scan(form, win, inter)
  assert witness is None
  f, meta = integrate(form, win, inter)
  assert list(f.values) == values
  assert meta == {"n_components": len(pins), "pins": pins}
  assert is_closed(form, win, inter)["n_components"] == len(pins)


@pytest.mark.parametrize("name", ["multispecies:2", "generalized-exclusion:2",
                                  "glauber"])
def test_not_closed_witness_matches_fraction_oracle(name):
  rng = random.Random(29)
  win, inter = line(6), by_name(name)
  form = mixed_closed_form(rng, win, inter)
  for _ in range(6):
    edge = rng.choice(win.edges)
    cells = [(a, b) for a in range(inter.n_states) for b in range(inter.n_states)
             if inter.moves(a, b)]
    a, b = rng.choice(cells)
    bad = perturbed(form, win, inter, edge, {edge[0]: a, edge[1]: b},
                    rng.choice(MIXED[:5]))
    _, _, want = reference_scan(bad, win, inter)
    rep = is_closed(bad, win, inter)
    assert not rep["closed"]
    assert rep["witness"] == want
    with pytest.raises(NotClosedError) as err:
      integrate(bad, win, inter)
    assert err.value.witness == want


@pytest.mark.parametrize("name", ["multispecies:2", "generalized-exclusion:2",
                                  "spin3", "glauber"])
def test_gradient_matches_definition(name):
  rng = random.Random(31)
  inter = by_name(name)
  f = mixed_function(rng, ((1,), (2,), (4,)), inter)
  for edge in (((0,), (1,)), ((1,), (2,)), ((2,), (1,)), ((4,), (3,)),
               ((5,), (6,))):
    support = tuple(sorted(set(f.support) | set(edge)))
    pu, pv = support.index(edge[0]), support.index(edge[1])

    def nabla(digits):
      moved = apply_edge(digits, pu, pv, inter)
      return (f.value_at(dict(zip(support, moved)))
              - f.value_at(dict(zip(support, digits))))

    assert functions_equal(gradient(f, edge, inter),
                           from_callable(support, inter.n_states, inter.base,
                                         nabla))


def test_perturbation_of_alternation_detected():
  win = line(3)
  inter = exclusion()
  fns = {}
  # deliberately violate alternation on one arc pair
  f01 = from_callable(((0,), (1,)), inter.n_states, inter.base,
                      lambda d: Fraction(1) if d == (1, 0) else Fraction(0))
  fns[((0,), (1,))] = f01
  form = Form(inter.n_states, inter.base, fns, 1)
  rep = form_axioms_report(form, win, inter)
  assert not rep["ok"]
  assert rep["alternation"] is not None


def test_form_vanishes_on_fixed_pairs_axiom():
  win = line(3)
  inter = exclusion()
  # nonzero on a frozen assignment: (0,0) is not moved by the edge
  f01 = from_callable(((0,), (1,)), inter.n_states, inter.base,
                      lambda d: Fraction(1) if d == (0, 0) else Fraction(0))
  form = Form(inter.n_states, inter.base, {((0,), (1,)): f01}, 1)
  rep = form_axioms_report(form, win, inter)
  assert rep["vanishing"] is not None


def test_glauber_relaxed_integration():
  # flips have no conserved quantity: the whole space is one component
  win = line(3)
  inter = glauber()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] + 2 * d[1]))
  form = differential(f, win, inter)
  rep = is_closed(form, win, inter)
  assert rep["closed"]
  assert rep["n_components"] == 1


def test_form_arith():
  win = line(3)
  inter = exclusion()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] - d[1]))
  a = differential(f, win, inter)
  twice = form_add(a, a)
  for e in a.fns:
    assert functions_equal(twice.fn(e), scale(a.fn(e), 2))
  zero = form_sub(a, a)
  assert not zero.fns
  neg = form_scale(a, -1)
  for e in a.fns:
    assert functions_equal(add(a.fn(e), neg.fn(e)),
                           constant(0, inter.n_states, inter.base))


def test_local_function_json_roundtrip():
  loc = Euclidean(2)
  inter = spin3()
  f = from_callable(((0, 0), (0, 1)), inter.n_states, inter.base,
                    lambda d: Fraction(3 * d[0] - d[1], 2))
  obj = local_function_to_json(f, loc)
  back = local_function_from_json(obj, loc, inter)
  assert functions_equal(back, f)
  assert back.support == f.support


def test_local_function_json_rejects_duplicate_sites():
  loc = Euclidean(1)
  inter = exclusion()
  with pytest.raises(InputError):
    local_function_from_json({"support": [[0], [0]], "values": ["0"] * 4},
                             loc, inter)


def test_form_json_roundtrip():
  win = line(3)
  inter = exclusion()
  f = from_callable(((0,), (1,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1] - d[0]))
  form = differential(f, win, inter)
  obj = form_to_json(form, win)
  back = form_from_json(obj, win, inter)
  assert set(back.fns) == set(form.fns)
  for e in form.fns:
    assert functions_equal(back.fn(e), form.fn(e))


def test_form_json_rejects_foreign_edges():
  win = line(3)
  inter = exclusion()
  obj = {"radius": 0, "edges": [{"e": [[0], [2]],
                                 "fn": {"support": [[0], [2]],
                                        "values": ["0", "0", "0", "1"]}}]}
  with pytest.raises(InputError):
    form_from_json(obj, win, inter)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_value_at_defaults_to_base(seed):
  rng = random.Random(seed)
  inter = multispecies(2)
  f = random_function(rng, ((0,), (2,)), inter.n_states, inter.base)
  full = f.value_at({(0,): 0, (2,): 0})
  assert f.value_at({}) == full


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_gather_matches_value_at(seed):
  # targets in any site order, missing some of f's sites and holding sites
  # f does not read; every base of a three-state alphabet
  rng = random.Random(seed)
  sites = [(k,) for k in range(6)]
  for base in range(3):
    f = random_function(rng, rng.sample(sites, rng.randint(0, 4)), 3, base)
    target = tuple(rng.sample(sites, rng.randint(0, 4)))
    expected = [f.value_at(dict(zip(target, digits)))
                for digits in product(range(3), repeat=len(target))]
    assert list(_gather(f, target)) == expected, (f.support, target, base)
