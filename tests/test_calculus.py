"""Exact-support expansion, differentials, closed forms on windows.

The expansion tests pit the closed-form inclusion-exclusion against the
defining recursion, computed here from scratch, on randomized functions.
"""

import json
import random
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import configcalc.calculus as calculus_module
import configcalc.configspace as configspace_module
from configcalc.calculus import (Form, LocalFunction, NotClosedError,
                                 _combine, _gather, _pieces_radius, add,
                                 constant, differential, embed, expansion,
                                 form_axioms_report, form_from_json,
                                 form_to_json, from_callable,
                                 functions_equal, gradient, integrate,
                                 is_closed, is_uniform,
                                 local_function_from_json,
                                 local_function_to_json, perturbed, reassemble,
                                 restrict, scale, sub, trim,
                                 uniformity_criterion)
from configcalc.configspace import (_fixed_slices, _move_slices, apply_edge,
                                    components, config_from_json,
                                    config_to_json, digit_powers,
                                    digits_from_sites, index_of)
from configcalc.cohomology import inversion_count_function, ordered_flux_form
from configcalc.decomposition import TranslationAction, build_omega_rho
from configcalc.interactions import (CATALOG_NAMES, Interaction, by_name,
                                     conserved_basis, exclusion, glauber,
                                     multispecies, spin3)
from configcalc.locales import (Euclidean, FreeGroupCayley, Hexagonal,
                               Triangular, ball_window, box)
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


@pytest.mark.parametrize("s", [2, 3])
def test_trim_matches_the_per_configuration_oracle(s):
  """trim keeps exactly the sites at which some configuration's value
  changes with the digit: random tables on up to 3 sites, half of them
  ignoring one site, padded with an unread site at every position, so the
  digit slices come both contiguous and strided."""
  rng = random.Random(37 + s)
  steps = set()
  for k in range(4):
    sites = tuple((2 * i,) for i in range(k))
    vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(s ** k)]
    ignored = rng.randrange(k) if k else None
    for g in (LocalFunction(sites, s, 0, vals),
              from_callable(sites, s, 0, lambda d: vals[sum(
                  x * s ** i for i, x in enumerate(d) if i != ignored)])):
      for pad in range(k + 1):
        f = embed(g, sites + ((2 * pad - 1,),))
        n = len(f.support)
        configs = list(product(range(s), repeat=n))
        keep = [j for j in range(n) if any(
            f.value_at(dict(zip(f.support, c))) != f.value_at(
                dict(zip(f.support, c[:j] + (x,) + c[j + 1:])))
            for c in configs for x in range(s))]
        assert trim(f).support == tuple(f.support[j] for j in keep)
        assert functions_equal(trim(f), f)
        steps.update(sl.step > 1 for j in range(n)
                     for sl in _fixed_slices(n, s, ((j, 0),)))
  assert steps == {True, False}


@pytest.mark.parametrize("s", [2, 3])
def test_trim_drops_several_sites_in_one_call(s):
  """One trim call drops two or three unread sites of a 5-7-site table,
  first, in the middle and last.  Each drop keeps the digit-0 entries of
  the table it tested, and the drops take contiguous slices, strided
  slices and several strided rows; the result matches the
  per-configuration oracle."""
  rng = random.Random(53 + s)
  drops = set()
  for n, unread in ((5, (0, 4)), (6, (0, 2, 5)), (7, (4, 5, 6)),
                    (7, (0, 3, 6)), (6, (1, 2))):
    read = [k for k in range(n) if k not in unread]
    sites = tuple((3 * k,) for k in range(n))
    vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(s ** len(read))]
    f = from_callable(sites, s, 0, lambda d: vals[sum(
        d[k] * s ** i for i, k in enumerate(read))])
    configs = list(product(range(s), repeat=n))
    keep = [j for j in range(n) if any(
        f.value_at(dict(zip(sites, c))) != f.value_at(
            dict(zip(sites, c[:j] + (x,) + c[j + 1:])))
        for c in configs for x in range(1, s) if c[j] == 0)]
    assert keep == read
    g = trim(f)
    assert g.support == tuple(sites[j] for j in keep)
    assert functions_equal(g, f)
    # the i-th drop tests position j - i of a table over n - i sites
    for i, j in enumerate(unread):
      slices = _fixed_slices(n - i, s, ((j - i, 0),))
      drops.add((slices[0].step > 1, len(slices) > 1))
  assert {(False, True), (True, False), (True, True)} <= drops


def test_exact_support_radius():
  inter = exclusion()
  loc = Euclidean(1)
  f = from_callable(((0,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] * d[1]))
  assert _pieces_radius(expansion(f), loc) == 3
  g = from_callable(((0,), (3,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] + d[1]))
  # additive: splits into singleton pieces
  assert _pieces_radius(expansion(g), loc) == 0


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


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "pair-flip"])
def test_differential_shares_each_edge_pair_exactly(name, monkeypatch):
  # One gradient per edge pair of an undirected rule gives the form built
  # one gradient per directed edge, functions and edge order alike.
  inter = by_name(name)
  assert inter.undirected
  rng = random.Random(11)
  cases = [(line(7), ((2,), (3,), (5,))),
           (box(Euclidean(2), (0, 0), (3, 3)), ((1, 1), (1, 2), (2, 1)))]
  got = []
  for win, support in cases:
    f = random_function(rng, support, inter.n_states, inter.base)
    got.append((win, f, differential(f, win, inter)))
  monkeypatch.setattr(Interaction, "undirected",
                      property(lambda self: False), raising=False)
  for win, f, form in got:
    want = differential(f, win, inter)
    assert form == want
    assert list(form.fns.items()) == list(want.fns.items())
    assert form.fns


def test_a_form_unequal_on_the_two_orientations_is_not_closed():
  # omega_(2,1) differs from omega_(1,2) on the cell where site 1 is
  # occupied: exclusion fires the same swap across both, so the two arcs
  # close a cycle with integral 1; the witness is the breadth-first scan's.
  inter = exclusion()

  def fn(support, values):
    return LocalFunction(support, 2, 0, [Fraction(v) for v in values])
  fns = {((1,), (2,)): fn(((1,), (2,)), [0, -1, 1, 0]),
         ((2,), (1,)): fn(((1,), (2,)), [0, -1, 2, 0]),
         ((2,), (3,)): fn(((2,), (3,)), [0, 1, -1, 0]),
         ((3,), (2,)): fn(((2,), (3,)), [0, 1, -1, 0])}
  rep = is_closed(Form(2, 0, fns), line(5), inter)
  assert not rep["closed"]
  steps = [(4, (3, 4)), (3, (2, 3)), (2, (1, 2)), (1, (2, 1)), (2, (3, 2)),
           (3, (4, 3))]
  assert rep["witness"] == {
      "cycle": [{"config": {"sites": [[x]], "states": [1]},
                 "edge": [[u], [v]]} for x, (u, v) in steps],
      "defect": "1", "integral": "1"}
  fns[(2,), (1,)] = fns[(1,), (2,)]
  assert is_closed(Form(2, 0, fns), line(5), inter)["closed"]


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
      assert functions_equal(dg.fn(e), form.fn(e)), e


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
  configs = list(product(range(inter.n_states), repeat=window.n_sites))
  index = {digits: i for i, digits in enumerate(configs)}
  pos = [(window.position(u), window.position(v)) for u, v in window.edges]
  moves = {}  # (configuration index, edge) -> target index, moved pairs only
  for i, digits in enumerate(configs):
    for e, (pu, pv) in zip(window.edges, pos):
      moved = apply_edge(digits, pu, pv, inter)
      if moved != digits:
        moves[i, e] = index[moved]

  def value(e, i):
    return form.fn(e).value_at(dict(zip(window.vertices, configs[i])))

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
      partner = next(f for f in window.edges if moves.get((cur, f)) == prev)
    # a return arc that does not undo its step is itself the witness
    loop = [(prev, edge, cur), (cur, partner, prev)]
    if value(edge, prev) + value(partner, cur):
      walk, defect = loop, value(edge, prev) + value(partner, cur)
      break
    walk.append((cur, partner, prev))
  enc = window.locale.encode_vertex
  return {
      "cycle": [{"config": config_to_json(window, inter, configs[src]),
                 "edge": [enc(edge[0]), enc(edge[1])]}
                for src, edge, _ in walk],
      "integral": fraction_to_str(sum(value(edge, src) for src, edge, _ in walk)),
      "defect": fraction_to_str(defect),
  }


def form_add(a, b):
  """Reference sum of two forms, edge by edge: each sum trimmed, the zero
  ones dropped."""
  fns = {}
  for e in {**a.fns, **b.fns}:
    fn = trim(_combine([(1, g.fns[e]) for g in (a, b) if e in g.fns],
                       a.n_states, a.base))
    if not fn.is_zero():
      fns[e] = fn
  return Form(a.n_states, a.base, fns)


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
    cells = [(a, b) for a, b, _, _ in inter.moved]
    a, b = rng.choice(cells)
    bad = perturbed(form, win, inter, edge, {edge[0]: a, edge[1]: b},
                    rng.choice(MIXED[:5]))
    _, _, want = reference_scan(bad, win, inter)
    assert want["integral"] == want["defect"] != "0"
    rep = is_closed(bad, win, inter)
    assert not rep["closed"]
    assert rep["witness"] == want
    with pytest.raises(NotClosedError) as err:
      integrate(bad, win, inter)
    assert err.value.witness == want


DATA = Path(__file__).parent / "data"


def manifest_form(name):
  """The window, interaction and explicit form of a committed line manifest."""
  man = json.loads((DATA / f"{name}.json").read_text())
  win, inter = line(man["window"]["hi"][0] + 1), by_name(man["interaction"])
  return win, inter, form_from_json(man["form"], win, inter)


def far_box_form():
  """A multispecies:2 omega-rho form on the 3 x 3 box, bumped on its last
  edge at a cell that sets every site: the conflict is met in a component
  late in seed order."""
  win, inter = box(Euclidean(2), (0, 0), (2, 2)), multispecies(2)
  basis = conserved_basis(inter)
  omega = build_omega_rho([[Fraction(1, 3), Fraction(2, 7)],
                           [Fraction(-2, 5), Fraction(1, 2)]],
                          TranslationAction(Euclidean(2), ((1, 0), (0, 1))),
                          ((0, 0),), win, inter, basis)
  cell = {v: 2 for v in win.vertices}
  cell[2, 2] = 1
  return win, inter, perturbed(omega, win, inter, ((2, 1), (2, 2)), cell,
                               Fraction(1, 7))


@pytest.mark.parametrize("case", ["closed_glauber_line6",
                                  "closed_multispecies2_line9_far",
                                  "closed_exclusion_unalternating_line6",
                                  "box3x3"])
def test_far_and_relaxed_witnesses_match_fraction_oracle(case):
  """The witnesses of the committed glauber, far-conflict and unalternating
  manifests, and of a far conflict on a 3 x 3 box, against the Fraction
  oracle."""
  win, inter, bad = far_box_form() if case == "box3x3" else manifest_form(case)
  _, _, want = reference_scan(bad, win, inter)
  assert want["integral"] == want["defect"] != "0"
  assert len(want["cycle"]) > 2
  assert is_closed(bad, win, inter)["witness"] == want


def replayed_integral(witness, form, win, inter):
  """The form summed along a witness cycle, once each step is checked to be
  its edge's move and the walk to close."""
  configs = [config_from_json(win, inter, step["config"])
             for step in witness["cycle"]]
  total = Fraction(0)
  for k, (cfg, step) in enumerate(zip(configs, witness["cycle"])):
    u, v = map(win.locale.decode_vertex, step["edge"])
    nxt = apply_edge(cfg, win.position(u), win.position(v), inter)
    assert nxt != cfg and nxt == configs[(k + 1) % len(configs)]
    total += form.fn((u, v)).value_at(dict(zip(win.vertices, cfg)))
  return total


def assert_certificate(witness, form, win, inter):
  assert witness["integral"] == witness["defect"] != "0"
  assert fraction_to_str(replayed_integral(witness, form, win, inter)) == (
      witness["integral"])


def test_witness_of_a_rotation_cycle_is_its_own_certificate():
  """spin3's rotation on (0, 1) is undone across (1, 0) with another value
  of the ordered flux, so that two-step cycle is the witness."""
  win, inter = line(7), spin3()
  form = ordered_flux_form(win, inter, low_value=-1, high_value=1)
  w = is_closed(form, win, inter)["witness"]
  assert_certificate(w, form, win, inter)
  assert w["defect"] == "1" and len(w["cycle"]) == 2


def test_witness_of_every_perturbed_glauber_form_is_its_own_certificate():
  """Glauber flips an edge's first site, so the reversed edge never undoes
  a tree step with the negated value; every one-cell perturbation of its
  (zero) omega-rho form on line(8) still gets a certificate."""
  win, inter = line(8), glauber()
  basis = conserved_basis(inter)
  form = build_omega_rho([], TranslationAction(Euclidean(1), ((1,),)),
                         ((0,),), win, inter, basis)
  witnessed = 0
  for e in win.edges:
    for a, b, _, _ in inter.moved:
      bad = perturbed(form, win, inter, e, {e[0]: a, e[1]: b}, Fraction(1, 4))
      rep = is_closed(bad, win, inter)
      if not rep["closed"]:
        witnessed += 1
        assert_certificate(rep["witness"], bad, win, inter)
  assert witnessed == len(win.edges) * len(inter.moved)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.integers(3, 6),
       st.randoms(use_true_random=False))
def test_every_witness_is_its_own_certificate(name, n, rng):
  """A one-cell perturbation of a closed form on line(3) to line(6): when
  it is not closed, its witness cycle replays to its nonzero defect."""
  win, inter = line(n), by_name(name)
  form = differential(mixed_function(rng, rng.sample(win.vertices, 2), inter),
                      win, inter)
  edge = rng.choice(win.edges)
  a, b = rng.choice([(a, b) for a, b, _, _ in inter.moved])
  bad = perturbed(form, win, inter, edge, {edge[0]: a, edge[1]: b},
                  rng.choice(MIXED[:5]))
  rep = is_closed(bad, win, inter)
  if not rep["closed"]:
    assert_certificate(rep["witness"], bad, win, inter)


# (0, 1) -> (1, 1) is never undone: not valid, so the scans refuse it
ONE_WAY = Interaction("one-way", (0, 1), 0,
                      (((0, 0), (1, 1)), ((1, 0), (1, 1))))

# window, translation action and tile domain for build_omega_rho
SCAN_WINDOWS = {
    "line1": lambda: (line(1), TranslationAction(Euclidean(1), ((1,),)),
                      ((0,),)),
    "line2": lambda: (line(2), TranslationAction(Euclidean(1), ((1,),)),
                      ((0,),)),
    "line7": lambda: (line(7), TranslationAction(Euclidean(1), ((1,),)),
                      ((0,),)),
    "box3x4": lambda: (box(Euclidean(2), (0, 0), (2, 3)),
                       TranslationAction(Euclidean(2), ((1, 0), (0, 1))),
                       ((0, 0),)),
    "triangular": lambda: (box(Triangular(), (0, 0), (2, 1)),
                           TranslationAction(Triangular(), ((1, 0), (0, 1))),
                           ((0, 0),)),
    "hexagonal": lambda: (box(Hexagonal(), (0, 0), (1, 1)),
                          TranslationAction(Hexagonal(), ((1, 0), (0, 1))),
                          ((0, 0, 0), (0, 0, 1))),
}

# The Fraction oracle walks every configuration at a few seconds per 2^12,
# so the 3 x 4 box runs exclusion and the one-way rule (no oracle) only.
EDGE_LOCAL_CASES = [(w, name) for w in SCAN_WINDOWS
                    for name in ("exclusion", "multispecies:2", "spin3",
                                 "glauber", "pair-flip", "one-way")
                    if w != "box3x4" or name in ("exclusion", "one-way")]


def edge_local_forms(rng, window, action, domain, inter):
  """Closed edge-local forms: the flux of a random cocycle matrix, the
  ordered flux of the two highest states, and the differential of a sum of
  random one-site weights."""
  basis = conserved_basis(inter)
  a = [[rng.choice(MIXED[:5]) for _ in range(action.rank)] for _ in basis]
  weights = _combine(((1, mixed_function(rng, (x,), inter))
                      for x in window.vertices), inter.n_states, inter.base)
  return [build_omega_rho(a, action, domain, window, inter, basis),
          ordered_flux_form(window, inter, *inter.states[-2:]),
          differential(weights, window, inter)]


def wide_forms(rng, window, inter):
  """Closed forms whose edge functions read beyond their edge: twice, the
  differential of a function of two random sites plus that of a function
  of three."""
  n = len(window.vertices)
  forms = []
  for _ in range(2):
    f, g = (mixed_function(rng, rng.sample(window.vertices, min(k, n)), inter)
            for k in (2, 3))
    forms.append(form_add(differential(f, window, inter),
                          differential(g, window, inter)))
  return forms


# The cases also take wide forms: the slab kernel decides them too.
@pytest.mark.parametrize("win_key,name", EDGE_LOCAL_CASES)
def test_edge_local_scan_matches_fraction_oracle(win_key, name, monkeypatch):
  solved, slab_solve = [], calculus_module._slab_solve

  def spy(*args):
    solved.append(slab_solve(*args))
    return solved[-1]

  monkeypatch.setattr("configcalc.calculus._slab_solve", spy)
  rng = random.Random(41)
  win, action, domain = SCAN_WINDOWS[win_key]()
  inter = ONE_WAY if name == "one-way" else by_name(name)
  wide = wide_forms(rng, win, inter)
  if len(win.vertices) > 2:
    assert all(any(not set(fn.support) <= set(e) for e, fn in form.fns.items())
               for form in wide)
  forms = edge_local_forms(rng, win, action, domain, inter) + wide
  for form in list(forms):
    if not win.edges:
      break
    edge = rng.choice(win.edges)
    cells = [(a, b) for a, b, _, _ in inter.moved]
    a, b = rng.choice(cells)
    forms.append(perturbed(form, win, inter, edge, {edge[0]: a, edge[1]: b},
                           rng.choice(MIXED[:5])))
  if name == "one-way":
    # a one-way move leaves no potential to pin: every form is refused,
    # naming that move, before anything is solved
    for form in forms:
      for scan in (is_closed, integrate):
        with pytest.raises(InputError,
                           match=r"no move undoes \(0, 1\) -> \(1, 1\)"):
          scan(form, win, inter)
    assert not solved
    return
  closed = 0
  for form in forms:
    del solved[:]
    values, pins, witness = reference_scan(form, win, inter)
    rep = is_closed(form, win, inter)
    if witness is None:
      closed += 1
      f, meta = integrate(form, win, inter)
      assert list(f.values) == values
      assert meta == {"n_components": len(pins), "pins": pins}
      assert rep == {"closed": True, "witness": None,
                     "n_components": len(pins)}
    else:
      assert witness["integral"] == witness["defect"] != "0"
      assert rep == {"closed": False, "witness": witness}
      with pytest.raises(NotClosedError) as err:
        integrate(form, win, inter)
      assert err.value.witness == witness
    # the slab kernel decides every case; the BFS only builds witnesses
    assert solved and all((s is None) == (witness is not None)
                          for s in solved)
  assert closed


# -- the slab kernel against a configuration-by-configuration oracle --------

KERNEL_WINDOWS = {
    "line6": lambda: line(6),
    "box2x3": lambda: box(Euclidean(2), (0, 0), (1, 2)),
    "box3x3": lambda: box(Euclidean(2), (0, 0), (2, 2)),
    "triangular2x3": lambda: box(Triangular(), (0, 0), (1, 2)),
    "free2_ball1": lambda: ball_window(FreeGroupCayley(2), (), 1),
}


def transition_moves(window, inter):
  """Every move of every window edge, configuration by configuration:
  (source index, edge number, target index), by ``apply_edge``."""
  configs = list(product(range(inter.n_states), repeat=window.n_sites))
  index = {digits: i for i, digits in enumerate(configs)}
  pos = [(window.position(u), window.position(v)) for u, v in window.edges]
  return [(i, k, index[moved]) for i, digits in enumerate(configs)
          for k, (pu, pv) in enumerate(pos)
          for moved in (apply_edge(digits, pu, pv, inter),)
          if moved != digits]


def union_find_oracle(window, inter, moves, form=None):
  """Components, and the potential of ``form``, by a weighted union-find
  over ``moves``: each move joins its two configurations, its step read
  off the edge function at its source.

  Returns (labels, reps, values): labels dense and ordered by least member,
  those least members, and the potential pinned as ``integrate`` pins it
  (None without a form); or None when a cycle has a nonzero integral."""
  s = inter.n_states
  configs = list(product(range(s), repeat=window.n_sites))
  fns = [] if form is None else [form.fn(e) for e in window.edges]
  denom = lcm(*(fn.denom for fn in fns))
  reads = [([window.position(v) for v in fn.support], fn.nums,
            denom // fn.denom) for fn in fns]
  parent, up = list(range(len(configs))), [0] * len(configs)

  def find(i):  # (root, potential of i minus that of its root)
    path = []
    while parent[i] != i:
      path.append(i)
      i = parent[i]
    total = 0
    for j in reversed(path):
      total += up[j]
      parent[j], up[j] = i, total
    return i, (up[path[0]] if path else 0)

  for i, k, j in moves:
    step = 0
    if form is not None:
      pos, nums, scale = reads[k]
      r = 0
      for p in pos:
        r = r * s + configs[i][p]
      step = nums[r] * scale
    (ri, di), (rj, dj) = find(i), find(j)
    if ri != rj:
      parent[rj], up[rj] = ri, di + step - dj
    elif dj - di != step:
      return None
  comp_of, labels, reps, pot = {}, [], [], []
  for i in range(len(configs)):
    root, d = find(i)
    if root not in comp_of:
      comp_of[root] = len(reps)
      reps.append(i)
    labels.append(comp_of[root])
    pot.append(d)
  if form is None:
    return labels, reps, None
  pin = dict(enumerate(reps))
  star = configs.index((inter.base,) * window.n_sites)
  pin[labels[star]] = star
  return labels, reps, [Fraction(p - pot[pin[c]], denom)
                        for p, c in zip(pot, labels)]


def unalternated(form, win, inter, edge, cell, delta):
  """``form`` with ``delta`` added to ``edge``'s function at one cell that
  the edge moves, a sparse {vertex: state_index} assignment, and nothing
  else changed: the move's step no longer negates its undo's."""
  fn = form.fn(edge)
  support = tuple(sorted({*fn.support, *edge, *cell}))
  values = list(embed(fn, support).values)
  digits = tuple(cell.get(v, inter.base) for v in support)
  assert apply_edge(digits, support.index(edge[0]), support.index(edge[1]),
                    inter) != digits
  values[index_of(digits, digit_powers(len(support), inter.n_states))] += delta
  return Form(form.n_states, form.base, {
      **form.fns, edge: LocalFunction(support, inter.n_states, inter.base,
                                      values)})


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3",
                                  "glauber", "generalized-exclusion:2",
                                  "pair-flip", "lattice-gas:2"])
@pytest.mark.parametrize("win_key", sorted(KERNEL_WINDOWS))
def test_slab_kernel_matches_a_union_find_oracle(win_key, name, monkeypatch):
  """The components, the potentials of the differentials of random 1- to
  3-site functions (whose edge functions read beyond their edge), the
  refusal of perturbed copies (alternation kept) and of copies bumped at
  one cell of one orientation alone (an undo's step no longer negates),
  each against the union-find oracle; every refusal's witness replays."""
  solved, slab_solve = [], calculus_module._slab_solve

  def spy(*args):
    solved.append(slab_solve(*args))
    return solved[-1]

  monkeypatch.setattr("configcalc.calculus._slab_solve", spy)
  rng = random.Random(f"{win_key} {name}")
  win, inter = KERNEL_WINDOWS[win_key](), by_name(name)
  moves = transition_moves(win, inter)
  labels, reps, _ = union_find_oracle(win, inter, moves)
  assert components(win, inter) == (labels, reps)
  star = index_of((inter.base,) * win.n_sites,
                  digit_powers(win.n_sites, inter.n_states))
  forms = [differential(mixed_function(rng, rng.sample(win.vertices, k),
                                       inter), win, inter) for k in (1, 2, 3)]
  assert any(not set(fn.support) <= set(e)
             for form in forms for e, fn in form.fns.items())
  for bump in (perturbed, unalternated):
    for form in forms[:3]:
      edge = rng.choice(win.edges)
      a, b = rng.choice([(a, b) for a, b, _, _ in inter.moved])
      forms.append(bump(form, win, inter, edge, {edge[0]: a, edge[1]: b},
                        rng.choice(MIXED[:5])))
  verdicts = []
  for form in forms:
    del solved[:]
    oracle = union_find_oracle(win, inter, moves, form)
    verdicts.append(oracle is not None)
    rep = is_closed(form, win, inter)
    if oracle is None:
      assert not rep["closed"]
      assert_certificate(rep["witness"], form, win, inter)
      with pytest.raises(NotClosedError):
        integrate(form, win, inter)
    else:
      labels, reps, values = oracle
      f, meta = integrate(form, win, inter)
      assert list(f.values) == values
      assert meta == {"n_components": len(reps),
                      "pins": [star] + [r for c, r in enumerate(reps)
                                        if c != labels[star]]}
      assert rep == {"closed": True, "witness": None,
                     "n_components": len(reps)}
    assert solved and all((s is None) == (oracle is None) for s in solved)
  assert verdicts == [True] * 3 + [False] * 6


# The kernel windows, and one- and two-site windows: too few levels to cut
# most reads.
READ_WINDOWS = {**KERNEL_WINDOWS, "line1": lambda: line(1),
                "line2": lambda: line(2)}


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3",
                                  "glauber", "generalized-exclusion:2",
                                  "pair-flip"])
@pytest.mark.parametrize("win_key", sorted(READ_WINDOWS))
def test_partial_reads_match_a_union_find_oracle(win_key, name, monkeypatch):
  """Each read of ``_potential_scan`` (no site, the first, the last, a
  seeded subset, every site), and the labels over the same positions,
  against the union-find oracle with every other site at base, at every cut
  k = 0..n of ``_expand`` (``_cut`` patched), whatever ``_cut`` decides:
  the uncut walk, one-entry blocks and one-prefix reads among them."""
  solved, slab_solve = [], calculus_module._slab_solve

  def spy(*args):
    solved.append(slab_solve(*args))
    return solved[-1]

  monkeypatch.setattr("configcalc.calculus._slab_solve", spy)
  rng = random.Random(f"reads {win_key} {name}")
  win, inter = READ_WINDOWS[win_key](), by_name(name)
  n, s = win.n_sites, inter.n_states
  form = differential(mixed_function(
      rng, rng.sample(win.vertices, min(n, 2)), inter), win, inter)
  labels, reps, values = union_find_oracle(
      win, inter, transition_moves(win, inter), form)
  assert components(win, inter) == (labels, reps)
  read, _, _ = calculus_module._potential_scan(form, win, inter, 10 ** 6)
  [(maps, _)] = solved
  powers = digit_powers(n, s)
  for sites in ((), win.vertices[:1], win.vertices[-1:],
                rng.sample(win.vertices, rng.randint(1, n)), win.vertices):
    positions = sorted(map(win.position, sites))
    at = []
    for digits in product(range(s), repeat=len(positions)):
      full = [inter.base] * n
      for p, d in zip(positions, digits):
        full[p] = d
      at.append(index_of(full, powers))
    for k in range(n + 1):
      monkeypatch.setattr("configcalc.configspace._cut", lambda *args: k)
      f = read(sites)
      assert f.support == tuple(win.vertices[p] for p in positions)
      assert list(f.values) == [values[i] for i in at], (sites, k)
      assert (configspace_module._expand(maps, s, False, set(positions),
                                         inter.base)
              == [labels[i] for i in at]), (sites, k)


def test_full_read_of_line11_is_cut(monkeypatch):
  """The omega_rho potential of multispecies:2 on line(11), read at every
  site, is cut (k > 0), and the cut potentials and labels equal the walk of
  every level (k = 0)."""
  win, inter = line(11), multispecies(2)
  basis = conserved_basis(inter)
  form = build_omega_rho([[Fraction(1, 3)], [Fraction(-2, 7)]],
                         TranslationAction(Euclidean(1), ((1,),)), ((0,),),
                         win, inter, basis)
  solved, slab_solve = [], calculus_module._slab_solve
  cuts, cut = [], configspace_module._cut

  def spy(*args):
    solved.append(slab_solve(*args))
    return solved[-1]

  def cut_spy(*args):
    cuts.append(cut(*args))
    return cuts[-1]

  monkeypatch.setattr("configcalc.calculus._slab_solve", spy)
  monkeypatch.setattr("configcalc.configspace._cut", cut_spy)
  integrate(form, win, inter)
  assert 0 < cuts[-1] < 11
  [(maps, _)] = solved
  whole = [configspace_module._expand(maps, 3, potential, range(11),
                                      inter.base)
           for potential in (True, False)]
  monkeypatch.setattr("configcalc.configspace._cut", lambda *args: 0)
  assert [configspace_module._expand(maps, 3, potential, range(11),
                                     inter.base)
          for potential in (True, False)] == whole


def oracle_gradient(f, edge, inter):
  """nabla_e f configuration by configuration, by ``apply_edge``."""
  support = tuple(sorted(set(f.support) | set(edge)))
  pu, pv = support.index(edge[0]), support.index(edge[1])

  def nabla(digits):
    moved = apply_edge(digits, pu, pv, inter)
    return (f.value_at(dict(zip(support, moved)))
            - f.value_at(dict(zip(support, digits))))

  return from_callable(support, inter.n_states, inter.base, nabla)


@pytest.mark.parametrize("name", ["multispecies:2", "generalized-exclusion:2",
                                  "spin3", "glauber"])
def test_gradient_matches_definition(name):
  """The move-slice gradient against the per-configuration oracle: on a
  line, a 3x4 box, a triangular and a hexagonal window, with gradient
  supports of up to 8 sites, edges in both orientations and move slices
  both contiguous and strided."""
  rng = random.Random(31)
  inter = by_name(name)
  s = inter.n_states
  f = mixed_function(rng, ((1,), (2,), (4,)), inter)
  cases = [(f, edge) for edge in (((0,), (1,)), ((1,), (2,)), ((2,), (1,)),
                                  ((4,), (3,)), ((5,), (6,)))]
  for win in (box(Euclidean(2), (0, 0), (2, 3)),
              box(Triangular(), (0, 0), (2, 2)),
              box(Hexagonal(), (0, 0), (2, 1))):
    start = rng.randrange(3)
    g = mixed_function(rng, win.vertices[start:start + (6 if s == 2 else 5)],
                       inter)
    meets = {k: [e for e in win.edges if e[0] < e[1]
                 and len(set(e) & set(g.support)) == k] for k in (0, 1, 2)}
    for k, count in ((2, 2), (1, 2), (0, 1)):
      for e in rng.sample(meets[k], min(count, len(meets[k]))):
        cases += [(g, e), (g, e[::-1])]
  orientations, strided, sizes = set(), set(), set()
  for g, edge in cases:
    support = tuple(sorted(set(g.support) | set(edge)))
    pu, pv = support.index(edge[0]), support.index(edge[1])
    orientations.add(pu < pv)
    fired, _ = _move_slices(len(support), pu, pv, s, inter.moved)
    strided.update(src.step > 1 for src, _ in fired)
    sizes.add(len(support))
    assert functions_equal(gradient(g, edge, inter),
                           oracle_gradient(g, edge, inter)), edge
  assert orientations == strided == {True, False}
  assert {5, 6, 7} <= sizes and max(sizes) <= 8


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_move_slices_cover_each_firing_configuration_once(name):
  """Each move's source slices hold every configuration where it fires,
  once, and its target slices the moved configurations; the still slices
  hold every configuration where the pair stays put, once."""
  inter = by_name(name)
  s = inter.n_states
  for n in range(2, 6):
    configs = list(product(range(s), repeat=n))
    indices = range(len(configs))
    for pu, pv in permutations(range(n), 2):
      fired, still = _move_slices(n, pu, pv, s, inter.moved)
      moves = sorted((i, j) for src, dst in fired
                     for i, j in zip(indices[src], indices[dst]))
      targets = {i: configs.index(apply_edge(c, pu, pv, inter))
                 for i, c in enumerate(configs)}
      assert moves == [(i, j) for i, j in targets.items() if i != j]
      assert sorted(i for sl in still for i in indices[sl]) == [
          i for i, j in targets.items() if i == j]


def test_differential_of_inversion_count_is_the_ordered_flux_on_line11():
  win, inter = line(11), multispecies(2)
  d_f = differential(inversion_count_function(win, inter), win, inter)
  omega = ordered_flux_form(win, inter)
  assert sorted(d_f.fns) == sorted(omega.fns)
  for e, fn in omega.fns.items():
    assert d_f.fns[e] == fn, e


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



def test_matching_targets_witness_names_both_arcs():
  # both orientations of the edge swap the pair (1, 0) to (0, 1), so they
  # make one move and must carry one value
  win = line(3)
  inter = exclusion()
  fns = {e: from_callable(((0,), (1,)), inter.n_states, inter.base,
                          lambda d, v=v: Fraction(v) if d == (1, 0) else Fraction(0))
         for e, v in ((((0,), (1,)), 1), (((1,), (0,)), 2))}
  rep = form_axioms_report(Form(inter.n_states, inter.base, fns, 1), win, inter)
  assert not rep["ok"]
  assert rep["matching_targets"] == {"edges": [[[0], [1]], [[1], [0]]],
                                     "values": ["1", "2"]}

def test_form_vanishes_on_fixed_pairs_axiom():
  win = line(3)
  inter = exclusion()
  # nonzero on a frozen assignment: (0,0) is not moved by the edge
  f01 = from_callable(((0,), (1,)), inter.n_states, inter.base,
                      lambda d: Fraction(1) if d == (0, 0) else Fraction(0))
  form = Form(inter.n_states, inter.base, {((0,), (1,)): f01}, 1)
  rep = form_axioms_report(form, win, inter)
  assert rep["vanishing"] is not None


def reference_axioms(form, window, inter):
  """The three axiom witnesses configuration by configuration, by
  ``apply_edge``: the first edge (pair) in order, then the least
  configuration index of its support."""
  s, enc = inter.n_states, window.locale.encode_vertex

  def cells(edges, fns):
    support = tuple(sorted(set(chain(*edges, *(f.support for f in fns)))))
    places = [(support.index(u), support.index(v)) for u, v in edges]
    for digits in product(range(s), repeat=len(support)):
      moved = [apply_edge(digits, pu, pv, inter) for pu, pv in places]
      yield dict(zip(support, digits)), moved, digits, support

  vanish = alternation = matching = None
  for e, f in sorted(form.fns.items()):
    rev = form.fn(e[::-1])
    # the reversed edge is read on e's support, its other sites at base
    for at, (moved,), digits, support in cells([e], [f]):
      val = f.value_at(at)
      if moved == digits:
        if val and vanish is None:
          vanish = {"edge": [enc(e[0]), enc(e[1])],
                    "value": fraction_to_str(val)}
      elif alternation is None:
        # the move is undone across the reversed edge, else across e itself
        u, v = (digits[support.index(w)] for w in e)
        x, y = (moved[support.index(w)] for w in e)
        undo = rev if inter.apply(y, x) == (v, u) else f
        back = undo.value_at(dict(zip(support, moved)))
        if back != -val:
          alternation = {"edge": [enc(e[0]), enc(e[1])],
                         "value": fraction_to_str(val),
                         "reversed_value": fraction_to_str(back)}
  edges = sorted(form.fns)
  for e1, e2 in combinations(edges, 2):
    if matching is None and set(e1) & set(e2):
      f1, f2 = form.fns[e1], form.fns[e2]
      for at, (m1, m2), digits, _ in cells([e1, e2], [f1, f2]):
        if m1 != digits and m1 == m2 and f1.value_at(at) != f2.value_at(at):
          matching = {"edges": [[enc(e1[0]), enc(e1[1])],
                                [enc(e2[0]), enc(e2[1])]],
                      "values": [fraction_to_str(f1.value_at(at)),
                                 fraction_to_str(f2.value_at(at))]}
          break
  return {"ok": vanish is None and alternation is None and matching is None,
          "vanishing": vanish, "alternation": alternation,
          "matching_targets": matching}


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "spin3",
                                  "pair-flip", "glauber"])
def test_axiom_witnesses_match_the_configuration_by_configuration_check(name):
  """The slice-read axiom checks give the same first witnesses as a check
  of every configuration: random forms on a line and a 2x2 box, and
  differentials with one bumped cell."""
  rng = random.Random(7)
  inter = by_name(name)
  s = inter.n_states
  seen = set()
  for win in (line(4), box(Euclidean(2), (0, 0), (1, 1))):
    for _ in range(6):
      fns = {}
      for e in rng.sample(win.edges, 5):
        extra = rng.sample([v for v in win.vertices if v not in e],
                           rng.randint(0, 1))
        fns[e] = mixed_function(rng, tuple(e) + tuple(extra), inter)
      f = mixed_function(rng, rng.sample(win.vertices, 2), inter)
      d = differential(f, win, inter).fns
      bumped = dict(d)
      if d:
        e = rng.choice(sorted(d))
        nums = list(d[e].values)
        nums[rng.randrange(len(nums))] += 1
        bumped[e] = LocalFunction(d[e].support, s, inter.base, nums)
      for fns in (fns, d, bumped):
        form = Form(s, inter.base, fns)
        rep = form_axioms_report(form, win, inter)
        assert rep == reference_axioms(form, win, inter)
        seen.update(k for k, w in rep.items() if w and k != "ok")
  # glauber moves every pair, so nothing can break the vanishing axiom
  still = {"vanishing"} if len(inter.moved) < s * s else set()
  assert seen == {"alternation", "matching_targets"} | still


def test_glauber_differentials_satisfy_the_axioms():
  """Glauber flips an edge's first site, so the reversed edge never undoes
  a move: alternation pairs each move with the edge itself, and every
  differential passes."""
  rng = random.Random(42)
  win, inter = line(8), glauber()
  for _ in range(30):
    support = rng.sample(win.vertices, rng.randint(1, 3))
    form = differential(mixed_function(rng, support, inter), win, inter)
    assert form_axioms_report(form, win, inter)["ok"]


def alternation_holds(form, inter):
  """omega_e(eta) + omega_undo(eta^e) = 0 for every stored edge e and every
  configuration eta of the union of e's and the reversed edge's supports on
  which e fires; omega_undo is the reversed edge's function where it undoes
  the move, else e's own."""
  for e, f in form.fns.items():
    rev = form.fn(e[::-1])
    support = tuple(sorted(set(chain(e, f.support, rev.support))))
    pu, pv = (support.index(w) for w in e)
    for digits in product(range(inter.n_states), repeat=len(support)):
      moved = apply_edge(digits, pu, pv, inter)
      if moved == digits:
        continue
      (a, b), (c, d) = (digits[pu], digits[pv]), (moved[pu], moved[pv])
      undo = rev if inter.apply(d, c) == (b, a) else f
      if (f.value_at(dict(zip(support, digits)))
          + undo.value_at(dict(zip(support, moved)))):
        return False
  return True


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exclusion", "spin3", "glauber"]), st.integers(4, 5),
       st.randoms(use_true_random=False))
def test_alternation_check_misses_no_fired_configuration(name, n, rng):
  """The alternation witness is None exactly when alternation holds on the
  union of both orientations' supports, though each orientation reads its
  own extra site and ``form_axioms_report`` reads the reversed edge only on
  the forward function's sites.

  It misses nothing: the alternation sum is a function F of one side's
  sites plus a function G of the other side's, sharing the sites c both
  read.  Each orientation's check covers the configurations where the other
  side's extra sites sit at base, so F(x, c) = -G(base, c) and G(y, c) =
  -F(base, c), and F(x, c) + G(y, c) = -(F + G)(base, base, c) = 0.
  Glauber covers moves undone across their own edge."""
  win, inter = line(n), by_name(name)
  s, base = inter.n_states, inter.base
  fns = {}
  for u, v in rng.sample([e for e in win.edges if e[0] < e[1]], rng.randint(1, 2)):
    others = [x for x in win.vertices if x not in (u, v)]
    rng.shuffle(others)
    common = others[2:2 + rng.randint(0, 1)]
    h = mixed_function(rng, [u, v] + common, inter)
    # gradients of h where the edge fires, anything at all where it does
    # not; each orientation reads its own extra site
    for edge, extra in (((u, v), others[0]), ((v, u), others[1])):
      support = tuple(sorted([*edge, extra, *common]))
      pu, pv = (support.index(w) for w in edge)
      vals = []
      for digits in product(range(s), repeat=len(support)):
        moved = apply_edge(digits, pu, pv, inter)
        vals.append(rng.choice(MIXED) if moved == digits else
                    h.value_at(dict(zip(support, moved)))
                    - h.value_at(dict(zip(support, digits))))
      fns[edge] = LocalFunction(support, s, base, vals)
  valid = Form(s, base, fns)
  assert alternation_holds(valid, inter)
  assert form_axioms_report(valid, win, inter)["alternation"] is None
  # plant one bumped entry, or drop one orientation
  e = rng.choice(sorted(fns))
  nums = list(fns[e].values)
  nums[rng.randrange(len(nums))] += rng.choice((1, Fraction(-1, 2)))
  bumped = {**fns, e: LocalFunction(fns[e].support, s, base, nums)}
  dropped = {k: f for k, f in fns.items() if k != e}
  for planted in (bumped, dropped):
    form = Form(s, base, planted)
    assert ((form_axioms_report(form, win, inter)["alternation"] is None)
            == alternation_holds(form, inter))


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
  # the differential is linear
  assert twice.fns == differential(scale(f, 2), win, inter).fns
  assert not form_add(a, differential(scale(f, -1), win, inter)).fns


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


@pytest.mark.parametrize("case", ["last", "first", "denom1", "all"])
def test_long_tables_reach_lowest_terms(case, monkeypatch):
  """A table of four gcd chunks, reduced as ``Fraction`` reduces it: a
  factor of the denominator that every entry but the last shares, one that
  the first chunk already loses, a denominator of 1, and one that every
  entry shares.  The gcd stops at the first chunk that brings it to 1."""
  chunk = calculus_module._GCD_CHUNK
  support = tuple((i,) for i in range(14))
  assert 2 ** len(support) == 4 * chunk
  rng = random.Random(case)
  nums = [6 * rng.randint(-50, 50) for _ in range(4 * chunk)]
  denom = 1 if case == "denom1" else 12
  if case == "last":
    nums[-1] = 5
  if case == "first":
    nums[1] = 7
  calls, real_gcd = [], calculus_module.gcd

  def gcd(*args):
    calls.append(args)
    return real_gcd(*args)

  monkeypatch.setattr(calculus_module, "gcd", gcd)
  f = LocalFunction._exact(support, 2, 0, nums, denom)
  values = [Fraction(k, denom) for k in nums]
  want = lcm(*(v.denominator for v in values))
  assert (f.nums, f.denom) == (tuple(v * want for v in values), want)
  assert len(calls) == {"last": 4, "first": 1, "denom1": 0, "all": 4}[case]


def test_table_is_numerators_over_one_reduced_denominator():
  vals = (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5))
  f = LocalFunction(((0,), (1,)), 2, 0, vals)
  assert (f.nums, f.denom) == ((3, -4, 0, 30), 6)
  assert f.values == vals
  assert all(type(v) is Fraction for v in f.values)
  # equal values give equal functions with equal hashes, whichever path
  # built them: kernel results are reduced to lowest terms
  half = LocalFunction(((0,),), 2, 0, (Fraction(1, 2), Fraction(1, 2)))
  one = add(half, half)
  assert (one.nums, one.denom) == ((1, 1), 1)
  built = (one, LocalFunction(((0,),), 2, 0, (1, 1)),
           scale(LocalFunction(((0,),), 2, 0, (Fraction(1, 3),) * 2), 3),
           restrict(LocalFunction(((0,), (1,)), 2, 0,
                                  (1, Fraction(1, 2), 1, Fraction(1, 2))),
                    {(0,)}))
  for g in built:
    assert g == built[0] and hash(g) == hash(built[0])
  assert trim(one) == constant(1, 2, 0)
  zero = sub(f, f)
  assert zero.is_zero() and zero.denom == 1
  assert zero == LocalFunction(f.support, 2, 0, (0,) * 4)
  assert f != scale(f, 2) and not f.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_value_at_and_is_zero_agree_with_values(seed):
  rng = random.Random(seed)
  sites = [(k,) for k in range(4)]
  f = random_function(rng, rng.sample(sites, rng.randint(0, 3)), 3, seed % 3)
  g = random_function(rng, rng.sample(sites, rng.randint(0, 3)), 3, seed % 3)
  for h in (f, add(f, g), sub(f, f), scale(g, Fraction(-3, 2)),
            restrict(add(f, g), sites[:2]), trim(sub(add(f, g), g))):
    assert len(h.values) == len(h.nums)
    for digits, value in h.assignments():
      assert h.value_at(dict(zip(h.support, digits))) == value
    assert h.is_zero() == all(v == 0 for v in h.values)
  assert trim(sub(add(f, g), g)) == trim(f)


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
    got = [Fraction(k, f.denom) for k in _gather(f, target)]
    assert got == expected, (f.support, target, base)


def combine_reference(terms, n_states, base):
  """sum c * f, one configuration of the union of the supports at a time."""
  support = tuple(sorted({v for _, f in terms for v in f.support}))
  values = []
  for digits in product(range(n_states), repeat=len(support)):
    at = dict(zip(support, digits))
    values.append(sum((Fraction(c) * f.value_at(at) for c, f in terms),
                      Fraction(0)))
  return support, tuple(values)


@pytest.mark.parametrize("seed", range(12))
def test_combine_matches_value_at(seed):
  rng = random.Random(seed)
  sites = [(k,) for k in range(6)]
  coefficients = (0, 1, -1, 3, Fraction(2, 3), Fraction(-5, 4))
  base = seed % 3
  for shape in ("overlap", "disjoint", "empty", "equal"):
    n_terms = rng.randint(1, 4)
    if shape == "overlap":
      supports = [rng.sample(sites, rng.randint(1, 3)) for _ in range(n_terms)]
    elif shape == "disjoint":
      pool = rng.sample(sites, 6)
      supports = [pool[k::n_terms][:2] for k in range(n_terms)]
    elif shape == "empty":
      supports = [[]] + [rng.sample(sites, rng.randint(0, 2))
                         for _ in range(n_terms - 1)]
    else:
      supports = [rng.sample(sites, 2)] * n_terms
    # denominators 1..6 inside a table, and 35 in every other table
    terms = [(rng.choice(coefficients),
              random_function(rng, supp, 3, base, denom=6 if k % 2 else 35))
             for k, supp in enumerate(supports)]
    got = _combine(terms, 3, base)
    assert (got.support, got.values) == combine_reference(terms, 3, base), shape
    assert all(type(v) is Fraction for v in got.values)
  zero = _combine([], 3, base)
  assert (zero.support, zero.values) == ((), (Fraction(0),))


def test_add_and_sub_refuse_mixed_alphabets():
  rng = random.Random(5)
  f = random_function(rng, ((0,), (1,)), 2, 0)
  for other in (random_function(rng, ((1,),), 3, 0),
                random_function(rng, ((1,),), 2, 1)):
    for op in (add, sub):
      with pytest.raises(InputError):
        op(f, other)
      with pytest.raises(InputError):
        op(other, f)

