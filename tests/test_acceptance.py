"""Top-level acceptance: one test per advertised guarantee, each with an
explicit wall-clock budget.  Everything here is exact rational arithmetic;
no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from configcalc.calculus import (LocalFunction, add, constant, differential,
                                 embed, expansion, from_callable,
                                 functions_equal, integrate, is_closed,
                                 perturbed, reassemble, restrict, sub, trim)
from configcalc.cohomology import (check_pairing_laws, compute_pairing,
                                   inversion_count_function)
from configcalc.configspace import fibers_report
from configcalc.decomposition import (TranslationAction, build_omega_rho,
                                      counterexample_report, extract_cocycle,
                                      synthesized_form, varadhan_decompose)
from configcalc.interactions import by_name, conserved_basis
from configcalc.locales import (Cross, Euclidean, FreeGroupCayley, HalfPlane,
                                ball_window, box, transferability)

BUDGET = 2_000_000


def line(n):
  return box(Euclidean(1), (0,), (n - 1,))


def rand_fraction(rng):
  return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# -- 1 ----------------------------------------------------------------------

def test_conserved_dimension_catalog():
  t0 = time.monotonic()
  expected = {
      "exclusion": 1,
      "multispecies:2": 2,
      "multispecies:3": 3,
      "generalized-exclusion:2": 1,
      "generalized-exclusion:3": 1,
      "lattice-gas:2": 2,
      "spin3": 1,
      "glauber": 0,
      "pair-flip": 0,
  }
  for name, dim in expected.items():
    basis = conserved_basis(by_name(name))
    assert len(basis) == dim, name
  assert time.monotonic() - t0 < 1.0


# -- 2 ----------------------------------------------------------------------

def _recursion_pieces(f):
  """Defining recursion, written independently of the library's closed form:
  the piece on L is what remains of f restricted to L after subtracting the
  pieces of every strictly smaller subset."""
  pieces = {}
  subsets = []
  for k in range(len(f.support) + 1):
    subsets.extend(combinations(f.support, k))
  for supp in subsets:
    val = restrict(f, set(supp))
    acc = constant(0, f.n_states, f.base)
    for smaller, piece in pieces.items():
      if set(smaller) < set(supp):
        acc = add(acc, embed(piece, supp) if smaller
                  else constant(piece.value_at({}), f.n_states, f.base))
    pieces[supp] = trim(sub(val, acc))
  return {s: p for s, p in pieces.items() if not p.is_zero()}


def test_expansion_recursion_agreement_bulk():
  t0 = time.monotonic()
  rng = random.Random(20240811)
  models = ["exclusion", "multispecies:2", "spin3", "lattice-gas:2",
            "generalized-exclusion:2"]
  done = 0
  while done < 100:
    inter = by_name(models[done % len(models)])
    max_sites = 5 if inter.n_states == 3 else 7
    k = rng.randint(1, max_sites)
    support = tuple((x,) for x in sorted(rng.sample(range(9), k)))
    assert inter.n_states ** k <= 3 ** 5
    vals = tuple(rand_fraction(rng) for _ in range(inter.n_states ** k))
    f = LocalFunction(support, inter.n_states, inter.base, vals)
    got = expansion(f)
    want = _recursion_pieces(f)
    assert set(got) == set(want)
    for s in got:
      a, b = got[s], want[s]
      assert functions_equal(a, b if b.support == a.support
                             else embed(b, a.support)), s
    back = reassemble(got, f.support, f.n_states, f.base)
    assert functions_equal(back, f)
    done += 1
  assert time.monotonic() - t0 < 30.0


# -- 3 ----------------------------------------------------------------------

def test_closed_iff_exact_bulk():
  t0 = time.monotonic()
  rng = random.Random(7777)
  models = ["exclusion", "multispecies:2"]
  for i in range(50):
    inter = by_name(models[i % 2])
    n = rng.randint(3, 5 if inter.n_states == 3 else 6)
    win = line(n)
    k = rng.randint(1, min(3, n))
    start = rng.randint(0, n - k)
    support = tuple((x,) for x in range(start, start + k))
    vals = tuple(rand_fraction(rng) for _ in range(inter.n_states ** k))
    f = LocalFunction(support, inter.n_states, inter.base, vals)
    form = differential(f, win, inter)
    rep = is_closed(form, win, inter)
    assert rep["closed"], i
    g, _ = integrate(form, win, inter)
    dg = differential(g, win, inter)
    for e in set(dg.fns) | set(form.fns):
      assert functions_equal(dg.fn(e), form.fn(e)), (i, e)

  broken = 0
  while broken < 50:
    inter = by_name(models[broken % 2])
    n = rng.randint(3, 5)
    win = line(n)
    k = rng.randint(1, 2)
    start = rng.randint(0, n - k)
    support = tuple((x,) for x in range(start, start + k))
    vals = tuple(rand_fraction(rng) for _ in range(inter.n_states ** k))
    f = LocalFunction(support, inter.n_states, inter.base, vals)
    form = differential(f, win, inter)
    x = rng.randint(0, n - 2)
    edge = ((x,), (x + 1,))
    states = ((1, 0) if inter.n_states == 2
              else rng.choice([(1, 0), (2, 0), (1, 2)]))
    delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    bad = perturbed(form, win, inter, edge,
                    {edge[0]: states[0], edge[1]: states[1]}, delta)
    rep = is_closed(bad, win, inter)
    assert not rep["closed"], broken
    w = rep["witness"]
    assert w["integral"] == w["defect"]
    assert w["integral"] != "0"
    broken += 1
  assert time.monotonic() - t0 < 60.0


# -- 4 ----------------------------------------------------------------------

def test_quantity_sums_have_zero_differential():
  catalog = ["exclusion", "multispecies:2", "multispecies:3",
             "generalized-exclusion:2", "lattice-gas:2", "spin3",
             "glauber", "pair-flip"]
  win = line(4)
  win2 = box(Euclidean(2), (0, 0), (1, 2))
  for name in catalog:
    inter = by_name(name)
    for vec in conserved_basis(inter):
      for w in (win, win2):
        f = from_callable(w.vertices, inter.n_states, inter.base,
                          lambda d: sum(vec[x] for x in d))
        form = differential(f, w, inter)
        for e in w.edges:
          assert form.fn(e).is_zero(), (name, e)


# -- 5 ----------------------------------------------------------------------

def test_fiber_connectivity_catalog():
  t0 = time.monotonic()
  windows = [line(3), line(4), line(5),
             box(Euclidean(2), (0, 0), (1, 1)),
             box(Euclidean(2), (0, 0), (2, 1))]
  connected_models = ["exclusion", "multispecies:2",
                      "generalized-exclusion:2", "lattice-gas:2", "spin3"]
  for name in connected_models:
    inter = by_name(name)
    basis = conserved_basis(inter)
    for win in windows:
      rep = fibers_report(win, inter, basis, BUDGET)
      assert rep["fibers_connected"], (name, win.n_sites)
      assert rep["components_separated"], (name, win.n_sites)

  inter = by_name("pair-flip")
  basis = conserved_basis(inter)
  saw_witness = False
  for win in windows:
    rep = fibers_report(win, inter, basis, BUDGET)
    if not rep["fibers_connected"]:
      saw_witness = True
      assert rep["witness"] is not None
  assert saw_witness
  assert time.monotonic() - t0 < 300.0


# -- 6 ----------------------------------------------------------------------

def test_pairing_law_catalog():
  t0 = time.monotonic()

  # (a) one-dimensional window, quadratic counter: table well-defined over
  # overlapping probes and equal to 2ab everywhere
  win = line(13)
  inter = by_name("exclusion")
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  table = compute_pairing(f, win, inter, basis, radius=3)
  assert len(table.probes) > 1
  for (a, b), v in table.cells.items():
    assert v == 2 * a[0] * b[0]
  laws = check_pairing_laws(table)
  assert laws["cocycle"]["ok"] and laws["cocycle"]["checked"] > 0
  assert laws["symmetry"]["ok"]

  # (b) two-dimensional window with mirrored probes: symmetric table
  loc2 = Euclidean(2)
  win2 = box(loc2, (0, 0), (8, 8))
  c = (4, 4)
  left = tuple(sorted(ball_window(loc2, (2, 4), 1).vertices))
  right = tuple(sorted(ball_window(loc2, (6, 4), 1).vertices))
  up = tuple(sorted(ball_window(loc2, (4, 6), 1).vertices))
  down = ((4, 2),)
  probes = [(left, right), (right, left), (down, up), (up, down),
            (left, ((6, 4),)), (((6, 4),), left)]
  support = tuple(sorted(set(v for p in probes for s in p for v in s)))
  f2 = from_callable(support, inter.n_states, inter.base,
                     lambda d: Fraction(sum(d)) ** 2)
  table2 = compute_pairing(f2, win2, inter, basis, radius=1, probes=probes)
  laws2 = check_pairing_laws(table2)
  assert laws2["symmetry"]["ok"] and laws2["symmetry"]["checked"] > 0
  assert laws2["cocycle"]["ok"]

  # (c) ordered two-species window: the table is exactly alpha_1 * beta_2,
  # asymmetric under swapping the probe order
  win3 = line(9)
  inter3 = by_name("multispecies:2")
  basis3 = conserved_basis(inter3)
  inv = inversion_count_function(win3, inter3)
  table3 = compute_pairing(inv, win3, inter3, basis3, radius=3)
  for (a, b), v in table3.cells.items():
    assert v == a[0] * b[1], (a, b)
  laws3 = check_pairing_laws(table3)
  assert laws3["cocycle"]["ok"]
  assert not laws3["symmetry"]["ok"]
  assert time.monotonic() - t0 < 120.0


# -- 7 ----------------------------------------------------------------------

def test_decomposition_roundtrip_bulk():
  t0 = time.monotonic()
  rng = random.Random(424242)
  runs = []

  z1 = TranslationAction(Euclidean(1), ((1,),))
  for name in ("exclusion", "multispecies:2", "spin3", "lattice-gas:2",
               "generalized-exclusion:2", "exclusion", "multispecies:2",
               "spin3", "lattice-gas:2", "generalized-exclusion:2",
               "exclusion", "multispecies:2"):
    runs.append((line(rng.choice([7, 8, 9])), by_name(name), z1, ((0,),)))

  z2 = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  win2 = box(Euclidean(2), (0, 0), (6, 6))
  for name in ("exclusion", "exclusion", "exclusion", "exclusion",
               "multispecies:2", "multispecies:2", "multispecies:2",
               "multispecies:2"):
    runs.append((win2, by_name(name), z2, (((0, 0)),)))

  assert len(runs) >= 20
  for win, inter, action, domain in runs:
    basis = conserved_basis(inter)
    rank = action.rank
    a = tuple(tuple(rand_fraction(rng) for _ in range(rank))
              for _ in basis)
    # random local part, support diameter <= 1, vanishing at base
    if action.rank == 1:
      s0 = (rng.randint(0, 1),)
      supp = (s0,) if rng.random() < 0.4 else (s0, (s0[0] + 1,))
    else:
      s0 = (0, 0)
      supp = ((0, 0),) if rng.random() < 0.4 else ((0, 0), (1, 0))
    n_vals = inter.n_states ** len(supp)
    vals = [rand_fraction(rng) for _ in range(n_vals)]
    vals[0] = Fraction(0)  # all-base assignment comes first
    f = LocalFunction(tuple(sorted(supp)), inter.n_states, inter.base,
                      tuple(vals))
    if f.value_at({}) != 0:
      continue
    domain = (tuple(domain[0]),)
    omega = synthesized_form(f, a, action, domain, win, inter, basis)
    rep = varadhan_decompose(omega, win, inter, basis, action, domain)
    got = tuple(tuple(row) for row in rep["a"])
    assert got == a, (inter.name, a)
    assert rep["residual"]["ok"]
    assert rep["residual"]["max_abs_residual"] == "0"
  assert time.monotonic() - t0 < 600.0


# -- 8 ----------------------------------------------------------------------

def test_cocycle_section_roundtrip():
  t0 = time.monotonic()
  rng = random.Random(99)
  z1 = TranslationAction(Euclidean(1), ((1,),))
  z2 = TranslationAction(Euclidean(2), ((1, 0), (0, 1)))
  win1 = line(9)
  win2 = box(Euclidean(2), (0, 0), (6, 6))
  cases = []
  for _ in range(6):
    cases.append(("exclusion", win1, z1, ((0,),)))
    cases.append(("lattice-gas:2", win1, z1, ((0,),)))
  for _ in range(4):
    cases.append(("exclusion", win2, z2, (((0, 0)),)))
    cases.append(("multispecies:2", win2, z2, (((0, 0)),)))
  assert len(cases) >= 20
  for name, win, action, domain in cases:
    inter = by_name(name)
    basis = conserved_basis(inter)
    a = tuple(tuple(rand_fraction(rng) for _ in range(action.rank))
              for _ in basis)
    domain = (tuple(domain[0]),)
    omega = build_omega_rho(a, action, domain, win, inter, basis)
    rep = extract_cocycle(omega, win, inter, basis, action)
    got = tuple(tuple(row) for row in rep["a"])
    assert got == a, name
  assert time.monotonic() - t0 < 120.0


# -- 9 ----------------------------------------------------------------------

def test_ordering_obstruction_pipeline():
  t0 = time.monotonic()
  rep = counterexample_report(9)
  assert rep["closed"]
  assert rep["shift_invariant"]
  assert rep["is_differential_of_inversions"]
  assert not rep["pairing_laws"]["symmetry"]["ok"]
  assert rep["splitting_certificate"] is not None
  assert rep["decomposition_refused"]
  assert time.monotonic() - t0 < 60.0


# -- 10 ---------------------------------------------------------------------

def test_transferability_catalog():
  t0 = time.monotonic()
  assert transferability(Euclidean(1))["classification"] == "weakly-only"
  assert not transferability(Euclidean(1))["transferable"]
  assert transferability(Euclidean(2))["classification"] == "strongly"
  assert transferability(Euclidean(3))["classification"] == "strongly"
  assert transferability(Cross())["classification"] == "transferable"
  assert transferability(HalfPlane())["classification"] == "transferable"
  assert transferability(FreeGroupCayley(2))["classification"] == "transferable"
  assert time.monotonic() - t0 < 60.0
