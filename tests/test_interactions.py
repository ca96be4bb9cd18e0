"""Interaction tables, validity, conserved bases.

The expected values here were worked out by hand from the defining rules of
each model; the basis checks compare spans, not normalized coordinates, so
they stay meaningful if the canonicalization ever changes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from configcalc.configspace import apply_edge
from configcalc.interactions import (CATALOG_NAMES, Interaction, by_name, basis_to_json,
                                     check_validity, conserved_basis,
                                     exclusion,
                                     generalized_exclusion, glauber,
                                     interaction_from_json,
                                     interaction_to_json, lattice_gas,
                                     multispecies, pair_flip,
                                     spin3)
from configcalc.serialize import InputError, fraction_from_str


def _span_equal(vecs_a, vecs_b):
  """Row spans over the rationals coincide."""
  def rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    out, piv = [], 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
      pick = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
      if pick is None:
        continue
      row = rows.pop(pick)
      row = [x / row[col] for x in row]
      rows = [[x - r[col] * y for x, y in zip(r, row)] for r in rows]
      out = [[x - r[col] * y for x, y in zip(r, row)] for r in out]
      out.append(row)
    return [tuple(r) for r in out]
  return rref(list(vecs_a)) == rref(list(vecs_b))


def test_exclusion_table():
  ex = exclusion()
  assert ex.apply(0, 1) == (1, 0)
  assert ex.apply(1, 0) == (0, 1)
  assert ex.apply(0, 0) == (0, 0)
  assert ex.apply(1, 1) == (1, 1)


def test_multispecies_swaps_everything():
  ms = multispecies(2)
  for a in range(3):
    for b in range(3):
      assert ms.apply(a, b) == (b, a)


def test_generalized_exclusion_moves_one_unit():
  ge = generalized_exclusion(2)
  assert ge.apply(1, 0) == (0, 1)
  assert ge.apply(2, 0) == (1, 1)
  assert ge.apply(2, 1) == (1, 2)
  assert ge.apply(1, 2) == (1, 2)   # target full: frozen
  assert ge.apply(0, 2) == (0, 2)


def test_lattice_gas_rule():
  lg = lattice_gas(2)
  assert lg.apply(1, 0) == (0, 1)   # hop into a hole
  assert lg.apply(2, 0) == (0, 2)
  assert lg.apply(2, 1) == (1, 2)   # shed one unit onto an occupied site
  assert lg.apply(1, 1) == (1, 1)   # single units do not merge
  assert lg.apply(0, 1) == (0, 1)


def test_spin3_cycle_and_swaps():
  sp = spin3()
  t = {(sp.states[a], sp.states[b]): tuple(sp.states[c] for c in sp.apply(a, b))
       for a in range(3) for b in range(3)}
  # the three zero-sum pairs rotate
  assert t[(0, 0)] == (-1, 1)
  assert t[(-1, 1)] == (1, -1)
  assert t[(1, -1)] == (0, 0)
  # everything else swaps
  assert t[(1, 0)] == (0, 1)
  assert t[(-1, 0)] == (0, -1)
  assert t[(1, 1)] == (1, 1)
  assert t[(-1, -1)] == (-1, -1)


def test_glauber_flips_first_site():
  gl = glauber()
  assert gl.apply(0, 0) == (1, 0)
  assert gl.apply(1, 0) == (0, 0)
  assert gl.apply(0, 1) == (1, 1)


def test_pair_flip_table():
  pf = pair_flip()
  assert pf.apply(0, 0) == (1, 1)
  assert pf.apply(1, 1) == (0, 0)
  assert pf.apply(0, 1) == (0, 1)
  assert pf.apply(1, 0) == (1, 0)


def test_catalog_names_resolve():
  for name in CATALOG_NAMES:
    inter = by_name(name)
    assert inter.name == name
  assert by_name("multispecies:3").n_states == 4
  with pytest.raises(InputError):
    by_name("multispecies:0")
  with pytest.raises(InputError):
    by_name("unheard-of")


def test_validity_catalog():
  strict = ["exclusion", "multispecies:2", "generalized-exclusion:2",
            "lattice-gas:2", "spin3", "pair-flip"]
  for name in strict:
    rep = check_validity(by_name(name))
    assert rep["strict"], name
    assert rep["relaxed"], name
    assert rep["valid"]
  gl = check_validity(glauber())
  assert not gl["strict"]
  assert gl["relaxed"]
  assert gl["valid"]
  assert gl["strict_witness"] is not None


def test_strict_witness_is_a_real_failure():
  rep = check_validity(glauber())
  w = rep["strict_witness"]
  gl = glauber()
  a, b = w["pair"]
  c, d = gl.apply(a, b)
  e, f = gl.apply(d, c)
  # replaying swap-apply-swap-apply really does miss the start
  assert list(w["image"]) == [c, d]
  assert tuple(w["round_trip"]) == (f, e) != (a, b)


def test_conserved_dimensions():
  assert len(conserved_basis(exclusion())) == 1
  assert len(conserved_basis(multispecies(2))) == 2
  assert len(conserved_basis(multispecies(3))) == 3
  assert len(conserved_basis(generalized_exclusion(2))) == 1
  assert len(conserved_basis(generalized_exclusion(3))) == 1
  assert len(conserved_basis(lattice_gas(2))) == 2
  assert len(conserved_basis(lattice_gas(3))) == 2
  assert len(conserved_basis(spin3())) == 1
  assert len(conserved_basis(glauber())) == 0
  assert len(conserved_basis(pair_flip())) == 0


def test_exclusion_basis_literal():
  assert basis_to_json(conserved_basis(exclusion())) == [["0", "1"]]


def test_generalized_exclusion_basis_counts_particles():
  assert basis_to_json(conserved_basis(generalized_exclusion(2))) == [
      ["0", "1", "2"]]


def test_spin3_basis_spans_the_spin():
  basis = conserved_basis(spin3())
  assert _span_equal(basis, [(-1, 0, 1)])


def test_multispecies_basis_spans_indicators():
  basis = conserved_basis(multispecies(2))
  assert _span_equal(basis, [(0, 1, 0), (0, 0, 1)])


def test_lattice_gas3_basis_span():
  # reference vectors: particle count with weights (0,1,2,3) and (0,1,1,1)
  basis = conserved_basis(lattice_gas(3))
  assert _span_equal(basis, [(0, 1, 2, 3), (0, 1, 1, 1)])


def test_basis_vectors_vanish_at_base():
  for name in CATALOG_NAMES:
    inter = by_name(name)
    for vec in conserved_basis(inter):
      assert vec[inter.base] == 0


def test_basis_vectors_conserved_under_moves():
  for name in CATALOG_NAMES:
    inter = by_name(name)
    for vec in conserved_basis(inter):
      for a in range(inter.n_states):
        for b in range(inter.n_states):
          c, d = inter.apply(a, b)
          assert vec[a] + vec[b] == vec[c] + vec[d], (name, a, b)


def test_basis_normalization_integer_coprime_positive_lead():
  from math import gcd
  for name in CATALOG_NAMES:
    for vec in conserved_basis(by_name(name)):
      ints = [int(x) for x in vec]
      assert all(Fraction(x) == i for x, i in zip(vec, ints))
      nz = [i for i in ints if i]
      assert nz, vec
      g = 0
      for i in nz:
        g = gcd(g, abs(i))
      assert g == 1
      assert nz[0] > 0


def test_quantity_of_state():
  basis = conserved_basis(multispecies(2))
  quantities = [tuple(vec[d] for vec in basis) for d in range(3)]
  assert quantities == [(0, 0), (1, 0), (0, 1)]


def test_interaction_json_roundtrip():
  for name in CATALOG_NAMES:
    inter = by_name(name)
    back = interaction_from_json(interaction_to_json(inter))
    assert back.states == inter.states
    assert back.base == inter.base
    for a in range(inter.n_states):
      for b in range(inter.n_states):
        assert back.apply(a, b) == inter.apply(a, b)


def test_basis_json_roundtrip():
  basis = conserved_basis(lattice_gas(3))
  back = tuple(tuple(fraction_from_str(v) for v in vec)
               for vec in basis_to_json(basis))
  assert back == basis


@given(st.integers(2, 4))
def test_multispecies_dimension_is_kappa(kappa):
  assert len(conserved_basis(multispecies(kappa))) == kappa


def test_explicit_interaction_from_json():
  obj = {"states": [0, 1], "base": 0,
         "map": [[0, 1, 1, 0], [1, 0, 0, 1]]}
  inter = interaction_from_json(obj)
  assert inter.apply(0, 1) == (1, 0)
  rep = check_validity(inter)
  assert rep["strict"]


def brute_force_moved(inter):
  """Every pair phi moves, with its image, scanning all |S|^2 pairs."""
  return tuple((a, b, *inter.apply(a, b)) for a in range(inter.n_states)
               for b in range(inter.n_states) if inter.apply(a, b) != (a, b))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_moved_lists_the_moved_pairs_in_pair_order(name):
  inter = by_name(name)
  assert inter.moved == brute_force_moved(inter)
  assert inter.moved


def test_moved_of_a_custom_interaction():
  # a three-state cycle on some pairs, one pair mapped onto itself
  inter = interaction_from_json({
      "name": "cyc", "states": [5, 7, 9], "base": 7,
      "map": [[5, 9, 9, 5], [9, 5, 7, 7], [7, 7, 5, 9], [9, 9, 9, 9]]})
  assert inter.moved == brute_force_moved(inter)
  assert inter.moved == ((0, 2, 2, 0), (1, 1, 0, 2), (2, 0, 1, 1))
  assert interaction_to_json(inter)["map"] == [
      [5, 9, 9, 5], [7, 7, 5, 9], [9, 5, 7, 7]]


@pytest.mark.parametrize("spec", ["multispecies:x", "lattice-gas:2.5", 5,
                                  None, ["exclusion"], "spin3:7",
                                  "exclusion:3", "glauber:0", "pair-flip:1"])
def test_by_name_refuses_a_malformed_spec(spec):
  with pytest.raises(InputError) as info:
    by_name(spec)
  if isinstance(spec, str) and spec.split(":")[1].isdigit():
    assert "takes no parameter" in str(info.value)


def fires_alike_both_ways(inter):
  """Brute force: ``apply_edge`` across (0, 1) and across (1, 0) give the
  same configuration on every configuration of a two-site window."""
  return all(apply_edge((a, b), 0, 1, inter) == apply_edge((a, b), 1, 0, inter)
             for a in range(inter.n_states) for b in range(inter.n_states))


UNDIRECTED = {"exclusion": True, "multispecies:2": True, "pair-flip": True,
              "generalized-exclusion:2": False, "lattice-gas:2": False,
              "spin3": False, "glauber": False}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_undirected_is_the_two_orientations_firing_alike(name):
  inter = by_name(name)
  assert inter.undirected is UNDIRECTED[name]
  assert inter.undirected == fires_alike_both_ways(inter)


@st.composite
def random_tables(draw):
  n = draw(st.integers(1, 4))
  pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
  table = [[draw(pair) for _ in range(n)] for _ in range(n)]
  if draw(st.booleans()):  # symmetrize: phi(b, a) is phi(a, b) swapped
    for a in range(n):
      table[a][a] = (table[a][a][0],) * 2
      for b in range(a):
        c, d = table[a][b]
        table[b][a] = (d, c)
  return n, tuple(tuple(row) for row in table)


@given(random_tables())
def test_undirected_matches_the_brute_force_on_random_tables(drawn):
  n, table = drawn
  inter = Interaction("random", tuple(range(n)), 0, table)
  assert inter.undirected == fires_alike_both_ways(inter)
