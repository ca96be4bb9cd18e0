"""Two-site interactions: the local move rule and what it conserves.

An interaction is a map phi : S x S -> S x S together with a distinguished
base state.  Applying a directed edge (x, y) to a configuration rewrites the
ordered pair (eta_x, eta_y) by phi.  The household catalog:

* ``exclusion()`` -- swap on {0,1}.
* ``multispecies(k)`` -- swap on {0..k}; every species count is conserved.
* ``generalized_exclusion(k)`` -- move one unit downhill: (a,b) -> (a-1,b+1)
  when that stays inside {0..k}.
* ``lattice_gas(k)`` -- swap with an empty site, or shed one unit onto an
  occupied one; conserves both mass and occupancy.
* ``spin3()`` -- states {-1,0,1}; zero-sum pairs rotate through the three
  zero-sum configurations, every other pair swaps.
* ``glauber()`` -- flips the first site regardless of the second; conserves
  nothing and is valid only in the relaxed (symmetric-graph) sense.
* ``pair_flip()`` -- flips (0,0) <-> (1,1); conserves nothing but preserves
  the parity of the number of ones, so quantity fibers disconnect.

Everything downstream works with state *indices*; JSON carries state
*values*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .linalg import _integer_row, rref
from .serialize import InputError, fraction_to_str


@dataclass(frozen=True)
class Interaction:
  name: str
  states: tuple            # state values, e.g. (0, 1) or (-1, 0, 1)
  base: int                # index into ``states``
  table: tuple             # table[i][j] = (k, l) state-index pair
  #: (a, b, c, d) for every pair phi moves, (a, b) -> (c, d), in (a, b) order
  moved: tuple = field(init=False, repr=False, compare=False)
  #: phi commutes with the pair swap: the move across (v, u) is the move
  #: across (u, v)
  undirected: bool = field(init=False, repr=False, compare=False)

  def __post_init__(self):
    n = len(self.states)
    if len(set(self.states)) != n:
      raise InputError("interaction states must be distinct")
    if not 0 <= self.base < n:
      raise InputError("base index out of range")
    if len(self.table) != n or any(len(row) != n for row in self.table):
      raise InputError("interaction table must be |S| x |S|")
    for row in self.table:
      for k, l in row:
        if not (0 <= k < n and 0 <= l < n):
          raise InputError("interaction table entry out of range")
    object.__setattr__(self, "moved", tuple(
        (a, b, *cd) for a, row in enumerate(self.table)
        for b, cd in enumerate(row) if cd != (a, b)))
    object.__setattr__(self, "undirected", all(
        self.apply_reversed(i, j) == self.apply(i, j)
        for i in range(n) for j in range(n)))

  @property
  def n_states(self) -> int:
    return len(self.states)

  @property
  def base_value(self):
    return self.states[self.base]

  def apply(self, i: int, j: int):
    """phi on state indices."""
    return self.table[i][j]

  def apply_reversed(self, i: int, j: int):
    """The reversed-edge rule: swap, apply phi, swap back."""
    k, l = self.table[j][i]
    return (l, k)

  def state_index(self, value) -> int:
    try:
      return self.states.index(value)
    except ValueError:
      raise InputError(f"state value {value!r} not in {self.states}") from None


# ---------------------------------------------------------------------------
# Catalog


def _table_from_rule(states, rule):
  n = len(states)
  out = []
  for i in range(n):
    row = []
    for j in range(n):
      k, l = rule(states[i], states[j])
      row.append((states.index(k), states.index(l)))
    out.append(tuple(row))
  return tuple(out)


def exclusion() -> Interaction:
  states = (0, 1)
  return Interaction("exclusion", states, 0,
                     _table_from_rule(states, lambda a, b: (b, a)))


def multispecies(kappa: int) -> Interaction:
  if kappa < 1:
    raise InputError("multispecies needs kappa >= 1")
  states = tuple(range(kappa + 1))
  return Interaction(f"multispecies:{kappa}", states, 0,
                     _table_from_rule(states, lambda a, b: (b, a)))


def generalized_exclusion(kappa: int) -> Interaction:
  if kappa < 1:
    raise InputError("generalized exclusion needs kappa >= 1")
  states = tuple(range(kappa + 1))

  def rule(a, b):
    if a - 1 >= 0 and b + 1 <= kappa:
      return (a - 1, b + 1)
    return (a, b)

  return Interaction(f"generalized-exclusion:{kappa}", states, 0,
                     _table_from_rule(states, rule))


def lattice_gas(kappa: int) -> Interaction:
  if kappa < 2:
    raise InputError("lattice gas needs kappa >= 2")
  states = tuple(range(kappa + 1))

  def rule(a, b):
    if a > 0 and b == 0:
      return (b, a)
    if a > 1 and b > 0 and b + 1 <= kappa:
      return (a - 1, b + 1)
    return (a, b)

  return Interaction(f"lattice-gas:{kappa}", states, 0,
                     _table_from_rule(states, rule))


def spin3() -> Interaction:
  states = (-1, 0, 1)

  def rule(a, b):
    if a + b != 0:
      return (b, a)
    return {(0, 0): (-1, 1), (-1, 1): (1, -1), (1, -1): (0, 0)}[(a, b)]

  return Interaction("spin3", states, 1, _table_from_rule(states, rule))


def glauber() -> Interaction:
  states = (0, 1)
  return Interaction("glauber", states, 0,
                     _table_from_rule(states, lambda a, b: (1 - a, b)))


def pair_flip() -> Interaction:
  states = (0, 1)

  def rule(a, b):
    if a == b:
      return (1 - a, 1 - b)
    return (a, b)

  return Interaction("pair-flip", states, 0, _table_from_rule(states, rule))


_CATALOG = {
    "exclusion": exclusion,
    "multispecies": multispecies,
    "generalized-exclusion": generalized_exclusion,
    "lattice-gas": lattice_gas,
    "spin3": spin3,
    "glauber": glauber,
    "pair-flip": pair_flip,
}

#: interactions every catalog listing should cover
CATALOG_NAMES = ("exclusion", "multispecies:2", "generalized-exclusion:2",
                 "lattice-gas:2", "spin3", "glauber", "pair-flip")


def by_name(spec: str) -> Interaction:
  """Resolve "exclusion", "multispecies:3", ... to an interaction."""
  if not isinstance(spec, str):
    raise InputError(f"interaction name must be a string, not {spec!r}")
  head, _, arg = spec.partition(":")
  if head not in _CATALOG:
    raise InputError(f"unknown interaction {spec!r}")
  try:
    args = (int(arg),) if arg else ()
  except ValueError:
    raise InputError(f"interaction parameter {arg!r} is not an integer") from None
  try:  # the builder's own signature says whether it takes kappa
    return _CATALOG[head](*args)
  except TypeError:
    need = "takes no parameter" if args else f"needs a parameter, e.g. {head}:2"
    raise InputError(f"interaction {head!r} {need}") from None


# ---------------------------------------------------------------------------
# Validity


def check_validity(inter: Interaction) -> dict:
  """Check the reversal law, strictly and in the relaxed sense.

  Strict: conjugating phi by the pair swap inverts it on every pair phi
  moves.  Relaxed: the one-edge configuration graph (transitions from both
  edge orientations) is symmetric.  The report carries a witness for
  whichever fails.
  """
  strict_witness = None
  for i, j, k, l in inter.moved:
    m, o = inter.apply(l, k)
    if (o, m) != (i, j):
      strict_witness = {
          "pair": [inter.states[i], inter.states[j]],
          "image": [inter.states[k], inter.states[l]],
          "round_trip": [inter.states[o], inter.states[m]],
      }
      break

  # each move across an edge, and its mirror across the reversed edge
  transitions = {t for a, b, c, d in inter.moved
                 for t in (((a, b), (c, d)), ((b, a), (d, c)))}
  relaxed_witness = None
  for p, q in sorted(transitions):
    if (q, p) not in transitions:
      relaxed_witness = {
          "from": [inter.states[p[0]], inter.states[p[1]]],
          "to": [inter.states[q[0]], inter.states[q[1]]],
      }
      break

  return {
      "strict": strict_witness is None,
      "strict_witness": strict_witness,
      "relaxed": relaxed_witness is None,
      "relaxed_witness": relaxed_witness,
      "valid": relaxed_witness is None,
  }


# ---------------------------------------------------------------------------
# Conserved quantities


def _normalize_integer_vector(vec):
  """Scale to coprime integers with a positive leading entry."""
  ints, _ = _integer_row(vec)
  lead = next((v for v in ints if v != 0), 1)
  common = gcd(*ints) * (1 if lead > 0 else -1)
  return tuple(v // common for v in ints) if common else tuple(ints)


def conserved_basis(inter: Interaction) -> tuple:
  """Basis of the conserved single-site quantities, vanishing on the base.

  Solves xi(base) = 0 and xi(a) + xi(b) = xi(phi(a,b)) exactly over the
  rationals; the basis is canonical: integer entries, coprime, positive
  leading coefficient, free states taken in increasing index order.
  """
  n = inter.n_states
  rows = [{inter.base: 1}]
  for i, j, k, l in inter.moved:
    row = {}
    for state, x in ((i, 1), (j, 1), (k, -1), (l, -1)):
      row[state] = row.get(state, 0) + x
    if any(row.values()):
      rows.append(row)
  echelon, pivots, _ = rref(rows, n)
  free_cols = [c for c in range(n) if c not in pivots]
  basis = []
  for fc in free_cols:
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for r, pc in zip(echelon, pivots):
      vec[pc] = -r.get(fc, 0)
    basis.append(_normalize_integer_vector(vec))
  return tuple(basis)


# ---------------------------------------------------------------------------
# JSON


def interaction_to_json(inter: Interaction) -> dict:
  return {
      "name": inter.name,
      "states": list(inter.states),
      "base": inter.base_value,
      "map": [[inter.states[k] for k in move] for move in inter.moved],
  }


def interaction_from_json(obj) -> Interaction:
  if isinstance(obj, str):
    return by_name(obj)
  if not isinstance(obj, dict):
    raise InputError(f"bad interaction descriptor {obj!r}")
  if set(obj) <= {"name"} and "name" in obj:
    return by_name(obj["name"])
  try:
    states = obj["states"]
    base_value = obj["base"]
    rows = obj["map"]
  except KeyError as exc:
    raise InputError(f"interaction descriptor missing {exc}") from None
  if (not isinstance(states, list) or not isinstance(rows, list)
      or any(isinstance(s, (list, dict)) for s in states)):
    raise InputError(f"bad interaction states or map in {obj!r}")
  states = tuple(states)
  if base_value not in states:
    raise InputError(f"base {base_value!r} is not one of the states")
  index = {s: i for i, s in enumerate(states)}
  n = len(states)
  table = [[(i, j) for j in range(n)] for i in range(n)]
  mapped = set()
  for row in rows:
    if not isinstance(row, list) or len(row) != 4:
      raise InputError(f"map rows are [s1, s2, t1, t2]; got {row!r}")
    s1, s2, t1, t2 = row
    for v in (s1, s2, t1, t2):
      if isinstance(v, (list, dict)) or v not in index:
        raise InputError(f"map row {row!r} uses unknown state {v!r}")
    if (index[s1], index[s2]) in mapped:
      raise InputError(f"map row {row!r} repeats the source pair {[s1, s2]!r}")
    mapped.add((index[s1], index[s2]))
    table[index[s1]][index[s2]] = (index[t1], index[t2])
  inter = Interaction(obj.get("name", "custom"), states, index[base_value],
                      tuple(tuple(r) for r in table))
  return inter


def basis_to_json(basis) -> list:
  return [list(map(fraction_to_str, vec)) for vec in basis]
