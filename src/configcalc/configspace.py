"""Finite configuration spaces and their transition structure.

A configuration on a window is a tuple of state indices aligned with the
window's sorted vertex list; the first vertex is the most significant digit,
so enumeration order equals mixed-radix index order equals lexicographic
order.  Transitions apply the interaction across a directed window edge.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .interactions import Interaction, check_exchangeability, check_validity
from .locales import Window
from .serialize import InputError, fraction_to_str


class BudgetExceeded(InputError):
  """|S|^|window| (or a derived workload) passed the configured budget."""


class PairNotExchangeable(InputError):
  """A path construction needed an exchange witness that does not exist."""


DEFAULT_BUDGET = 2_000_000


def n_configs(window: Window, inter: Interaction) -> int:
  return inter.n_states ** window.n_sites


def guard_budget(window: Window, inter: Interaction, budget: int = DEFAULT_BUDGET) -> int:
  total = n_configs(window, inter)
  if total > budget:
    raise BudgetExceeded(
        f"{inter.n_states}^{window.n_sites} = {total} configurations "
        f"exceed the budget {budget}")
  return total


def digit_powers(n_sites: int, n_states: int) -> tuple:
  return tuple(n_states ** (n_sites - 1 - k) for k in range(n_sites))


def index_of(digits, powers) -> int:
  return sum(d * p for d, p in zip(digits, powers))


def digits_of(index: int, n_sites: int, n_states: int) -> tuple:
  out = []
  for _ in range(n_sites):
    index, rem = divmod(index, n_states)
    out.append(rem)
  return tuple(reversed(out))


def all_configs(window: Window, inter: Interaction):
  """Iterate every configuration as a digit tuple, in index order."""
  return product(range(inter.n_states), repeat=window.n_sites)


def _site_sums(tables) -> list:
  """``sum(tables[k][digits[k]] for k)`` for every digit tuple, in index
  order (first site most significant): the Kronecker sum of per-site tables,
  one addition per entry of the result."""
  out = [0]
  for table in tables:
    out = [a + b for a in out for b in table]
  return out


def apply_edge(digits, pu: int, pv: int, inter: Interaction):
  """Apply the interaction across the directed edge at positions (pu, pv)."""
  a, b = digits[pu], digits[pv]
  c, d = inter.apply(a, b)
  if (c, d) == (a, b):
    return digits
  out = list(digits)
  out[pu], out[pv] = c, d
  return tuple(out)


def edge_positions(window: Window) -> tuple:
  return tuple((window.position(u), window.position(v)) for u, v in window.edges)


def move_table(epos, n_sites: int, inter: Interaction) -> tuple:
  """Every transition of every directed edge as a mixed-radix index jump.

  One entry ``(pu, pv, jumps)`` per edge position pair in ``epos``:
  ``jumps[a * s + b]`` is the index delta ``(c - a) * p_u + (d - b) * p_v``
  of the move ``(a, b) -> (c, d)`` the interaction makes across the edge,
  or None where it leaves the pair in place.  A moved pair never has delta
  zero, since the two positions carry different powers of ``s``.
  """
  s = inter.n_states
  powers = digit_powers(n_sites, s)
  table = []
  for pu, pv in epos:
    jumps = []
    for a in range(s):
      for b in range(s):
        c, d = inter.apply(a, b)
        jumps.append(None if (c, d) == (a, b)
                     else (c - a) * powers[pu] + (d - b) * powers[pv])
    table.append((pu, pv, tuple(jumps)))
  return tuple(table)


# ---------------------------------------------------------------------------
# Sparse configurations


def digits_from_sites(window: Window, inter: Interaction, assignment: dict) -> tuple:
  """Dense digits from a sparse {vertex: state_index} map (base elsewhere)."""
  digits = [inter.base] * window.n_sites
  for vertex, state_index in assignment.items():
    digits[window.position(vertex)] = state_index
  return tuple(digits)


def config_to_json(window: Window, inter: Interaction, digits) -> dict:
  sites, states = [], []
  for vertex, d in zip(window.vertices, digits):
    if d != inter.base:
      sites.append(window.locale.encode_vertex(vertex))
      states.append(inter.states[d])
  return {"sites": sites, "states": states}


def config_from_json(window: Window, inter: Interaction, obj) -> tuple:
  if not isinstance(obj, dict) or "sites" not in obj or "states" not in obj:
    raise InputError(f"bad configuration {obj!r}")
  if len(obj["sites"]) != len(obj["states"]):
    raise InputError("configuration sites/states lengths differ")
  assignment = {}
  for enc, value in zip(obj["sites"], obj["states"]):
    vertex = window.locale.decode_vertex(enc)
    assignment[vertex] = inter.state_index(value)
  return digits_from_sites(window, inter, assignment)


# ---------------------------------------------------------------------------
# Quantities


def quantity_of(digits, basis) -> tuple:
  """The window total of each basis quantity; exact (int or Fraction)."""
  return tuple(sum(vec[d] for d in digits) for vec in basis)


def _quantity_table(sites, basis, n_states: int, counted=None) -> list:
  """The quantity vector of every configuration of ``sites``, in index
  order, summing only the sites in ``counted`` (all of them by default).
  Each distinct vector is one shared tuple of Fractions."""
  zeros = (0,) * n_states
  columns = [_site_sums([vec if counted is None or x in counted else zeros
                         for x in sites])
             for vec in basis]
  if not columns:
    return [()] * n_states ** len(sites)
  shared = {q: tuple(map(Fraction, q)) for q in set(zip(*columns))}
  return list(map(shared.__getitem__, zip(*columns)))


def quantity_to_json(qvec) -> list:
  return [fraction_to_str(Fraction(v)) for v in qvec]


def zero_quantity(basis) -> tuple:
  return tuple(0 for _ in basis)


# ---------------------------------------------------------------------------
# Components of the transition graph


def components(window: Window, inter: Interaction, budget: int = DEFAULT_BUDGET):
  """Union-find components of the transition graph.

  Returns (labels, representatives): ``labels[i]`` is the component id of
  configuration ``i`` (ids are dense, ordered by least member), and
  ``representatives[c]`` is that least configuration index.
  """
  total = guard_budget(window, inter, budget)
  s = inter.n_states
  powers = digit_powers(window.n_sites, s)
  moves = move_table(edge_positions(window), window.n_sites, inter)
  if check_validity(inter)["valid"]:
    # Every move is undone across the same edge or its reverse, so each link
    # is also met from its lower end: keep only the upward jumps.
    moves = tuple((pu, pv, tuple(j if j is not None and j > 0 else None
                                 for j in jumps))
                  for pu, pv, jumps in moves)
  # Every root is the least member of its set and every parent is below its
  # child, so one ascending pass labels the configurations afterwards.
  parent = list(range(total))
  for pu, pv, jumps in moves:
    # The configurations with the edge's pair of digits at zero, in order.
    p_hi, p_lo = max(powers[pu], powers[pv]), min(powers[pu], powers[pv])
    offsets = [h + m + l for h in range(0, total, s * p_hi)
               for m in range(0, p_hi, s * p_lo) for l in range(p_lo)]
    for code, j in enumerate(jumps):
      if j is None:
        continue
      start = code // s * powers[pu] + code % s * powers[pv]
      for o in offsets:
        a = start + o
        b = a + j
        while parent[a] != a:
          parent[a] = a = parent[parent[a]]
        while parent[b] != b:
          parent[b] = b = parent[parent[b]]
        if a < b:
          parent[b] = a
        elif b < a:
          parent[a] = b
  labels = [0] * total
  reps = []
  for idx, p in enumerate(parent):
    if p == idx:
      labels[idx] = len(reps)
      reps.append(idx)
    else:
      labels[idx] = labels[p]
  return labels, reps


def fibers_report(window: Window, inter: Interaction, basis,
                  budget: int = DEFAULT_BUDGET) -> dict:
  """Do the conserved quantities separate exactly the transition components?

  The report carries counts plus, when a quantity fiber splits into several
  components, a concrete witness pair of mutually unreachable configurations
  with equal quantities.
  """
  labels, reps = components(window, inter, budget)
  # Raw column sums, not _quantity_table's Fraction keys: hashing a
  # Fraction is slow, and this groups every configuration once.
  columns = [_site_sums([vec] * window.n_sites) for vec in basis]
  quantities = zip(*columns) if columns else [()] * len(labels)
  first = {}  # (quantity, component) -> least configuration index
  for idx, key in enumerate(zip(quantities, labels)):
    first.setdefault(key, idx)
  fiber_components = {}
  for (q, comp), least in first.items():
    fiber_components.setdefault(q, {})[comp] = least
  witness = None
  for q in sorted(fiber_components):
    comps = fiber_components[q]
    if len(comps) > 1:
      first, second = sorted(comps.values())[:2]
      witness = {
          "quantity": quantity_to_json(q),
          "configs": [
              config_to_json(window, inter, digits_of(first, window.n_sites, inter.n_states)),
              config_to_json(window, inter, digits_of(second, window.n_sites, inter.n_states)),
          ],
      }
      break
  n_components = len(reps)
  n_fibers = len(fiber_components)
  return {
      "n_configs": n_configs(window, inter),
      "n_components": n_components,
      "n_fibers": n_fibers,
      "fibers_connected": witness is None,
      "components_separated": n_components == n_fibers,
      "witness": witness,
  }


# ---------------------------------------------------------------------------
# Explicit transition paths


def exchange_path(window: Window, inter: Interaction, digits, x, y,
                  witnesses: dict | None = None):
  """Transform ``digits`` into the configuration with sites x and y swapped.

  Walks a shortest window path z_0 .. z_m, exchanging adjacent pairs on the
  way out and back; each adjacent exchange expands into the pair's exchange
  witness (a power of the rule along the edge, in one orientation or the
  other).  Returns (steps, final) where ``steps`` is a list of
  (configuration, directed_edge) transitions and ``final`` equals the input
  with the two sites swapped.  Every intermediate step is a genuine
  single-edge transition.
  """
  if witnesses is None:
    report = check_exchangeability(inter)
    if not report["exchangeable"]:
      raise PairNotExchangeable(
          f"{inter.name} lacks exchange witnesses for pairs "
          f"{report['missing_pairs']}")
    witnesses = report["witnesses"]
  steps = []
  current = tuple(digits)
  if x == y:
    return steps, current
  path = window.path_between(x, y)

  def swap_adjacent(cfg, u, v):
    pu, pv = window.position(u), window.position(v)
    a, b = cfg[pu], cfg[pv]
    if a == b:
      return cfg
    w = witnesses.get((a, b))
    if w is None:
      raise PairNotExchangeable(
          f"{inter.name} cannot exchange the pair "
          f"({inter.states[a]!r}, {inter.states[b]!r})")
    edge = (u, v) if w["op"] == "phi" else (v, u)
    pe = (pu, pv) if w["op"] == "phi" else (pv, pu)
    for _ in range(w["power"]):
      steps.append((cfg, edge))
      cfg = apply_edge(cfg, pe[0], pe[1], inter)
    return cfg

  m = len(path) - 1
  for i in range(m):
    current = swap_adjacent(current, path[i], path[i + 1])
  for i in range(m - 2, -1, -1):
    current = swap_adjacent(current, path[i], path[i + 1])
  return steps, current


def swapped(digits, window: Window, x, y):
  px, py = window.position(x), window.position(y)
  out = list(digits)
  out[px], out[py] = out[py], out[px]
  return tuple(out)
