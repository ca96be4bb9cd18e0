"""Finite configuration spaces and their transition structure.

A configuration on a window is a tuple of state indices aligned with the
window's sorted vertex list; the first vertex is the most significant digit,
so enumeration order equals mixed-radix index order equals lexicographic
order.  Transitions apply the interaction across a directed window edge.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .interactions import Interaction
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


def _site_sums(tables) -> list:
  """``sum(tables[k][digits[k]] for k)`` for every digit tuple, in index
  order (first site most significant): the Kronecker sum of per-site tables,
  one addition per entry of the result."""
  out = [0]
  for table in tables:
    out = [a + b for a in out for b in table]
  return out


def _offsets(sites, support, s: int, base: int) -> tuple:
  """Where the configurations of ``sites`` sit in an index-ordered table
  over ``support``, with the table's other sites at ``base`` (a site of
  ``sites`` the table lacks is ignored): the index of each configuration of
  ``sites``, in their index order, and the index of the all-base one."""
  place = dict(zip(support, digit_powers(len(support), s)))
  places = [place.get(x, 0) for x in sites]
  at_base = base * sum(place.values())
  # The other sites' base digits ride along as a leading site with one state.
  return _site_sums([(at_base - base * sum(places),)] + [
      [d * p for d in range(s)] for p in places]), at_base


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


@lru_cache(maxsize=1024)
def _fixed_slices(n_sites: int, s: int, fixed: tuple) -> tuple:
  """Slices of an index-ordered table over ``n_sites`` sites that hold
  exactly the entries with the given digits at the given positions.

  ``fixed`` holds (position, digit) pairs in position order.  The free
  positions form runs between the fixed ones, and an index is the fixed
  digits' part plus one multiple of each run's least place.  Each slice
  walks the run with the most entries (the later run on a tie, so a run
  that ends the table gives contiguous blocks), one slice per combination
  of the other runs, in index order of their starts.
  """
  powers = digit_powers(n_sites, s)
  start = sum(d * powers[p] for p, d in fixed)
  runs, lo = [], 0
  for p in [p for p, _ in fixed] + [n_sites]:
    if p > lo:
      runs.append((s ** (p - lo), powers[p - 1]))  # (entries, least place)
    lo = p + 1
  count, place = max(runs, key=lambda run: (run[0], -run[1]), default=(1, 1))
  others = [(start,)] + [range(0, c * pl, pl) for c, pl in runs if pl != place]
  return tuple(slice(o, o + count * place, place) for o in _site_sums(others))


@lru_cache(maxsize=1024)
def _move_slices(n_sites: int, pu: int, pv: int, s: int, moved) -> tuple:
  """The moves across a directed edge at positions (pu, pv) of an
  ``n_sites`` table, as slices of it.

  Returns (fired, still).  ``fired`` holds one (source, target) slice pair
  per slice of each move (a, b, c, d) of ``moved``, in move order: the
  source holds the entries with digits (a, b) at (pu, pv), and the target
  the same entries after the move, shifted by its index jump
  ``(c - a) * p_u + (d - b) * p_v``.  ``still`` holds the slices of the
  pairs the interaction leaves in place.
  """
  powers = digit_powers(n_sites, s)
  moves = {(a, b): (c, d) for a, b, c, d in moved}
  fired, still = [], []
  for a in range(s):
    for b in range(s):
      slices = _fixed_slices(n_sites, s, tuple(sorted(((pu, a), (pv, b)))))
      if (a, b) not in moves:
        still += slices
        continue
      c, d = moves[a, b]
      jump = (c - a) * powers[pu] + (d - b) * powers[pv]
      fired += [(src, slice(src.start + jump, src.stop + jump, src.step))
                for src in slices]
  return tuple(fired), tuple(still)


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
  """The window total of each basis quantity, summed in the basis's own
  entries: ints for the conserved basis, equal to the raw sums that key a
  computed pairing table."""
  return tuple(sum(vec[d] for d in digits) for vec in basis)


def _quantity_sums(sites, basis, n_states: int):
  """The raw quantity sums of every configuration of ``sites``, in index
  order: one tuple of basis-entry sums per configuration.  Raw sums hash
  far faster than tuples of Fractions, so grouping is done on these, and
  the pairing table keeps them as its keys."""
  columns = [_site_sums([vec] * len(sites)) for vec in basis]
  if not columns:
    return [()] * n_states ** len(sites)
  return zip(*columns)


def _require_conserved(inter: Interaction, basis) -> None:
  """Refuse a basis that a move of the interaction does not conserve,
  naming the first such move in ``(a, b)`` order."""
  for move in inter.moved:
    a, b, c, d = move
    if any(vec[a] + vec[b] != vec[c] + vec[d] for vec in basis):
      a, b, c, d = (inter.states[k] for k in move)
      raise InputError(
          f"the basis is not conserved by the move {(a, b)} -> {(c, d)}")


def quantity_to_json(qvec) -> list:
  return [fraction_to_str(Fraction(v)) for v in qvec]


# ---------------------------------------------------------------------------
# Components of the transition graph


def _slab_solve(window: Window, inter: Interaction, reads=None):
  """Transition components, and a potential when ``reads`` is given, found
  by peeling window positions from the last one to the first.

  Level q holds the configurations of positions q..n-1, indexed x * P + r
  with x the digit at q and r one of the P level-(q+1) configurations.  Its
  solution is a map over the s * C nodes x * C + c, c one of the C
  level-(q+1) components: ``label`` gives the node's level-q component
  (dense, ordered by least member) and ``offset`` what it adds to the
  level-(q+1) potential.  A configuration's label and potential (integer
  numerators, 0 at each component's least member) are read by walking its
  digits through the maps from level n-1 down; ``_expand`` spells them out
  for every configuration, or for those of a few positions with the rest at
  one digit.

  An edge is checked at the least window position m it reads: its two
  sites, and the sites its function reads.  ``reads[k]`` is the k-th window
  edge's function as (window positions, numerators over them): every
  position it reads with the edge's, in window order, whatever the
  function's width.  A move checked at a later level changes no
  digit at m and its step does not depend on it, so every slab shares the
  level-(m+1) solution, and the moves checked at m join the s * C nodes.  A
  move's links are read off the maps between m and the greatest position t
  its edge reads.  From (source label, target label, offset difference,
  read index) = (c, c, 0, 0) over the level-(t+1) components, each level
  q = t..m+1 maps both labels through its node map, adds the offset
  difference and advances the read index by the source digit, taking the
  move's own (source, target) digits at an edge site and every (x, x)
  elsewhere; at m the function's step is added.  Above the edge's higher
  site h every move takes (x, x), so levels t..h+1 are walked once per
  edge and each move walks on from h.  Deduplicated at every level, these
  are the links of the level-(m+1) configurations the move fires on.
  Links count both ways, so the components are those of the undirected
  transition graph.  Returns (maps, reps), with ``maps[q]``
  level q's (label, offset) and ``reps`` the least members of the window's
  components, or None when a cycle of moves has a nonzero integral.
  """
  n, s = window.n_sites, inter.n_states
  epos = edge_positions(window)
  each, zeros = [(x, x) for x in range(s)], [0] * (s * s)
  maps, reps = [None] * n, [0]

  def walk(reach, levels, weight, pairs):
    for q in levels:
      label, offset = maps[q]
      width, w, xs = len(label) // s, weight.get(q, 0), pairs.get(q, each)
      reach = {(label[i], label[j], du + offset[i] - offset[j], r + x * w)
               for l, l2, du, r in reach for x, x2 in xs
               for i, j in ((x * width + l, x2 * width + l2),)}
    return reach

  for m in range(n - 1, -1, -1):
    size, n_comp = s ** (n - 1 - m), len(reps)
    links = set()  # (source node, target node, offset difference)
    for k, (pu, pv) in enumerate(epos):
      pos, nums = reads[k] if reads is not None else ((pu, pv), zeros)
      if min(pos) != m:
        continue
      weight = dict(zip(pos, digit_powers(len(pos), s)))
      t, h = max(pos), max(pu, pv)
      # (source label, target label, offset difference, read index); every
      # move reads (x, x) above h, so those levels are walked once per edge
      above = walk({(l, l, 0, 0) for l in range(len(maps[t][0]) // s)},
                   range(t, h, -1), weight, {})
      for a, b, c, d in inter.moved:
        pairs = {pu: [(a, c)], pv: [(b, d)]}
        reach = walk(above, range(h, m, -1), weight, pairs)
        w, xs = weight[m], pairs.get(m, each)
        links.update((x * n_comp + l, x2 * n_comp + l2, du + nums[r + x * w])
                     for l, l2, du, r in reach for x, x2 in xs)
    # Node x * C + c has least member x * P + reps[c], and both grow with
    # the node, so walking the nodes in order labels by least member.
    n_nodes = s * n_comp
    adj = [[] for _ in range(n_nodes)]
    for u, v, diff in links:
      adj[u].append((v, diff))
      adj[v].append((u, -diff))
    label, offset, new_reps = [None] * n_nodes, [0] * n_nodes, []
    for node in range(n_nodes):
      if label[node] is not None:
        continue
      label[node] = len(new_reps)
      new_reps.append(node // n_comp * size + reps[node % n_comp])
      stack = [node]
      while stack:
        u = stack.pop()
        for v, diff in adj[u]:
          if label[v] is None:
            label[v], offset[v] = label[u], offset[u] + diff
            stack.append(v)
          elif offset[v] != offset[u] + diff:
            return None
    maps[m], reps = (label, offset), new_reps
  return maps, reps


def _expand(maps, s: int, potential: bool, positions, base: int) -> list:
  """The dense table of ``_slab_solve``'s level maps over ``positions``, in
  index order, with every other position read at digit ``base``: each
  configuration's label, or with ``potential`` its potential numerator
  (which reads the labels of every level but the first)."""
  L, U = [0], [0]
  for q in range(len(maps) - 1, -1, -1):
    label, offset = maps[q]
    n_comp = len(label) // s
    new_L, new_U = [], []
    for x in range(s) if q in positions else (base,):
      nodes = slice(x * n_comp, (x + 1) * n_comp)
      if potential:
        off = offset[nodes]
        new_U += map(add, U, map(off.__getitem__, L)) if any(off) else U
      if q or not potential:
        new_L += map(label[nodes].__getitem__, L)
    L, U = new_L, new_U
  return U if potential else L


def components(window: Window, inter: Interaction, budget: int = DEFAULT_BUDGET):
  """Components of the transition graph, links counted both ways.

  Returns (labels, representatives): ``labels[i]`` is the component id of
  configuration ``i`` (ids are dense, ordered by least member), and
  ``representatives[c]`` is that least configuration index.  The window is
  solved slab by slab (``_slab_solve``), one window position at a time, and
  its labels are spelled out from the level maps.
  """
  guard_budget(window, inter, budget)
  maps, reps = _slab_solve(window, inter)
  return _expand(maps, inter.n_states, False, range(window.n_sites),
                 inter.base), reps


def fibers_report(window: Window, inter: Interaction, basis,
                  budget: int = DEFAULT_BUDGET) -> dict:
  """Do the conserved quantities separate exactly the transition components?

  Every basis vector must be conserved by the interaction's moves (an
  ``InputError`` otherwise), so the quantity is constant on each component
  and is read at its least member.  The report carries counts plus, when a
  quantity fiber splits into several components, a concrete witness pair of
  mutually unreachable configurations with equal quantities.
  """
  s = inter.n_states
  _require_conserved(inter, basis)
  guard_budget(window, inter, budget)
  _, reps = _slab_solve(window, inter)
  # quantity -> least members of its components, in increasing order
  fiber_components = {}
  for rep in reps:
    q = quantity_of(digits_of(rep, window.n_sites, s), basis)
    fiber_components.setdefault(q, []).append(rep)
  witness = None
  for q in sorted(fiber_components):
    comps = fiber_components[q]
    if len(comps) > 1:
      first, second = comps[:2]
      witness = {
          "quantity": quantity_to_json(q),
          "configs": [
              config_to_json(window, inter, digits_of(first, window.n_sites, s)),
              config_to_json(window, inter, digits_of(second, window.n_sites, s)),
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


def exchange_path(window: Window, inter: Interaction, digits, x, y):
  """Transform ``digits`` into the configuration with sites x and y swapped.

  Walks a shortest window path z_0 .. z_m, exchanging adjacent pairs on the
  way out and back; each adjacent exchange expands into the pair's exchange
  witness (a power of the rule along the edge, in one orientation or the
  other).  Returns (steps, final) where ``steps`` is a list of
  (configuration, directed_edge) transitions and ``final`` equals the input
  with the two sites swapped.  Every intermediate step is a genuine
  single-edge transition.  A pair of unequal states with no exchange
  witness that the walk has to swap raises ``PairNotExchangeable``.
  """
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
    w = inter.witnesses.get((a, b))
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
