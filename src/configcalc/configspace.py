"""Finite configuration spaces and their transition structure.

A configuration on a window is a tuple of state indices aligned with the
window's sorted vertex list; the first vertex is the most significant digit,
so enumeration order equals mixed-radix index order equals lexicographic
order.  Transitions apply the interaction across a directed window edge.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter

from .interactions import Interaction
from .locales import Window
from .serialize import InputError, fraction_to_str


class BudgetExceeded(InputError):
  """|S|^|window| (or a derived workload) passed the configured budget."""


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
  return list(map(fraction_to_str, qvec))


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
  transition graph, and a move is not walked when its undo was, at this
  level, with negated steps: (c, d, a, b) on the same edge or (d, c, b, a)
  on the reversed edge reading the same positions, whose numerators at
  (c, d) are minus the move's at (a, b) for every other read digit (always,
  without ``reads``).  Its links are then the undo's, reversed.  For an
  undirected rule (``Interaction.undirected``) an edge fires the
  transitions of its reversed edge, so when the two read alike (the same
  positions and numerators; always, without ``reads``) only the first of
  the two is walked.  A move whose steps do not negate its undo's, and an
  edge whose read differs from its reverse's, are walked too, which is how
  a form that breaks alternation is found not closed.
  Returns (maps, reps), with ``maps[q]``
  level q's (label, offset) and ``reps`` the least members of the window's
  components, or None when a cycle of moves has a nonzero integral.
  """
  n, s = window.n_sites, inter.n_states
  epos = edge_positions(window)
  # each directed edge's number, by its positions, for the reversal lookup
  number = {p: k for k, p in enumerate(epos)} if inter.undirected else {}
  each, zeros = [(x, x) for x in range(s)], [0] * (s * s)
  if reads is None:  # each edge reads its own two sites, every step 0
    reads = [(tuple(sorted(p)), zeros) for p in epos]
  checked = [[] for _ in range(n)]  # the edges checked at each level
  for k, ((pu, pv), (pos, nums)) in enumerate(zip(epos, reads)):
    r = number.get((pv, pu), k)
    if not (r < k and reads[r] == reads[k]):  # else r adds these links
      checked[min(pos)].append((pu, pv, pos, nums))
  maps, reps = [None] * n, [0]
  for m in range(n - 1, -1, -1):
    size, n_comp = s ** (n - 1 - m), len(reps)
    links = set()  # (source node, target node, offset difference)
    walked = {}  # (group, source, target digits) of each walked move -> nums
    for pu, pv, pos, nums in checked[m]:
      weight = dict(zip(pos, digit_powers(len(pos), s)))
      t, (lo, h) = max(pos), sorted((pu, pv))
      group = pos, (pos.index(lo), pos.index(h))  # the read, the edge in it
      # (source label, target label, offset difference, read index); every
      # move reads (x, x) above h, so those levels are walked once per edge
      above = _walk(maps, {(l, l, 0, 0) for l in range(len(maps[t][0]) // s)},
                    range(t, h, -1), weight, {}, each)
      for a, b, c, d in inter.moved:  # source, target digits in window order
        src, dst = ((a, b), (c, d)) if pu < pv else ((b, a), (d, c))
        undo = walked.get((group, dst, src))
        if undo is not None and (
            nums is zeros or _negates(s, *group, nums, src, undo, dst)):
          continue  # its undo, walked with negated steps, added these links
        walked[group, src, dst] = nums
        pairs = {pu: [(a, c)], pv: [(b, d)]}
        reach = _walk(maps, above, range(h, m, -1), weight, pairs, each)
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


def _negates(s: int, pos, places, nums, src, undo, dst) -> bool:
  """Are ``nums`` at digits ``src`` on read ``places`` minus ``undo``'s at
  ``dst``, for every other digit of the read positions ``pos``?"""
  at = [_fixed_slices(len(pos), s, tuple(zip(places, digits)))
        for digits in (src, dst)]
  return not any(v for sl, sl2 in zip(*at)
                 for v in map(add, nums[sl], undo[sl2]))


def _walk(maps, reach, levels, weight, pairs, each):
  """``_slab_solve``'s link tuples carried down ``levels`` of its maps, each
  through its (source, target) digits ``pairs[q]``, else ``each``'s (x, x)."""
  for q in levels:
    label, offset = maps[q]
    width, w, xs = len(label) // len(each), weight.get(q, 0), pairs.get(q, each)
    reach = {(label[i], label[j], du + offset[i] - offset[j], r + x * w)
             for l, l2, du, r in reach for x, x2 in xs
             for i, j in ((x * width + l, x2 * width + l2),)}
  return reach


def _cut(maps, s: int, positions) -> int:
  """Where ``_expand`` cuts the levels: the largest k with 3 <= a <= b / 2,
  a and b the read positions above and below k, so that at least s^3
  prefixes share the block's interned pairs and there are no more of them
  than the square root of its s^b entries; 0 if there is none."""
  k, a, b = 0, 0, sum(q in positions for q in range(len(maps)))
  for j in range(1, len(maps)):
    if j - 1 in positions:
      a, b = a + 1, b - 1
    if 3 <= a <= b / 2:
      k = j
  return k


def _expand(maps, s: int, potential: bool, positions, base: int):
  """The dense table of ``_slab_solve``'s level maps over ``positions``, in
  index order, with every other position read at digit ``base``: each
  configuration's label (a list), or with ``potential`` its potential
  numerator (a tuple; it reads the labels of every level but the first).
  Levels n-1 .. k (``_cut``) give the labels Lb and potentials Ub of a block
  over the positions below k, levels k-1 .. 0 one table T_p per digit
  prefix over the level-k labels.  The block's distinct (Lb, Ub) pairs are
  interned once, ids in first-seen order, so each prefix makes one sum
  ``T_p[label] + potential`` per distinct pair and one gather per entry
  (labels: T_p gathered at Lb)."""
  k, L, U = _cut(maps, s, positions), [0], [0]
  for q in range(len(maps) - 1, -1, -1):
    if q == k - 1:  # the cut: walk on from every level-k label
      Lb, Ub, width = L, U, len(maps[q][0]) // s
      L, U = range(width), [0] * width
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
  if not k:
    return tuple(U) if potential else L
  tables, out, pid = U if potential else L, [], Lb
  if potential:
    ids = {}
    pid = [ids.setdefault(pair, len(ids)) for pair in zip(Lb, Ub)]
    labels, pots = zip(*ids)
    read = _gather(labels)
  gather = _gather(pid)
  for p in range(0, len(tables), width):
    t = tables[p:p + width]
    if potential:  # a table of zeros leaves the block's potentials
      t = list(map(add, pots, read(t))) if any(t) else pots
    out += gather(t)
  return tuple(out) if potential else out


def _gather(indices):
  """``itemgetter(*indices)``, a tuple even for one index."""
  if len(indices) == 1:
    return lambda t: (t[indices[0]],)
  return itemgetter(*indices)


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
      witness = {
          "quantity": quantity_to_json(q),
          "configs": [config_to_json(window, inter,
                                     digits_of(rep, window.n_sites, s))
                      for rep in comps[:2]],
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
