"""Local functions, exact-support expansions, and the naive differential.

A ``LocalFunction`` is an exact-rational function of finitely many sites: a
sorted support plus a dense mixed-radix table of integer numerators over one
common denominator.  That is the one table format: every kernel here reads
and writes numerators and does integer arithmetic, and Fractions appear only
where values enter (the constructor) or leave (``values``, ``value_at`` and
the reports).  Nothing is ever rounded.

The differential of a function along a directed edge e is
``f(eta^e) - f(eta)`` where ``eta^e`` applies the interaction across e.  A
``Form`` assigns one local function per directed window edge; closedness and
integration are decided exactly on the finite configuration graph: the
window is solved slab by slab, one position at a time
(``configspace._slab_solve``), each edge checked at the least window
position it reads, whatever its function's width.  An edge the form does
not store carries the zero function.  An interaction that is not valid (a
move that no move undoes) is refused.  A form that is not closed raises
``NotClosedError`` with a witness cycle from a breadth-first scan.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress, product
from math import gcd, lcm

from .configspace import (DEFAULT_BUDGET, _expand, _fixed_slices,
                          _move_slices, _offsets, _site_sums, _slab_solve,
                          apply_edge, config_to_json, digit_powers, digits_of,
                          edge_positions, guard_budget, index_of)
from .interactions import Interaction, check_validity
from .linalg import _integer_row
from .locales import Locale, Window
from .serialize import (InputError, WitnessError, fraction_from_str,
                        fraction_to_str, manifest_int)

_GCD_CHUNK = 4096  # entries per gcd call in LocalFunction._exact


@dataclass(frozen=True, init=False)
class LocalFunction:
  """Exact function of the states at finitely many sites.

  ``nums`` holds one integer numerator per assignment of states to
  ``support``, the first support vertex being the most significant
  mixed-radix digit, over the one positive ``denom``.  The table is kept in
  lowest terms, so equal functions on one support are equal and hash equal.
  The empty support encodes a constant.  ``values`` and ``value_at`` read
  the table as Fractions.
  """

  support: tuple
  n_states: int
  base: int
  nums: tuple
  denom: int

  def __init__(self, support, n_states: int, base: int, values):
    """From exact values (Fractions or ints), one per table entry."""
    nums, denom = _integer_row(values)
    self._fill(support, n_states, base, tuple(nums), denom)

  @classmethod
  def _exact(cls, support, n_states: int, base: int, nums, denom: int = 1):
    """From integer numerators over ``denom``, put in lowest terms: how
    every kernel builds its result.  A table past ``_GCD_CHUNK`` entries
    takes its gcd chunk by chunk and stops at the first 1."""
    common = denom
    if denom != 1 and len(nums) <= _GCD_CHUNK:
      common = gcd(denom, *nums)
    elif denom != 1:
      for i in range(0, len(nums), _GCD_CHUNK):
        if (common := gcd(common, *nums[i:i + _GCD_CHUNK])) == 1:
          break
    if common != 1:
      nums, denom = [k // common for k in nums], denom // common
    f = object.__new__(cls)
    f._fill(support, n_states, base, tuple(nums), denom)
    return f

  def _fill(self, support, n_states, base, nums, denom):
    expected = n_states ** len(support)
    if len(nums) != expected:
      raise InputError(
          f"value table has {len(nums)} entries, expected {expected}")
    vars(self).update(support=support, n_states=n_states, base=base,
                      nums=nums, denom=denom)

  # -- evaluation -----------------------------------------------------------

  @property
  def values(self) -> tuple:
    """The table as Fractions, one shared object per distinct value."""
    shared = {k: Fraction(k, self.denom) for k in set(self.nums)}
    return tuple(map(shared.__getitem__, self.nums))

  def value_at(self, assignment: dict) -> Fraction:
    """Evaluate at {vertex: state_index}; absent sites sit at the base."""
    idx = 0
    for v in self.support:
      idx = idx * self.n_states + assignment.get(v, self.base)
    return Fraction(self.nums[idx], self.denom)

  def is_zero(self) -> bool:
    return not any(self.nums)

  def assignments(self):
    """Iterate (digits, value) over the support table."""
    return zip(product(range(self.n_states), repeat=len(self.support)),
               self.values)


def _on_support(f: LocalFunction, support) -> LocalFunction:
  """f's table, unchanged, on another support of as many sites."""
  moved = object.__new__(LocalFunction)
  moved._fill(support, f.n_states, f.base, f.nums, f.denom)
  return moved


def constant(value, n_states: int, base: int) -> LocalFunction:
  return LocalFunction((), n_states, base, (Fraction(value),))


def from_callable(support, n_states: int, base: int, fn) -> LocalFunction:
  support = tuple(sorted(support))
  vals = tuple(Fraction(fn(digits))
               for digits in product(range(n_states), repeat=len(support)))
  return LocalFunction(support, n_states, base, vals)


def _gather(f: LocalFunction, support) -> tuple:
  """f's numerators on every configuration of ``support`` (sites in any
  order), in index order.  f's sites outside ``support`` sit at base; sites
  of ``support`` that f does not read are ignored."""
  if tuple(support) == f.support:
    return f.nums
  index, _ = _offsets(support, f.support, f.n_states, f.base)
  return tuple(map(f.nums.__getitem__, index))


def _over(f: LocalFunction, support, denom: int, c: Fraction = Fraction(1)):
  """c * f read on ``support`` as ``_gather`` does, as integer numerators
  over ``denom``, a multiple of c's denominator times f's."""
  m = c.numerator * (denom // (c.denominator * f.denom))
  nums = _gather(f, support)
  return nums if m == 1 else [m * k for k in nums]


def embed(f: LocalFunction, support) -> LocalFunction:
  """The same function viewed on a larger support."""
  support = tuple(sorted(support))
  if support == f.support:
    return f
  missing = [v for v in f.support if v not in support]
  if missing:
    raise InputError(f"embed target lacks support sites {missing}")
  return LocalFunction._exact(support, f.n_states, f.base, _gather(f, support),
                              f.denom)


def trim(f: LocalFunction) -> LocalFunction:
  """Drop support sites the table does not actually depend on.

  A site is unread when each slice at digit zero there equals that slice
  shifted to every other digit.  It is dropped at once, keeping those slices,
  and the next site is tested on that smaller table: dropping a site does not
  change whether the table reads any other."""
  n = len(f.support)
  s = f.n_states
  nums, keep = f.nums, []
  for v in f.support:
    k = len(keep)
    place = s ** (n - 1 - k)
    slices = _fixed_slices(n, s, ((k, 0),))
    if any(nums[sl] != nums[sl.start + d * place:sl.stop + d * place:sl.step]
           for sl in slices for d in range(1, s)):
      keep.append(v)
      continue
    rows = [nums[sl] for sl in slices]
    # Contiguous slices run one per configuration of the sites before k;
    # strided ones walk those sites, one per configuration of the sites after.
    nums = list(chain.from_iterable(rows if slices[0].step == 1
                                    else zip(*rows)))
    n -= 1
  if n == len(f.support):
    return f
  return LocalFunction._exact(tuple(keep), s, f.base, nums, f.denom)


def _combine(terms, n_states: int, base: int) -> LocalFunction:
  """sum c * f over the (c, f) pairs, on the union of the supports.

  Every table is read on that union with ``_over`` as integer numerators
  over one common denominator, so the sum is integer additions only.
  """
  terms = [(Fraction(c), f) for c, f in terms]
  if any(f.n_states != n_states or f.base != base for _, f in terms):
    raise InputError("mixing local functions over different state alphabets")
  support = tuple(sorted(set(chain.from_iterable(f.support for _, f in terms))))
  terms = [(c, f) for c, f in terms if c]
  denom = lcm(*(c.denominator * f.denom for c, f in terms))
  columns = [_over(f, support, denom, c) for c, f in terms]
  total = (list(map(sum, zip(*columns))) if columns
           else [0] * n_states ** len(support))
  return LocalFunction._exact(support, n_states, base, total, denom)


def add(f, g):
  return _combine(((1, f), (1, g)), f.n_states, f.base)


def sub(f, g):
  return _combine(((1, f), (-1, g)), f.n_states, f.base)


def scale(f: LocalFunction, c) -> LocalFunction:
  return _combine(((c, f),), f.n_states, f.base)


def functions_equal(f: LocalFunction, g: LocalFunction) -> bool:
  # The table format is canonical: equal fields mean equal functions.
  return f == g or sub(f, g).is_zero()


def restrict(f: LocalFunction, region) -> LocalFunction:
  """iota^Region: evaluate with every site outside the region at the base."""
  region = set(region)
  support = tuple(v for v in f.support if v in region)
  return LocalFunction._exact(support, f.n_states, f.base, _gather(f, support),
                              f.denom)


# ---------------------------------------------------------------------------
# Exact-support expansion


def _mobius(values, n_sites: int, n_states: int, base: int) -> list:
  """Yates' subset Moebius transform of a dense table over ``n_sites`` sites.

  For each site in turn, the slices with every other digit there lose the
  slices with the base digit there.  Entry eta of the result is then the
  exact-support piece on the non-base sites of eta, evaluated at eta.
  """
  vals = list(values)
  for k, place in enumerate(digit_powers(n_sites, n_states)):
    for src in _fixed_slices(n_sites, n_states, ((k, base),)):
      for shift in [(d - base) * place for d in range(n_states) if d != base]:
        dst = slice(src.start + shift, src.stop + shift, src.step)
        vals[dst] = map(operator.sub, vals[dst], vals[src])
  return vals


def expansion(f: LocalFunction, budget: int = DEFAULT_BUDGET) -> dict:
  """Exact-support pieces f_L over the subsets L of the support.

  f_L(eta) is the alternating sum of f(eta restricted to L') over L' inside
  L; one subset Moebius transform of f's table yields every piece at once.
  Pieces that vanish identically are dropped; the empty piece is f at the
  all-base configuration.  Summing all pieces over subsets of any region
  recovers iota^Region f.  Pieces come by size, then in ``combinations``
  order.  The budget, by default the configuration budget
  ``DEFAULT_BUDGET`` that the CLI's ``expand`` charges as well, is charged
  for the (1 + |S|)^n entries of all piece tables together.
  """
  n, s, base = len(f.support), f.n_states, f.base
  if (1 + s) ** n > budget:
    raise InputError(f"expansion over {n} sites exceeds the budget")
  table = _mobius(f.nums, n, s, base)
  # The non-base sites of every entry as a bit mask over support positions.
  # One mask's entries, in index order, are its piece's entries with no site
  # at base, and every other entry of that piece is 0.
  masks = _site_sums([[0 if d == base else 1 << k for d in range(s)]
                      for k in range(n)])
  groups = {}
  for m, v in zip(masks, table):
    groups.setdefault(m, []).append(v)
  live = sorted(((tuple(k for k in range(n) if m >> k & 1), vals)
                 for m, vals in groups.items() if any(vals)),
                key=lambda piece: (len(piece[0]), piece[0]))
  nonbase = {}  # per piece size: the count of non-base sites of each entry
  pieces = {}
  for positions, vals in live:
    k = len(positions)
    if k not in nonbase:
      nonbase[k] = _site_sums([[d != base for d in range(s)]] * k)
    entries = iter(vals)
    sub_support = tuple(f.support[p] for p in positions)
    pieces[sub_support] = LocalFunction._exact(
        sub_support, s, base,
        [next(entries) if c == k else 0 for c in nonbase[k]], f.denom)
  return pieces


def reassemble(pieces: dict, region, n_states: int, base: int) -> LocalFunction:
  """Sum of the pieces supported inside the region (= iota^Region of the whole)."""
  region = set(region)
  return _combine(((1, piece) for supp, piece in pieces.items()
                   if set(supp) <= region), n_states, base)


def support_diameter(vertices, locale: Locale) -> int:
  return max((locale.distance(u, v) for u, v in combinations(tuple(vertices), 2)),
             default=0)


def _pieces_radius(pieces, locale: Locale) -> int:
  return max((support_diameter(supp, locale) for supp in pieces), default=0)


def is_uniform(f: LocalFunction, locale: Locale, radius: int) -> dict:
  return _pieces_uniformity(expansion(f), locale, radius)


def _pieces_uniformity(pieces, locale: Locale, radius: int) -> dict:
  offenders = [list(map(locale.encode_vertex, supp))
               for supp in pieces
               if support_diameter(supp, locale) > radius]
  return {"uniform": not offenders, "radius": radius, "offenders": offenders}


def uniformity_criterion(f: LocalFunction, locale: Locale, region, x,
                         radius: int) -> bool:
  """Ball-local test for membership of x-dependence inside radius R.

  Removing x from the region changes iota^Region f exactly as it changes the
  restriction to the R-ball around x (punctured vs. full), whenever f is
  uniform at scale R.
  """
  region = set(region)
  if x not in region:
    raise InputError(f"{x!r} is not in the probed region")
  near = region & set(locale.ball(x, radius))
  return _combine(((1, restrict(f, region)), (-1, restrict(f, region - {x})),
                   (-1, restrict(f, near)), (1, restrict(f, near - {x}))),
                  f.n_states, f.base).is_zero()


# ---------------------------------------------------------------------------
# Forms


@dataclass(frozen=True)
class Form:
  """One local function per directed window edge (missing edges are zero)."""

  n_states: int
  base: int
  fns: dict = field(default_factory=dict)
  radius: int | None = None

  def fn(self, edge) -> LocalFunction:
    """The function on ``edge``: the zero constant if none is stored."""
    return self.fns.get(edge) or constant(0, self.n_states, self.base)


def _edge_slices(support, edge, inter: Interaction) -> tuple:
  """``configspace._move_slices`` of the edge on a table over ``support``."""
  return _move_slices(len(support), support.index(edge[0]),
                      support.index(edge[1]), inter.n_states, inter.moved)


def _least_hit(slices, rows):
  """(table index, slice number) of the least index at which a row is true,
  ``rows[k]`` running along ``slices[k]``; None if no row is."""
  hits = []
  for i, (sl, row) in enumerate(zip(slices, rows)):
    k = next(compress(range(sl.start, sl.stop, sl.step), row), None)
    if k is not None:
      hits.append((k, i))
  return min(hits, default=None)


def gradient(f: LocalFunction, edge, inter: Interaction) -> LocalFunction:
  """nabla_e f: the change of f when the interaction fires across the edge.

  Each move shifts every configuration it fires on by one index jump, so
  the table is one slice subtraction per slice of each move."""
  support = tuple(sorted(set(f.support) | set(edge)))
  nums = _gather(f, support)
  out = [0] * len(nums)
  for src, dst in _edge_slices(support, edge, inter)[0]:
    out[src] = map(operator.sub, nums[dst], nums[src])
  return trim(LocalFunction._exact(support, f.n_states, f.base, out, f.denom))


def differential(f: LocalFunction, window: Window, inter: Interaction) -> Form:
  """df: nabla_e f on every window edge e, in edge order, zeros dropped.

  For an undirected rule (``Interaction.undirected``) both orientations of
  an edge fire the same transitions, and a gradient's table is canonical,
  so nabla_(v,u) f is nabla_(u,v) f: one gradient per edge pair, stored
  under both orientations."""
  grads = {}
  for u, v in window.edges:
    if inter.undirected and (v, u) in grads:
      grads[u, v] = grads[v, u]
    else:
      grads[u, v] = gradient(f, (u, v), inter)
  fns = {e: g for e, g in grads.items() if not g.is_zero()}
  radius = form_radius(Form(inter.n_states, inter.base, fns), window.locale)
  return Form(inter.n_states, inter.base, fns, radius)


def set_distance(first, second, locale: Locale) -> int:
  return min(locale.distance(a, b) for a in first for b in second)


def form_radius(form: Form, locale: Locale) -> int:
  return max((set_distance((x,), e, locale)
              for e, f in form.fns.items() for x in f.support), default=0)


def form_axioms_report(form: Form, window: Window, inter: Interaction) -> dict:
  """Check the three structural form axioms on every stored edge.

  (1) edges that do not move a configuration carry value zero; (2) the value
  flips sign when the move (a, b) -> (c, d) is undone across the reversed
  edge, where phi(d, c) = (b, a), and else across the edge itself (a rule
  valid only in the relaxed sense); (3) two edges incident to a common site
  that produce the same move produce the same value.  Returns the first
  witness of each kind, if any: the least configuration index of the first
  edge in order.  Both are read off the edge's move slices, the still ones
  for (1) and the fired ones for (2).
  """
  vanish = alternation = None
  own = [inter.apply(d, c) != (b, a) for a, b, c, d in inter.moved]
  for e, f in sorted(form.fns.items()):
    u, v = e
    support = tuple(sorted(set(f.support) | {u, v}))
    rev = form.fn((v, u))
    denom = lcm(f.denom, rev.denom)
    vals = _over(f, support, denom)
    back = _over(rev, support, denom)
    fired, still = _edge_slices(support, e, inter)
    # the table each fired slice is undone on (every move has as many slices)
    undo = [vals if o else back for o in own
            for _ in range(len(fired) // len(own))]
    hit = vanish is None and _least_hit(still, (vals[sl] for sl in still))
    if hit:
      vanish = {"edge": _edge_json(window, e),
                "value": fraction_to_str(vals[hit[0]], denom)}
    hit = alternation is None and _least_hit(
        [src for src, _ in fired],
        (map(operator.add, vals[src], t[dst]) for (src, dst), t
         in zip(fired, undo)))
    if hit:
      idx, k = hit
      src, dst = fired[k]
      alternation = {
          "edge": _edge_json(window, e),
          "value": fraction_to_str(vals[idx], denom),
          "reversed_value": fraction_to_str(
              undo[k][idx + dst.start - src.start], denom),
      }

  matching = _matching_witness(form, window, inter)
  ok = vanish is None and alternation is None and matching is None
  return {"ok": ok, "vanishing": vanish, "alternation": alternation,
          "matching_targets": matching}


def _matching_witness(form: Form, window: Window, inter: Interaction):
  """Two stored edges sharing a site that make one move with two values.

  Two moves, one per edge, with one index jump make one move wherever both
  fire: on the slices with both moves' digits at the edges' sites.  The
  witness is the least such configuration index of the first edge pair."""
  edge_list = sorted(form.fns)
  s = inter.n_states
  for i, e1 in enumerate(edge_list):
    for e2 in edge_list[i + 1:]:
      if not set(e1) & set(e2):
        continue
      f1, f2 = form.fns[e1], form.fns[e2]
      support = tuple(sorted(set(f1.support) | set(f2.support) | set(e1) | set(e2)))
      n = len(support)
      powers = digit_powers(n, s)
      (p1, q1), (p2, q2) = ((support.index(u), support.index(v))
                            for u, v in (e1, e2))
      slices = []
      for a, b, c, d in inter.moved:
        jump = (c - a) * powers[p1] + (d - b) * powers[q1]
        for a2, b2, c2, d2 in inter.moved:
          # both moves fire: they agree on the digit of the shared site(s)
          digits = {p1: a, q1: b}
          if ((c2 - a2) * powers[p2] + (d2 - b2) * powers[q2] == jump
              and digits.setdefault(p2, a2) == a2
              and digits.setdefault(q2, b2) == b2):
            slices += _fixed_slices(n, s, tuple(sorted(digits.items())))
      if not slices:
        continue
      denom = lcm(f1.denom, f2.denom)
      b1, b2 = _over(f1, support, denom), _over(f2, support, denom)
      hit = _least_hit(slices,
                       (map(operator.ne, b1[sl], b2[sl]) for sl in slices))
      if hit:
        k = hit[0]
        return {
            "edges": [_edge_json(window, e1), _edge_json(window, e2)],
            "values": [fraction_to_str(b1[k], denom),
                       fraction_to_str(b2[k], denom)],
        }
  return None


def _edge_json(window: Window, edge):
  enc = window.locale.encode_vertex
  return [enc(edge[0]), enc(edge[1])]


# ---------------------------------------------------------------------------
# Closedness / integration


class NotClosedError(WitnessError):
  """Raised when integration meets an inconsistent cycle; carries a witness."""

  message = "form is not closed on this window"


def _potential_scan(form: Form, window: Window, inter: Interaction,
                    budget: int):
  """The potential of a form over the transition graph.

  Pins are the all-base configuration, then the least configuration of
  every other component in order.  Potentials are integer numerators over
  the common denominator of the form's values.  Returns (read, denom,
  pins): ``read(sites)`` is the potential with every window site outside
  ``sites`` at base, as a function of ``sites``, spelled out by ``_expand``
  from the level maps of ``_slab_solve`` over those positions alone; its
  denominator divides ``denom``.  ``read(sites, False)`` is the component
  label from the same maps, an integer.  A form that is not closed raises
  ``NotClosedError`` with a witness cycle.

  Each edge function is read as (window positions, numerators over them):
  every position it reads with the edge's, in order.  ``_slab_solve``
  decides the window slab by slab, whatever the functions read.  Once it
  meets a cycle with a nonzero integral, a breadth-first scan builds the
  witness: seeds are the all-base configuration, then every unreached index
  in order; each popped configuration tries the window edges in order, and
  the scan records the move that first reached each configuration.  A
  potential needs every move undone by some move, so an interaction that is
  not valid raises ``InputError`` naming its one-way transition.
  """
  total = guard_budget(window, inter, budget)
  one_way = check_validity(inter)["relaxed_witness"]
  if one_way is not None:
    raise InputError(f"{inter.name} is not valid: no move undoes "
                     f"{tuple(one_way['from'])} -> {tuple(one_way['to'])}")
  n, s = window.n_sites, inter.n_states
  fns = [form.fn(e) for e in window.edges]
  denom = lcm(*(fn.denom for fn in fns))
  reads = []
  for fn, e in zip(fns, window.edges):
    sites = tuple(sorted({*fn.support, *e}))
    reads.append((tuple(map(window.position, sites)), _over(fn, sites, denom)))
  powers = digit_powers(n, s)
  star = index_of((inter.base,) * n, powers)
  solved = _slab_solve(window, inter, reads)
  if solved is not None:
    maps, reps = solved
    # the all-base configuration's label and potential
    [comp], [shift] = (_expand(maps, s, potential, (), inter.base)
                       for potential in (False, True))
    if shift:  # not its component's least member: pin it there instead
      label, offset = maps[0]
      maps[0] = label, [o - shift if c == comp else o
                        for c, o in zip(label, offset)]

    def read(sites, potential=True):
      sites = tuple(sorted(sites, key=window.position))
      positions = set(map(window.position, sites))
      return LocalFunction._exact(
          sites, s, inter.base,
          _expand(maps, s, potential, positions, inter.base),
          denom if potential else 1)
    return read, denom, [star] + [r for c, r in enumerate(reps) if c != comp]
  table = []  # per edge: its positions, the index jump of each pair, its read
  for k, ((pu, pv), read) in enumerate(zip(edge_positions(window), reads)):
    jumps = [None] * (s * s)
    for a, b, c, d in inter.moved:
      jumps[a * s + b] = (c - a) * powers[pu] + (d - b) * powers[pv]
    table.append((pu, pv, jumps, *read, k))
  # The digits of an index, from small tables of its leading and trailing
  # halves.
  place = s ** (n - n // 2)
  heads = list(product(range(s), repeat=n // 2))
  tails = list(product(range(s), repeat=n - n // 2))

  values = [None] * total
  parent, via = [0] * total, [0] * total  # the move that first reached each
  for seed in chain((star,), range(total)):
    if values[seed] is not None:
      continue
    values[seed] = 0
    queue = deque((seed,))
    while queue:
      idx = queue.popleft()
      val = values[idx]
      digits = heads[idx // place] + tails[idx % place]
      for pu, pv, jumps, pos, nums, k in table:
        j = jumps[digits[pu] * s + digits[pv]]
        if j is None:
          continue
        r = 0
        for p in pos:
          r = r * s + digits[p]
        new = val + nums[r]
        jdx = idx + j
        old = values[jdx]
        if old is None:
          values[jdx] = new
          parent[jdx], via[jdx] = idx, k
          queue.append(jdx)
        elif old != new:
          raise NotClosedError(_build_cycle(
              window, inter, table, (values, parent, via), seed, idx, k, jdx,
              new, denom))


def _build_cycle(window, inter, table, tree, pin, idx, k, jdx, new, denom):
  """A closed walk with nonzero integral out of the scan's tree: the tree
  path from the pin to ``idx``, the closing step along edge number ``k``
  (bringing numerator ``new`` to ``jdx``), and back along jdx's tree path.
  ``tree`` holds the scan's numerators and the source and edge number of
  the move that first reached each index; return arcs are read off
  ``table``."""
  values, parent, via = tree
  n, s = window.n_sites, inter.n_states

  def branch(to):
    steps = []
    while to != pin:
      steps.append((parent[to], via[to], values[to] - values[parent[to]], to))
      to = parent[to]
    return steps[::-1]

  walk = branch(idx) + [(idx, k, new - values[idx], jdx)]
  defect = new - values[jdx]
  for prev, e, step, cur in reversed(branch(jdx)):
    digits = digits_of(cur, n, s)
    back = {f: nums[index_of([digits[p] for p in pos],
                             digit_powers(len(pos), s))]
            for pu, pv, jumps, pos, nums, f in table
            if jumps[digits[pu] * s + digits[pv]] == prev - cur}
    # Retrace along the reversed edge when it undoes the step (for forms
    # satisfying the alternation axiom it undoes the step's value too),
    # else along the first edge in order that does.
    rev = window.edges.index(window.edges[e][::-1])
    rev = rev if rev in back else min(back)
    # A return arc that does not undo its step's value closes a two-step
    # cycle whose integral is nonzero: that cycle is the witness.
    if step + back[rev]:
      walk = [(prev, e, step, cur), (cur, rev, back[rev], prev)]
      defect = step + back[rev]
      break
    walk.append((cur, rev, back[rev], prev))

  return {
      "cycle": [{"config": config_to_json(window, inter, digits_of(src, n, s)),
                 "edge": _edge_json(window, window.edges[e])}
                for src, e, _, _ in walk],
      "integral": fraction_to_str(sum(w[2] for w in walk), denom),
      "defect": fraction_to_str(defect, denom),
  }


def is_closed(form: Form, window: Window, inter: Interaction,
              budget: int = DEFAULT_BUDGET) -> dict:
  try:
    _, _, pins = _potential_scan(form, window, inter, budget)
  except NotClosedError as exc:
    return {"closed": False, "witness": exc.witness}
  return {"closed": True, "witness": None, "n_components": len(pins)}


def integrate(form: Form, window: Window, inter: Interaction,
              budget: int = DEFAULT_BUDGET):
  """Exact potential of a closed form on the window.

  The potential is pinned to zero at the all-base configuration on its
  component and at the least configuration of every other component.
  Raises ``NotClosedError`` (with a witness cycle) otherwise.
  """
  read, _, pins = _potential_scan(form, window, inter, budget)
  return read(window.vertices), {"n_components": len(pins), "pins": pins}


def perturbed(form: Form, window: Window, inter: Interaction, edge,
              cell_assignment: dict, delta) -> Form:
  """Bump one moved cell of one edge function by ``delta``.

  The orientation of the edge that undoes the move (the reversed edge where
  it does, else the edge itself) is adjusted in the opposite direction on
  the image cell, so the alternation axiom survives; closedness does not.
  The cell is given as a sparse {vertex: state_index} assignment and must be
  moved by the edge.
  """
  delta = Fraction(delta)
  u, v = edge
  a, b = (cell_assignment.get(w, inter.base) for w in edge)
  c, d = inter.apply(a, b)
  if (c, d) == (a, b):
    raise InputError("perturbation cell must be moved by the edge")
  back = (v, u) if inter.apply(d, c) == (b, a) else edge
  fs = {e: form.fn(e) for e in (edge, back)}
  common = tuple(sorted({u, v, *cell_assignment,
                         *chain.from_iterable(f.support for f in fs.values())}))
  denom = lcm(*(f.denom for f in fs.values()), delta.denominator)
  step = delta.numerator * (denom // delta.denominator)
  powers = digit_powers(len(common), inter.n_states)
  cell = tuple(cell_assignment.get(w, inter.base) for w in common)
  moved = apply_edge(cell, common.index(u), common.index(v), inter)
  tables = {e: list(_over(f, common, denom)) for e, f in fs.items()}
  tables[edge][index_of(cell, powers)] += step
  tables[back][index_of(moved, powers)] -= step
  fns = dict(form.fns)
  for e, vals in tables.items():
    fns[e] = LocalFunction._exact(common, form.n_states, form.base, vals, denom)
  return Form(form.n_states, form.base, fns, form.radius)


# ---------------------------------------------------------------------------
# JSON


def local_function_to_json(f: LocalFunction, locale: Locale) -> dict:
  text = {k: fraction_to_str(k, f.denom) for k in set(f.nums)}
  return {
      "support": [locale.encode_vertex(v) for v in f.support],
      "values": list(map(text.__getitem__, f.nums)),
  }


def local_function_from_json(obj, locale: Locale, inter: Interaction) -> LocalFunction:
  if (not isinstance(obj, dict) or not isinstance(obj.get("support"), list)
      or not isinstance(obj.get("values"), list)):
    raise InputError(f"bad local function {obj!r}")
  listed = tuple(locale.decode_vertex(v) for v in obj["support"])
  if len(set(listed)) != len(listed):
    raise InputError("local function support has repeated sites")
  # The values follow the listed sites; the table is gathered onto them sorted.
  vals = tuple(fraction_from_str(v) for v in obj["values"])
  return embed(LocalFunction(listed, inter.n_states, inter.base, vals), listed)


def form_to_json(form: Form, window: Window) -> dict:
  edges = [{"e": _edge_json(window, e),
            "fn": local_function_to_json(form.fns[e], window.locale)}
           for e in sorted(form.fns)]
  return {"radius": form.radius, "edges": edges}


def form_from_json(obj, window: Window, inter: Interaction) -> Form:
  if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
    raise InputError(f"bad form payload {obj!r}")
  fns = {}
  dec, edges = window.locale.decode_vertex, set(window.edges)
  for item in obj["edges"]:
    if (not isinstance(item, dict) or "fn" not in item
        or not isinstance(item.get("e"), list) or len(item["e"]) != 2):
      raise InputError(f"bad form edge {item!r}")
    u, v = dec(item["e"][0]), dec(item["e"][1])
    if (u, v) not in edges:
      raise InputError(f"form edge ({u!r}, {v!r}) is not a window edge")
    fns[(u, v)] = local_function_from_json(item["fn"], window.locale, inter)
  radius = obj.get("radius")
  return Form(inter.n_states, inter.base, fns, None if radius is None
              else manifest_int(radius, "form radius", 0))
