"""Local functions, exact-support expansions, and the naive differential.

A ``LocalFunction`` is an exact-rational function of finitely many sites: a
sorted support plus a dense mixed-radix table of values.  Everything here is
Fraction arithmetic; nothing is ever rounded.

The differential of a function along a directed edge e is
``f(eta^e) - f(eta)`` where ``eta^e`` applies the interaction across e.  A
``Form`` assigns one local function per directed window edge; closedness and
integration are decided exactly by scanning the finite configuration graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm

from .configspace import (_site_sums, apply_edge, config_to_json, digit_powers,
                          digits_of, edge_positions, guard_budget, index_of,
                          move_table)
from .interactions import Interaction
from .locales import Locale, Window
from .serialize import (InputError, WitnessError, fraction_from_str,
                        fraction_to_str, manifest_int)

ZERO = Fraction(0)


@dataclass(frozen=True)
class LocalFunction:
  """Exact function of the states at finitely many sites.

  ``values`` holds one Fraction per assignment of states to ``support``, the
  first support vertex being the most significant mixed-radix digit.  The
  empty support encodes a constant.
  """

  support: tuple
  n_states: int
  base: int
  values: tuple

  def __post_init__(self):
    expected = self.n_states ** len(self.support)
    if len(self.values) != expected:
      raise InputError(
          f"value table has {len(self.values)} entries, expected {expected}")

  # -- evaluation -----------------------------------------------------------

  def powers(self):
    return digit_powers(len(self.support), self.n_states)

  def value_at(self, assignment: dict) -> Fraction:
    """Evaluate at {vertex: state_index}; absent sites sit at the base."""
    idx = 0
    for v, p in zip(self.support, self.powers()):
      idx += assignment.get(v, self.base) * p
    return self.values[idx]

  def is_zero(self) -> bool:
    return all(v == 0 for v in self.values)

  def assignments(self):
    """Iterate (digits, value) over the support table."""
    return zip(product(range(self.n_states), repeat=len(self.support)),
               self.values)


def constant(value, n_states: int, base: int) -> LocalFunction:
  return LocalFunction((), n_states, base, (Fraction(value),))


def from_callable(support, n_states: int, base: int, fn) -> LocalFunction:
  support = tuple(sorted(support))
  vals = tuple(Fraction(fn(digits))
               for digits in product(range(n_states), repeat=len(support)))
  return LocalFunction(support, n_states, base, vals)


def _gather(f: LocalFunction, support) -> tuple:
  """f's values on every configuration of ``support`` (sites in any order),
  in index order.  f's sites outside ``support`` sit at base; sites of
  ``support`` that f does not read are ignored."""
  s = f.n_states
  place = dict(zip(f.support, f.powers()))
  inside = set(support)
  offset = f.base * sum(p for v, p in place.items() if v not in inside)
  # The offset rides along as a leading site with a single state.
  index = _site_sums([(offset,)] + [range(0, s * place[v], place[v])
                                    if v in place else (0,) * s
                                    for v in support])
  return tuple(map(f.values.__getitem__, index))


def embed(f: LocalFunction, support) -> LocalFunction:
  """The same function viewed on a larger support."""
  support = tuple(sorted(support))
  if support == f.support:
    return f
  missing = [v for v in f.support if v not in support]
  if missing:
    raise InputError(f"embed target lacks support sites {missing}")
  return LocalFunction(support, f.n_states, f.base, _gather(f, support))


def _depends_on(values, block: int, s: int) -> bool:
  """Does the table change with the digit whose place value is ``block``?

  Compares the value slices of each digit against those of digit zero: one
  contiguous slice per block when blocks are long, one strided slice per
  in-block offset when they are short.
  """
  span = block * s
  if block * span >= len(values):
    return any(values[i + d * block:i + (d + 1) * block] != values[i:i + block]
               for i in range(0, len(values), span) for d in range(1, s))
  return any(values[d * block + i::span] != values[i::span]
             for i in range(block) for d in range(1, s))


def trim(f: LocalFunction) -> LocalFunction:
  """Drop support sites the table does not actually depend on."""
  n = len(f.support)
  if n == 0:
    return f
  s = f.n_states
  pows = f.powers()
  keep = [k for k in range(n) if _depends_on(f.values, pows[k], s)]
  if len(keep) == n:
    return f
  new_support = tuple(f.support[k] for k in keep)
  return LocalFunction(new_support, s, f.base, _gather(f, new_support))


def _binary(f: LocalFunction, g: LocalFunction, op) -> LocalFunction:
  if f.n_states != g.n_states or f.base != g.base:
    raise InputError("mixing local functions over different state alphabets")
  support = tuple(sorted(set(f.support) | set(g.support)))
  fe, ge = embed(f, support), embed(g, support)
  return LocalFunction(support, f.n_states, f.base,
                       tuple(op(a, b) for a, b in zip(fe.values, ge.values)))


def add(f, g):
  return _binary(f, g, lambda a, b: a + b)


def sub(f, g):
  return _binary(f, g, lambda a, b: a - b)


def scale(f: LocalFunction, c) -> LocalFunction:
  c = Fraction(c)
  return LocalFunction(f.support, f.n_states, f.base,
                       tuple(c * v for v in f.values))


def functions_equal(f: LocalFunction, g: LocalFunction) -> bool:
  return sub(f, g).is_zero()


def restrict(f: LocalFunction, region) -> LocalFunction:
  """iota^Region: evaluate with every site outside the region at the base."""
  region = set(region)
  support = tuple(v for v in f.support if v in region)
  return LocalFunction(support, f.n_states, f.base, _gather(f, support))


# ---------------------------------------------------------------------------
# Exact-support expansion


def _subsets(n_sites: int):
  """Position tuples of every subset of ``n_sites`` sites: by size, then in
  ``combinations`` order."""
  return chain.from_iterable(combinations(range(n_sites), size)
                             for size in range(n_sites + 1))


def _mobius(values, n_sites: int, n_states: int, base: int) -> list:
  """Yates' subset Moebius transform of a dense table over ``n_sites`` sites.

  For each site in turn, every entry where that site is not at base loses
  the entry with that site set to base.  Entry eta of the result is then the
  exact-support piece on the non-base sites of eta, evaluated at eta.
  """
  vals = list(values)
  for place in digit_powers(n_sites, n_states):
    for idx in range(len(vals)):
      d = idx // place % n_states
      if d != base:
        vals[idx] -= vals[idx + (base - d) * place]
  return vals


def _piece(table, positions, n_sites: int, n_states: int, base: int) -> tuple:
  """The piece on the sites at ``positions`` of a Moebius-transformed table,
  as a dense table over those sites: zero wherever one of them is at base."""
  powers = digit_powers(n_sites, n_states)
  origin = base * sum(powers)
  places = [powers[k] for k in positions]
  vals = []
  for digits in product(range(n_states), repeat=len(places)):
    if base in digits:
      vals.append(ZERO)
    else:
      vals.append(table[origin + sum((d - base) * p
                                     for d, p in zip(digits, places))])
  return tuple(vals)


def expansion(f: LocalFunction, budget: int = 1 << 22) -> dict:
  """Exact-support pieces f_L over the subsets L of the support.

  f_L(eta) is the alternating sum of f(eta restricted to L') over L' inside
  L; one subset Moebius transform of f's table yields every piece at once.
  Pieces that vanish identically are dropped; the empty piece is f at the
  all-base configuration.  Summing all pieces over subsets of any region
  recovers iota^Region f.  Pieces come by size, then in ``combinations``
  order.  The budget is charged for the (1 + |S|)^n entries of all piece
  tables together.
  """
  n = len(f.support)
  if (1 + f.n_states) ** n > budget:
    raise InputError(f"expansion over {n} sites exceeds the budget")
  table = _mobius(f.values, n, f.n_states, f.base)
  pieces = {}
  for positions in _subsets(n):
    sub_support = tuple(f.support[k] for k in positions)
    piece = LocalFunction(sub_support, f.n_states, f.base,
                          _piece(table, positions, n, f.n_states, f.base))
    if not piece.is_zero():
      pieces[sub_support] = piece
  return pieces


def reassemble(pieces: dict, region, n_states: int, base: int) -> LocalFunction:
  """Sum of the pieces supported inside the region (= iota^Region of the whole)."""
  region = set(region)
  total = constant(0, n_states, base)
  for supp, piece in pieces.items():
    if set(supp) <= region:
      total = add(total, piece)
  return total


def support_diameter(vertices, locale: Locale) -> int:
  verts = tuple(vertices)
  best = 0
  for i in range(len(verts)):
    for j in range(i + 1, len(verts)):
      best = max(best, locale.distance(verts[i], verts[j]))
  return best


def exact_support_radius(f: LocalFunction, locale: Locale) -> int:
  """Largest diameter among the exact-support pieces of f."""
  return _pieces_radius(expansion(f), locale)


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
  ball = set(locale.ball(x, radius))
  lhs = sub(restrict(f, region), restrict(f, region - {x}))
  rhs = sub(restrict(f, region & ball), restrict(f, (region & ball) - {x}))
  return sub(lhs, rhs).is_zero()


# ---------------------------------------------------------------------------
# Forms


@dataclass(frozen=True)
class Form:
  """One local function per directed window edge (missing edges are zero)."""

  n_states: int
  base: int
  fns: dict = field(default_factory=dict)
  radius: int | None = None

  def fn(self, edge) -> LocalFunction | None:
    return self.fns.get(edge)

  def edges(self):
    return sorted(self.fns)


def form_add(a: Form, b: Form, radius=None) -> Form:
  fns = dict(a.fns)
  for e, f in b.fns.items():
    fns[e] = add(fns[e], f) if e in fns else f
  fns = {e: trim(f) for e, f in fns.items()}
  fns = {e: f for e, f in fns.items() if not f.is_zero()}
  return Form(a.n_states, a.base, fns, radius)


def form_scale(a: Form, c) -> Form:
  c = Fraction(c)
  if c == 0:
    return Form(a.n_states, a.base, {}, a.radius)
  return Form(a.n_states, a.base, {e: scale(f, c) for e, f in a.fns.items()},
              a.radius)


def form_sub(a: Form, b: Form, radius=None) -> Form:
  return form_add(a, form_scale(b, -1), radius)


def _denominator(values) -> int:
  """The least common denominator of exact values."""
  return lcm(*{v.denominator for v in values})


def _numerators(values, denom: int) -> list:
  """Exact values as integer numerators over the common ``denom``."""
  return [v.numerator * (denom // v.denominator) for v in values]


def _fractions(nums, denom: int) -> tuple:
  """Back from numerators over ``denom``: one Fraction per distinct value."""
  cache = {v: Fraction(v, denom) for v in set(nums)}
  return tuple(map(cache.__getitem__, nums))


def _edge_jumps(support, edge, inter: Interaction) -> list:
  """The index jump of the move across ``edge`` at every configuration of
  the support, in index order (None where the pair stays put)."""
  pu, pv = support.index(edge[0]), support.index(edge[1])
  ((_, _, jumps),) = move_table(((pu, pv),), len(support), inter)
  s = inter.n_states
  codes = _site_sums([range(0, s * s, s) if k == pu else
                      range(s) if k == pv else (0,) * s
                      for k in range(len(support))])
  return [jumps[code] for code in codes]


def gradient(f: LocalFunction, edge, inter: Interaction) -> LocalFunction:
  """nabla_e f: the change of f when the interaction fires across the edge."""
  support = tuple(sorted(set(f.support) | set(edge)))
  values = embed(f, support).values
  denom = _denominator(values)
  nums = _numerators(values, denom)
  out = [0] * len(nums)
  for idx, j in enumerate(_edge_jumps(support, edge, inter)):
    if j is not None:
      out[idx] = nums[idx + j] - nums[idx]
  return trim(LocalFunction(support, f.n_states, f.base,
                            _fractions(out, denom)))


def differential(f: LocalFunction, window: Window, inter: Interaction,
                 radius: int | None = None) -> Form:
  fns = {}
  for e in window.edges:
    g = gradient(f, e, inter)
    if not g.is_zero():
      fns[e] = g
  form = Form(inter.n_states, inter.base, fns, radius)
  if radius is None:
    form = Form(inter.n_states, inter.base, fns, form_radius(form, window.locale))
  return form


def edge_distance(x, edge, locale: Locale) -> int:
  return min(locale.distance(x, edge[0]), locale.distance(x, edge[1]))


def form_radius(form: Form, locale: Locale) -> int:
  r = 0
  for e, f in form.fns.items():
    for x in f.support:
      r = max(r, edge_distance(x, e, locale))
  return r


def form_axioms_report(form: Form, window: Window, inter: Interaction) -> dict:
  """Check the three structural form axioms on every stored edge.

  (1) edges that do not move a configuration carry value zero; (2) the value
  flips sign when the move is undone across the reversed edge; (3) two edges
  incident to a common site that produce the same move produce the same
  value.  Returns the first witness of each kind, if any.
  """
  vanish = alternation = None
  for e, f in sorted(form.fns.items()):
    u, v = e
    support = tuple(sorted(set(f.support) | {u, v}))
    vals = embed(f, support).values
    rev = form.fn((v, u))
    back = embed(rev, support).values if rev is not None else (ZERO,) * len(vals)
    denom = _denominator(vals + back)
    vals, back = _numerators(vals, denom), _numerators(back, denom)
    for idx, j in enumerate(_edge_jumps(support, e, inter)):
      val = vals[idx]
      if j is None:
        if val != 0 and vanish is None:
          vanish = {"edge": _edge_json(window, e),
                    "value": fraction_to_str(Fraction(val, denom))}
      elif back[idx + j] != -val and alternation is None:
        alternation = {
            "edge": _edge_json(window, e),
            "value": fraction_to_str(Fraction(val, denom)),
            "reversed_value": fraction_to_str(Fraction(back[idx + j], denom)),
        }

  matching = _matching_witness(form, window, inter)
  ok = vanish is None and alternation is None and matching is None
  return {"ok": ok, "vanishing": vanish, "alternation": alternation,
          "matching_targets": matching}


def _matching_witness(form: Form, window: Window, inter: Interaction):
  """Two stored edges sharing a site that make one move with two values."""
  edge_list = sorted(form.fns)
  for i, e1 in enumerate(edge_list):
    for e2 in edge_list[i + 1:]:
      if not set(e1) & set(e2):
        continue
      f1, f2 = form.fns[e1], form.fns[e2]
      support = tuple(sorted(set(f1.support) | set(f2.support) | set(e1) | set(e2)))
      b1, b2 = embed(f1, support).values, embed(f2, support).values
      jumps = zip(_edge_jumps(support, e1, inter),
                  _edge_jumps(support, e2, inter))
      for k, (j1, j2) in enumerate(jumps):
        if j1 is not None and j1 == j2 and b1[k] != b2[k]:
          return {
              "edges": [_edge_json(window, e1), _edge_json(window, e2)],
              "values": [fraction_to_str(b1[k]), fraction_to_str(b2[k])],
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


def _step_edge(window: Window, moves, n_states: int, source: int,
                  target: int):
  """The first directed edge whose move maps configuration index ``source``
  to ``target``, or None."""
  s = n_states
  digits = digits_of(source, window.n_sites, s)
  for e, (pu, pv, jumps) in zip(window.edges, moves):
    if jumps[digits[pu] * s + digits[pv]] == target - source:
      return e
  return None


def _edge_steps(fn, window: Window, pu: int, pv: int, s: int, denom: int):
  """How the potential scan reads one edge function at a configuration.

  Returns (steps, runs).  When the function reads at most the edge's own two
  sites, ``steps[a * s + b]`` is its numerator at the pair (a, b) and
  ``runs`` is None.  Otherwise ``steps`` is its whole numerator table, and
  each run (place, size, weight) of consecutive window positions adds
  ``index // place % size * weight`` to the table index.
  """
  if fn is None:
    return (0,) * (s * s), None
  pos = [window.position(x) for x in fn.support]
  if set(pos) <= {pu, pv}:
    pair = (window.vertices[pu], window.vertices[pv])
    return tuple(_numerators(_gather(fn, pair), denom)), None
  nums = _numerators(fn.values, denom)
  weights = fn.powers()
  runs = []
  start = 0
  while start < len(pos):
    end = start
    while end + 1 < len(pos) and pos[end + 1] == pos[end] + 1:
      end += 1
    runs.append((s ** (window.n_sites - 1 - pos[end]), s ** (end - start + 1),
                 weights[end]))
    start = end + 1
  return nums, tuple(runs)


def _potential_scan(form: Form, window: Window, inter: Interaction,
                    budget: int):
  """Breadth-first potential over the transition graph.

  Seeds are the all-base configuration, then every unreached index in
  order; each popped configuration tries the window edges in order.
  Potentials are integer numerators over the common denominator of the
  form's values.  Returns (numerators, denominator, pins, witness).
  """
  total = guard_budget(window, inter, budget)
  n, s = window.n_sites, inter.n_states
  moves = move_table(edge_positions(window), n, inter)
  fns = [form.fn(e) for e in window.edges]
  denom = _denominator([v for fn in fns if fn is not None for v in fn.values])
  table = [(pu, pv, jumps, *_edge_steps(fn, window, pu, pv, s, denom), e)
           for (pu, pv, jumps), fn, e in zip(moves, fns, window.edges)]
  # The digits of an index, from small tables of its leading and trailing
  # halves.
  place = s ** (n - n // 2)
  heads = list(product(range(s), repeat=n // 2))
  tails = list(product(range(s), repeat=n - n // 2))

  values = [None] * total
  parent = [None] * total
  pins = []
  star = index_of((inter.base,) * n, digit_powers(n, s))
  for seed in chain((star,), range(total)):
    if values[seed] is not None:
      continue
    values[seed] = 0
    pins.append(seed)
    queue = deque((seed,))
    while queue:
      idx = queue.popleft()
      val = values[idx]
      digits = heads[idx // place] + tails[idx % place]
      for pu, pv, jumps, steps, runs, e in table:
        code = digits[pu] * s + digits[pv]
        j = jumps[code]
        if j is None:
          continue
        if runs is None:
          new = val + steps[code]
        else:
          k = 0
          for p, size, w in runs:
            k += idx // p % size * w
          new = val + steps[k]
        jdx = idx + j
        old = values[jdx]
        if old is None:
          values[jdx] = new
          parent[jdx] = idx
          queue.append(jdx)
        elif old != new:
          witness = _build_cycle(form, window, inter, moves, parent, pins[-1],
                                 idx, e, jdx, Fraction(new - old, denom))
          return None, denom, None, witness
  return values, denom, pins, None


def _build_cycle(form, window, inter, moves, parent, pin, idx, edge, jdx,
                 defect):
  """Assemble a closed walk with nonzero integral out of two BFS branches."""
  n, s = window.n_sites, inter.n_states

  def branch(to):
    steps = []
    cur = to
    while cur != pin and parent[cur] is not None:
      prev = parent[cur]
      # The scan reached ``cur`` by the first edge in order that moves there.
      steps.append((prev, _step_edge(window, moves, s, prev, cur), cur))
      cur = prev
    return list(reversed(steps))

  edge_index = {e: k for k, e in enumerate(window.edges)}
  walk = branch(idx) + [(idx, edge, jdx)]
  back = []
  for prev, e, cur in reversed(branch(jdx)):
    # Retrace along the reversed arc of the forward step, so that for forms
    # satisfying the alternation axiom the return integral is exactly the
    # negative of the outgoing one.  (Several arcs can realize the same
    # transition; only the partner arc has that property.)
    partner = (e[1], e[0])
    pu, pv, jumps = moves[edge_index[partner]]
    digits = digits_of(cur, n, s)
    if jumps[digits[pu] * s + digits[pv]] == prev - cur:
      rev = partner
    else:
      rev = _step_edge(window, moves, s, cur, prev)
    if rev is None:
      # No reverse arc: the interaction is not valid in the relaxed sense;
      # report the one-way transition itself.
      rev = e
    back.append((cur, rev, prev))
  walk += back

  steps_json = []
  integral = ZERO
  for source, e, _target in walk:
    digits = digits_of(source, n, s)
    fn = form.fn(e)
    if fn is not None:
      integral += fn.value_at(dict(zip(window.vertices, digits)))
    steps_json.append({
        "config": config_to_json(window, inter, digits),
        "edge": _edge_json(window, e),
    })
  return {
      "cycle": steps_json,
      "integral": fraction_to_str(integral),
      "defect": fraction_to_str(defect),
  }


def is_closed(form: Form, window: Window, inter: Interaction,
              budget: int = 2_000_000) -> dict:
  _, _, pins, witness = _potential_scan(form, window, inter, budget)
  if witness is not None:
    return {"closed": False, "witness": witness}
  return {"closed": True, "witness": None, "n_components": len(pins)}


def integrate(form: Form, window: Window, inter: Interaction,
              budget: int = 2_000_000):
  """Exact potential of a closed form on the window.

  The potential is pinned to zero at the all-base configuration on its
  component and at the least configuration of every other component.
  Raises ``NotClosedError`` (with a witness cycle) otherwise.
  """
  values, denom, pins, witness = _potential_scan(form, window, inter, budget)
  if witness is not None:
    raise NotClosedError(witness)
  f = LocalFunction(window.vertices, inter.n_states, inter.base,
                    _fractions(values, denom))
  return f, {"n_components": len(pins), "pins": pins}


def perturbed(form: Form, window: Window, inter: Interaction, edge,
              cell_assignment: dict, delta) -> Form:
  """Bump one moved cell of one edge function by ``delta``.

  The reversed edge is adjusted in the opposite direction on the image cell,
  so the alternation axiom survives; closedness does not.  The cell is given
  as a sparse {vertex: state_index} assignment and must be moved by the edge.
  """
  delta = Fraction(delta)
  u, v = edge
  f = form.fn(edge) or constant(0, inter.n_states, inter.base)
  rev = form.fn((v, u)) or constant(0, inter.n_states, inter.base)
  common = tuple(sorted(set(f.support) | set(rev.support) | {u, v}
                        | set(cell_assignment)))
  fe, re = embed(f, common), embed(rev, common)
  pu, pv = common.index(u), common.index(v)
  cell = tuple(cell_assignment.get(w, inter.base) for w in common)
  moved = apply_edge(cell, pu, pv, inter)
  if moved == cell:
    raise InputError("perturbation cell must be moved by the edge")
  powers = fe.powers()
  vals = list(fe.values)
  vals[index_of(cell, powers)] += delta
  rvals = list(re.values)
  rvals[index_of(moved, powers)] -= delta
  fns = dict(form.fns)
  fns[edge] = LocalFunction(common, f.n_states, f.base, tuple(vals))
  fns[(v, u)] = LocalFunction(common, rev.n_states, rev.base, tuple(rvals))
  return Form(form.n_states, form.base, fns, form.radius)


# ---------------------------------------------------------------------------
# JSON


def local_function_to_json(f: LocalFunction, locale: Locale) -> dict:
  return {
      "support": [locale.encode_vertex(v) for v in f.support],
      "values": [fraction_to_str(v) for v in f.values],
  }


def local_function_from_json(obj, locale: Locale, inter: Interaction) -> LocalFunction:
  if (not isinstance(obj, dict) or not isinstance(obj.get("support"), list)
      or not isinstance(obj.get("values"), list)):
    raise InputError(f"bad local function {obj!r}")
  support = tuple(sorted(locale.decode_vertex(v) for v in obj["support"]))
  if len(set(support)) != len(support):
    raise InputError("local function support has repeated sites")
  vals = tuple(fraction_from_str(v) for v in obj["values"])
  return LocalFunction(support, inter.n_states, inter.base, vals)


def form_to_json(form: Form, window: Window) -> dict:
  enc = window.locale.encode_vertex
  edges = []
  for e in sorted(form.fns):
    edges.append({
        "e": [enc(e[0]), enc(e[1])],
        "fn": local_function_to_json(form.fns[e], window.locale),
    })
  return {"radius": form.radius, "edges": edges}


def form_from_json(obj, window: Window, inter: Interaction) -> Form:
  if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
    raise InputError(f"bad form payload {obj!r}")
  fns = {}
  dec = window.locale.decode_vertex
  for item in obj["edges"]:
    if (not isinstance(item, dict) or "fn" not in item
        or not isinstance(item.get("e"), list) or len(item["e"]) != 2):
      raise InputError(f"bad form edge {item!r}")
    u, v = dec(item["e"][0]), dec(item["e"][1])
    if (u, v) not in set(window.edges):
      raise InputError(f"form edge ({u!r}, {v!r}) is not a window edge")
    fns[(u, v)] = local_function_from_json(item["fn"], window.locale, inter)
  radius = obj.get("radius")
  return Form(inter.n_states, inter.base, fns, None if radius is None
              else manifest_int(radius, "form radius", 0))
