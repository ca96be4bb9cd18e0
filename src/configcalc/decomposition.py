"""Splitting shift-invariant closed forms into an exact part and a flux part.

The translation group of a lattice locale acts on functions and forms.  Every
shift-invariant closed form that is local at scale R decomposes -- on a
window, up to the stated margins -- as

    omega  =  sum of translates of d(f)  +  omega_rho

where f is a local function and omega_rho is the canonical flux form of a
rational matrix rho pairing conserved quantities with translation
generators.  The matrix is recovered exactly from translation defects:
potential differences between a configuration and its translate, read off
one potential solve per generator on the small window its probes travel.
The local part is recovered by integrating on a budgeted central
sub-window, removing the pairing defect, and averaging exact-support pieces
over translation orbits.  The defining identity is then re-verified edge by
edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add, mul, sub as minus

from .calculus import (Form, LocalFunction, _combine, _edge_json, _on_support,
                       _potential_scan, constant, differential, expansion,
                       form_axioms_report, functions_equal, gradient,
                       is_closed, restrict, support_diameter, sub, trim)
from .cohomology import (SplittingInfeasible, _pairing, _quantity_corrected,
                         check_pairing_laws, compute_pairing, default_probes,
                         inversion_count_function, ordered_flux_form,
                         pairing_table_to_json, solve_splitting)
from .configspace import DEFAULT_BUDGET, _require_conserved, guard_budget
from .interactions import Interaction, conserved_basis, multispecies
from .linalg import _integer_row, rref
from .locales import (Euclidean, Hexagonal, LatticeLocale, Window, _layers,
                      box, window as build_window)
from .serialize import (InputError, WitnessError, fraction_from_str,
                        fraction_to_str)

ZERO = Fraction(0)
DEFAULT_SUB_BUDGET = 65536


class NotShiftInvariant(WitnessError):
  message = "form is not invariant under the translation action"


class InconsistentCocycle(WitnessError):
  message = ("translation defects are not spanned by the conserved "
             "quantities")


# ---------------------------------------------------------------------------
# Translation actions


@dataclass(frozen=True)
class TranslationAction:
  """A finite-index translation subgroup of a lattice locale.

  ``generators`` are integer coordinate vectors; they must be linearly
  independent and as many as the locale has coordinates, so tiles of a
  fundamental domain can be solved for exactly.
  """

  locale: LatticeLocale
  generators: tuple

  def __post_init__(self):
    if not isinstance(self.locale, LatticeLocale):
      raise InputError("translation actions need a lattice locale")
    d = self.locale.coord_dim()
    if len(self.generators) != d:
      raise InputError(f"need exactly {d} generators for {self.locale.name}")
    for g in self.generators:
      if len(g) != d:
        raise InputError("generator length does not match the locale")
    # The generators are the matrix's columns.  At full rank, reducing
    # [matrix | identity] leaves its inverse on the right, kept as integer
    # numerators over one denominator.
    rows = [dict(enumerate(list(row) + [int(i == k) for k in range(d)]))
            for i, row in enumerate(zip(*self.generators))]
    reduced, pivots, _ = rref(rows, d)
    if len(pivots) < d:
      raise InputError("translation generators are linearly dependent")
    nums, denom = _integer_row(row.get(d + k, 0)
                               for row in reduced for k in range(d))
    object.__setattr__(self, "_inverse", tuple(
        tuple(nums[i:i + d]) for i in range(0, d * d, d)))
    object.__setattr__(self, "_denom", denom)
    object.__setattr__(self, "_reduced", {})

  @property
  def rank(self) -> int:
    return len(self.generators)

  def shift_of(self, coeffs) -> tuple:
    return tuple(sum(map(mul, coeffs, col)) for col in zip(*self.generators))

  def reduce(self, x) -> tuple:
    """``(coeffs, rep)``: the floor of x's coordinate in the generators, and
    x moved back by that shift, so rep's coefficients lie in [0, 1).  Two
    vertices share a rep exactly when a shift carries one to the other, by
    the difference of their coeffs.  Each vertex is reduced once per action."""
    if x not in self._reduced:
      c = self.locale.coord(x)
      coeffs = tuple(sum(map(mul, row, c)) // self._denom
                     for row in self._inverse)
      self._reduced[x] = coeffs, self.locale.with_coord(
          x, tuple(map(minus, c, self.shift_of(coeffs))))
    return self._reduced[x]

  def carry(self, sources, targets) -> list:
    """(k_y - k_x, x, y), the shift carrying x onto y, for each target y and
    then source x, in the order given, that share a rep (``reduce``)."""
    tails = [(x, *self.reduce(x)) for x in sources]
    heads = [(y, *self.reduce(y)) for y in targets]
    return [(tuple(map(minus, ky, kx)), x, y)
            for y, ky, ry in heads for x, kx, rx in tails if rx == ry]

  def act_vertex(self, x, shift):
    return self.locale.translate(x, shift)

  def max_step(self) -> int:
    """Largest graph distance a single generator moves a vertex."""
    # lattice kinds: plain coordinate tuples, except the honeycomb's site flag
    probe = ((0, 0, 0) if isinstance(self.locale, Hexagonal)
             else (0,) * self.locale.coord_dim())
    return max(self.locale.distance(probe, self.locale.translate(probe, g))
               for g in self.generators)


def translate_function(action: TranslationAction, f: LocalFunction,
                       shift) -> LocalFunction:
  """The translate of f: reads its sites at positions shifted by ``shift``.
  The table is f's, already in lowest terms, so only the support moves."""
  support = tuple(action.act_vertex(v, shift) for v in f.support)
  if tuple(sorted(support)) != support:  # lattice shifts preserve order
    raise RuntimeError(f"translating by {shift} reorders the support")
  return _on_support(f, support)


# ---------------------------------------------------------------------------
# Tilings by a fundamental domain


def tile_of(action: TranslationAction, x, domain) -> tuple:
  """The unique (coeffs, anchor) with x = anchor translated by the coeffs:
  the domain vertices that ``carry`` onto x, in domain order."""
  hits = [(coeffs, v) for coeffs, v, _ in action.carry(domain, (x,))]
  if not hits:
    raise InputError(f"vertex {x!r} is not covered by the domain tiling")
  if len(hits) > 1:
    raise InputError(f"domain translates overlap at {x!r}: not a tiling")
  return hits[0]


# ---------------------------------------------------------------------------
# The flux form of a cocycle matrix


def _tile_weights(a_matrix, action: TranslationAction, domain, window: Window,
                  inter: Interaction, basis):
  """theta: x -> the one-site table d -> sum_j tau(x)_j g_j(d) over one
  denominator, with g_j(d) = sum_i a[i][j] basis[i][d] and tau(x) the tile
  index of x (``tile_of``).  Refused in turn: a basis some move does not
  conserve, as ``fibers_report`` refuses it; a matrix of the wrong shape;
  the first window vertex the domain does not tile."""
  _require_conserved(inter, basis)
  if len(a_matrix) != len(basis):
    raise InputError("cocycle matrix needs one row per conserved quantity")
  if any(len(row) != action.rank for row in a_matrix):
    raise InputError("cocycle matrix needs one column per generator")
  s = inter.n_states
  nums, denom = _integer_row(
      sum((Fraction(row[j]) * vec[d] for row, vec in zip(a_matrix, basis)),
          ZERO) for j in range(action.rank) for d in range(s))
  g = [nums[i:i + s] for i in range(0, len(nums), s)]
  for x in window.vertices:
    tile_of(action, x, domain)

  def theta(x) -> LocalFunction:
    tau = tile_of(action, x, domain)[0]
    return LocalFunction._exact((x,), s, inter.base,
                                [sum(map(mul, tau, col)) for col in zip(*g)],
                                denom)
  return theta


def build_omega_rho(a_matrix, action: TranslationAction, domain,
                    window: Window, inter: Interaction, basis) -> Form:
  """The canonical flux form of the matrix ``a``: each jump moves quantity
  between tiles weighted by the tile indices.  Radius zero by construction.

  Across (u, v) it is the gradient of theta_u + theta_v (``_tile_weights``),
  the form synthesized from the zero function.  For a conserved basis it is
  sum_j (tau(v)_j - tau(u)_j) (g_j(d) - g_j(b)) at each pair (a, b) with
  (c, d) = phi(a, b): it reads the edge alone.
  """
  zero = constant(0, inter.n_states, inter.base)
  return replace(synthesized_form(zero, a_matrix, action, domain, window,
                                  inter, basis), radius=0)


# ---------------------------------------------------------------------------
# Shift invariance


def interior_vertices(window: Window, pad: int) -> set:
  """Vertices whose pad-ball stays inside the window: those more than pad
  steps from every vertex outside it: the window less the first pad layers
  of one layered search (``locales._layers``) through the window from its
  rim, the vertices with a neighbour outside it."""
  rim = [x for x in window.vertices
         if any(y not in window for y in window.locale.neighbors(x))]
  near = zip(range(pad), _layers(window.neighbors_in, rim))
  return set(window.vertices).difference(*(layer for _, (layer, _) in near))


def _difference_witness(window: Window, edge, diff: LocalFunction,
                        inter: Interaction) -> dict:
  """The first nonzero entry of ``diff``, the mismatch on ``edge``, with the
  sites' state values."""
  digits, val = next((dg, val) for dg, val in diff.assignments() if val != 0)
  return {
      "edge": _edge_json(window, edge),
      "sites": [window.locale.encode_vertex(x) for x in diff.support],
      "states": [inter.states[d] for d in digits],
      "difference": fraction_to_str(val),
  }


def is_shift_invariant(form: Form, window: Window, inter: Interaction,
                       action: TranslationAction, pad: int | None = None) -> dict:
  """Compare each interior edge function against its generator translate;
  the first mismatch is the witness, in ``inter``'s state values."""
  if pad is None:
    pad = form.radius if form.radius is not None else 0
  inner = interior_vertices(window, pad + action.max_step())
  checked = 0
  for j, g in enumerate(action.generators):
    back = tuple(-a for a in g)
    for (u, v) in window.edges:
      if u not in inner or v not in inner:
        continue
      f1 = form.fn((u, v))
      f0 = form.fn((action.act_vertex(u, back), action.act_vertex(v, back)))
      shifted = translate_function(action, f0, g)
      checked += 1
      if not functions_equal(f1, shifted):
        witness = _difference_witness(window, (u, v),
                                      trim(sub(f1, shifted)), inter)
        return {"invariant": False, "checked": checked,
                "witness": {"generator": j, **witness}}
  return {"invariant": True, "checked": checked, "witness": None}


# ---------------------------------------------------------------------------
# Cocycle extraction


def extract_cocycle(form: Form, window: Window, inter: Interaction, basis,
                    action: TranslationAction) -> dict:
  """Recover the cocycle matrix from translation defects of the potential.

  A probe's defect is v(target) - v(source), the potential difference of a
  configuration and its translate by a generator g: the integral of the
  form along any transition path between the two.  Single-site probes carry
  each state from the center moved back by g to the center and determine
  the matrix; two-site probes also carry a state from the center moved by g
  to the center moved by 2g, when the window holds both, and cross-check
  linearity.  Each generator's defects come from one potential solve
  (``calculus._potential_scan``, charged to ``DEFAULT_BUDGET``) on its probe
  window: the window paths (``Window.path_between``) its probes travel, with
  the form restricted there.  Its labels, from the same level maps, must put
  a probe's two configurations in one component; a probe that no transition
  path on the probe window carries is refused.  A form that is not closed
  on the probe window raises ``NotClosedError``.
  """
  c = len(basis)
  d = action.rank
  if c == 0:
    return {"a": [], "probes": 0, "cross_checks": 0}
  center = window.center
  enc = window.locale.encode_vertex
  a_cols = []
  cross = 0
  states = [s for s in range(inter.n_states) if s != inter.base]
  for j, g in enumerate(action.generators):
    back = tuple(-a for a in g)
    x_prev = action.act_vertex(center, back)
    if x_prev not in window:
      raise InputError("window too small to probe the translation defect")
    x1 = action.act_vertex(center, tuple(2 * a for a in g))
    x1p = action.act_vertex(x1, back)
    legs = [(x_prev, center)]
    if x1 in window and x1p in window:
      legs.append((x1p, x1))
    probe_win = build_window(window.locale, {
        v for x, y in legs for v in window.path_between(x, y)})
    read, _, _ = _potential_scan(
        Form(inter.n_states, inter.base,
             {e: restrict(form.fn(e), probe_win.vertices)
              for e in probe_win.edges}, form.radius),
        probe_win, inter, DEFAULT_BUDGET)
    ends = [v for leg in legs for v in leg]
    values, labels = read(ends), read(ends, False)

    def defect(*carried):
      """v(target) - v(source), state carried[k] travelling legs[k]."""
      source = {x: s for s, (x, _) in zip(carried, legs)}
      target = {y: s for s, (_, y) in zip(carried, legs)}
      if labels.value_at(source) != labels.value_at(target):
        raise InputError(
            "cocycle extraction: no transition path on the probe window "
            f"{list(map(enc, probe_win.vertices))} carries " + " and ".join(
                f"state {inter.states[s]!r} from {enc(x)} to {enc(y)}"
                for s, (x, y) in zip(carried, legs)))
      return values.value_at(target) - values.value_at(source)

    rows = [dict(enumerate([vec[s] for vec in basis] + [defect(s)]))
            for s in states]
    # The defects must lie in the span of the quantities.
    reduced, pivots, _ = rref(rows, c)
    if any(c in row for row in reduced[len(pivots):]):
      raise InconsistentCocycle({
          "generator": j,
          "reason": "single-site defects outside the quantity span",
      })
    col = [ZERO] * c
    for row, p in zip(reduced, pivots):
      col[p] = row.get(c, ZERO)
    a_cols.append(col)
    # linearity cross-checks on two-site configurations
    if len(legs) == 1:
      continue
    for s in states:
      for t in states:
        measured = defect(s, t)
        predicted = sum(col[i] * (basis[i][s] + basis[i][t]) for i in range(c))
        cross += 1
        if measured != predicted:
          raise InconsistentCocycle({
              "generator": j,
              "states": [inter.states[s], inter.states[t]],
              "measured": fraction_to_str(measured),
              "predicted": fraction_to_str(predicted),
          })
  a_matrix = [[a_cols[j][i] for j in range(d)] for i in range(c)]
  return {"a": a_matrix, "probes": len(states) * d, "cross_checks": cross}


# ---------------------------------------------------------------------------
# Synthesis (sums of translates) and the main decomposition


def translates_meeting(action: TranslationAction, f: LocalFunction, targets):
  """All lattice shifts tau whose translate of supp(f) meets ``targets``."""
  return sorted({coeffs for coeffs, _, _ in action.carry(f.support, targets)})


def _translate_gradient_sums(action: TranslationAction, f: LocalFunction,
                             edges, win_set, inter: Interaction,
                             theta) -> dict:
  """Per edge e = (u, v), the flux nabla_e(theta_u + theta_v) plus the sum
  over the translates tau f that meet e of nabla_e(tau f restricted to the
  window), trimmed.

  The sum is translation-equivariant: if e = sigma e0, the translates
  meeting e are those meeting e0 moved by sigma, and the flux at e is the
  flux at e0 moved by sigma, since it reads tau(v) - tau(u) alone.  With
  each vertex reduced to (k, rep), the orbit of (u, v) is keyed by
  (rep_u, rep_v, k_v - k_u); its representative e0, (u, v) moved back by
  k_u, the translates meeting e0 and the flux on e0 are found once per
  orbit.  Their site y lands at k_u on the vertex reduced to
  (k_y + k_u, rep_y), so the window keeps it when that is a window vertex's
  reduction.  The sum is built on e0 once per (orbit, kept sites) key, one
  gradient per translate restricted to the kept sites plus the flux, and
  translated to each edge of the key.

  For an undirected rule (``Interaction.undirected``) the sum on (v, u) is
  the sum on (u, v): the same translates meet both, their gradients are the
  same, and theta_u + theta_v is symmetric.  So an edge whose reversed edge
  already has its sum takes that one, and its orbit is never built.
  """
  in_window = set(map(action.reduce, win_set))
  shifts = {x: action.shift_of(action.reduce(x)[0]) for x in win_set}
  orbits, totals, sums = {}, {}, {}
  for e in edges:
    if inter.undirected and e[::-1] in sums:
      sums[e] = sums[e[::-1]]
      continue
    (ku, ru), (kv, rv) = map(action.reduce, e)
    orbit = (ru, rv, tuple(map(minus, kv, ku)))
    if orbit not in orbits:
      e0 = (ru, action.act_vertex(rv, action.shift_of(orbit[2])))
      meeting = translates_meeting(action, f, e0)
      translates = [translate_function(action, f, action.shift_of(c))
                    for c in meeting]
      # each distinct site of the translates, with its reduction
      sites = {y: action.reduce(y) for g in translates for y in g.support}
      flux = [(1, gradient(theta(x), e0, inter)) for x in e0]
      orbits[orbit] = e0, translates, sites, flux
    e0, translates, sites, flux = orbits[orbit]
    kept = tuple(y for y, (k, r) in sites.items()
                 if (tuple(map(add, k, ku)), r) in in_window)
    key = (orbit, kept)
    if key not in totals:
      terms = [(1, gradient(restrict(g, kept), e0, inter)) for g in translates]
      totals[key] = trim(_combine(terms + flux, inter.n_states, inter.base))
    sums[e] = translate_function(action, totals[key], shifts[e[0]])
  return sums


def synthesized_form(f: LocalFunction, a_matrix, action: TranslationAction,
                     domain, window: Window, inter: Interaction,
                     basis) -> Form:
  """omega = d(sum of window-truncated translates of f) + flux(a).

  Exactly closed on the window by construction; shift-invariant away from
  the boundary.  f is read only through its gradients, so f and f plus a
  constant synthesize the same form.  The flux enters the per-class sums of
  ``_translate_gradient_sums`` as its tile weights.
  """
  theta = _tile_weights(a_matrix, action, domain, window, inter, basis)
  sums = _translate_gradient_sums(action, f, window.edges,
                                  set(window.vertices), inter, theta)
  fns = {e: total for e, total in sums.items() if not total.is_zero()}
  radius = max(1, support_diameter(f.support, window.locale))
  return Form(inter.n_states, inter.base, fns, radius)


def _recenter_domain(window: Window, action: TranslationAction,
                     domain) -> tuple:
  """Translate the fundamental domain toward the window's middle vertex."""
  anchor = domain[len(domain) // 2]
  center = window.center
  candidates = sorted(window.locale.ball(center, action.max_step()),
                      key=lambda v: (window.locale.distance(v, center), v))
  for coeffs, _, _ in action.carry((anchor,), candidates):
    shift = action.shift_of(coeffs)
    moved = tuple(sorted(action.act_vertex(x, shift) for x in domain))
    if all(v in window for v in moved):
      return moved
  return domain


def _centered_subwindow(window: Window, inter: Interaction, anchor,
                        sub_budget: int) -> Window:
  """Largest anchored ball window within the configuration budget."""
  best = [anchor]
  radius = 0
  while True:
    radius += 1
    verts = window.ball(anchor, radius)
    if inter.n_states ** len(verts) > sub_budget:
      break
    best = verts
    if len(verts) == window.n_sites:
      break
  return build_window(window.locale, best)


def _maximal_supports(sites, domain, locale, radius: int) -> list:
  """The maximal sets among ``sites`` of diameter at most ``radius`` that
  meet ``domain``, sorted, each sorted: the maximal cliques of the graph
  joining sites within ``radius``, by Bron and Kerbosch's pivoted search."""
  near = {x: {y for y in sites if 0 < locale.distance(x, y) <= radius}
          for x in sites}
  found = []

  def extend(held, cands, done):
    if not cands | done:
      found.append(tuple(sorted(held)))
      return
    pivot = max(cands | done, key=lambda u: len(cands & near[u]))
    for x in sorted(cands - near[pivot]):
      extend(held + [x], cands & near[x], done & near[x])
      cands, done = cands - {x}, done | {x}

  extend([], set(sites), set())
  return sorted(held for held in found if not set(domain).isdisjoint(held))


def varadhan_decompose(form: Form, window: Window, inter: Interaction, basis,
                       action: TranslationAction, domain,
                       radius: int | None = None,
                       sub_budget: int = DEFAULT_SUB_BUDGET) -> dict:
  """Split a shift-invariant closed form into translate-exact plus flux.

  Pipeline: check invariance; extract the cocycle matrix from potential
  differences on the probe windows (``extract_cocycle``); remove its flux
  form; integrate the remainder on a budgeted central sub-window; remove
  the pairing defect of that potential (splitting must be feasible -- the
  certificate escapes otherwise); average the exact-support pieces that
  meet the fundamental domain over their translation orbits; and re-verify
  the defining identity on every interior edge, exactly.

  Any translate of the fundamental domain will do: the flux reads only tile
  index differences, so the domain is first carried next to the window's
  center, and refused only when the radius ball around it leaves the window.

  The remainder is solved once on the sub-window, whatever the model.  Its
  potential is read off the level maps (``calculus._potential_scan``) only
  on the probe unions, fixed by the radius alone (``default_probes`` at its
  defaults), and on the maximal supports, each expanded by ``expansion``.
  """
  domain = tuple(sorted(domain))
  if radius is None:
    radius = form.radius if form.radius is not None else 0

  inv = is_shift_invariant(form, window, inter, action, radius)
  if not inv["invariant"]:
    raise NotShiftInvariant(inv["witness"])

  # The flux form does not change when the fundamental domain is translated
  # (tile indices shift by a constant, which meets only conserved
  # differences), so anchor the domain near the window's center: the orbit
  # average needs the full radius-ball around it, untruncated.
  domain = _recenter_domain(window, action, domain)
  anchor = domain[len(domain) // 2]
  extraction = extract_cocycle(form, window, inter, basis, action)
  a_matrix = extraction["a"]
  theta = _tile_weights(a_matrix, action, domain, window, inter, basis)

  needed = set()
  for x in domain:
    needed.update(window.locale.ball(x, radius))
  if not needed <= set(window.vertices):
    raise InputError(
        "window too small: the radius ball around the (re-centered) "
        "fundamental domain leaves it")
  sub_win = _centered_subwindow(window, inter, anchor, sub_budget)
  if not needed <= set(sub_win.vertices):
    raise InputError(
        "sub-window budget too small to cover the domain's radius ball")
  # The remainder omega - omega_rho is integrated on the sub-window only,
  # built there edge by edge from omega's functions restricted to it; the
  # flux reads its edge alone, so the sub-window's own is the restriction.
  flux = build_omega_rho(a_matrix, action, domain, sub_win, inter, basis)
  inside = set(sub_win.vertices)
  remainder = {}
  for e in sub_win.edges:
    fn = trim(_combine(((1, restrict(form.fn(e), inside)), (-1, flux.fn(e))),
                       inter.n_states, inter.base))
    if not fn.is_zero():
      remainder[e] = fn
  read, denom, _ = _potential_scan(
      Form(inter.n_states, inter.base, remainder, radius), sub_win, inter,
      sub_budget)

  probes = default_probes(sub_win, inter, radius)
  table = _pairing(read, denom, sub_win, inter, basis, radius, probes)
  split = solve_splitting(table)
  h = split["h"]

  # Orbit-averaged exact-support pieces meeting the fundamental domain, from
  # the corrected potential v + h(quantity) on each maximal support M.  Read
  # on M with M - L at base it is its read on L (the conserved basis
  # vanishes on base), so the expansions agree on every shared piece.
  pieces = {}
  for supp in _maximal_supports(sorted(needed), domain, window.locale, radius):
    pieces.update(expansion(_quantity_corrected(
        read(supp), supp, basis, h, "pairing probes did not cover quantity {}")))
  f_hat = trim(_combine(
      ((Fraction(1, len(translates_meeting(action, piece, domain))), piece)
       for supp, piece in pieces.items() if not set(domain).isdisjoint(supp)),
      inter.n_states, inter.base))

  residual = _verify_identity(form, f_hat, theta, window, inter, action)

  return {
      "a": a_matrix,
      "f": f_hat,
      "h": h,
      "split_method": split["method"],
      "table": table,
      "margins": {
          "radius": radius,
          "invariance_pad": radius + action.max_step(),
          "identity_pad": residual["interior_pad"],
      },
      "sub_window_sites": sub_win.n_sites,
      "shift_invariance": inv,
      "extraction": {"probes": extraction["probes"],
                     "cross_checks": extraction["cross_checks"]},
      "residual": residual,
  }


def _verify_identity(form: Form, f_hat: LocalFunction, theta,
                     window: Window, inter: Interaction,
                     action: TranslationAction) -> dict:
  """Check omega = sum_tau d(tau f) + flux on every interior edge, exactly.

  Scans all edges whose pad-ball stays inside the window, records the first
  mismatch as a witness and the largest absolute residual overall.
  """
  locale = window.locale
  pad = support_diameter(f_hat.support, locale)
  inner = interior_vertices(window, pad)
  edges = [(u, v) for u, v in window.edges if u in inner and v in inner]
  if not edges:
    raise InputError("window too small: no interior edge to verify on")
  # The window cuts no translate that meets an interior edge.
  sums = _translate_gradient_sums(action, f_hat, edges, set(window.vertices),
                                  inter, theta)
  witness = None
  worst = ZERO
  for (u, v), total in sums.items():
    fn = form.fn((u, v))
    if fn == total:
      continue
    diff = trim(_combine(((1, fn), (-1, total)), inter.n_states, inter.base))
    if not diff.is_zero():
      worst = max(worst, *(abs(val) for _, val in diff.assignments()))
      if witness is None:
        witness = _difference_witness(window, (u, v), diff, inter)
  return {
      "ok": witness is None,
      "edges_checked": len(edges),
      "interior_pad": pad,
      "max_abs_residual": fraction_to_str(worst),
      "witness": witness,
  }


# ---------------------------------------------------------------------------
# The line obstruction, end to end


def counterexample_report(n_sites: int = 9) -> dict:
  """Run the full pipeline on the ordering flux over two species on a line.

  The form is closed and shift-invariant with radius zero, yet its potential
  has an asymmetric pairing: splitting is infeasible and the decomposition
  must refuse with an exact certificate.  The window is the n_sites sites
  from -(n_sites // 2); any window that fits a probe pair will do (three
  sites or more).  Returns all the evidence.
  """
  half = n_sites // 2
  locale = Euclidean(1)
  win = box(locale, (-half,), (n_sites - 1 - half,))
  inter = multispecies(2)
  basis = conserved_basis(inter)
  guard_budget(win, inter)
  omega = ordered_flux_form(win, inter)
  f = inversion_count_function(win, inter)

  axioms = form_axioms_report(omega, win, inter)
  closed = is_closed(omega, win, inter)
  d_f = differential(f, win, inter)
  matches = all(functions_equal(d_f.fn(e), omega.fn(e))
                for e in set(d_f.fns) | set(omega.fns))

  action = TranslationAction(locale, ((1,),))
  inv = is_shift_invariant(omega, win, inter, action, 0)

  probes = default_probes(win, inter, 0)
  table = compute_pairing(f, win, inter, basis, 0, probes)
  laws = check_pairing_laws(table)

  split_error = None
  try:
    solve_splitting(table)
  except SplittingInfeasible as exc:
    split_error = exc.certificate

  decompose_error = None
  try:
    varadhan_decompose(omega, win, inter, basis, action, ((0,),), radius=0)
  except SplittingInfeasible as exc:
    decompose_error = {"splitting_infeasible": exc.certificate}

  alpha_left_one = (1, 0)   # a single low-species particle
  beta_right_two = (0, 1)   # a single high-species particle
  return {
      "window_sites": n_sites,
      "form_axioms_ok": axioms["ok"],
      "closed": closed["closed"],
      "is_differential_of_inversions": matches,
      "shift_invariant": inv["invariant"],
      "pairing": pairing_table_to_json(table),
      "asymmetry": {
          "low_left_high_right": fraction_to_str(
              table.cells.get((alpha_left_one, beta_right_two), ZERO)),
          "high_left_low_right": fraction_to_str(
              table.cells.get((beta_right_two, alpha_left_one), ZERO)),
      },
      "pairing_laws": laws,
      "splitting_certificate": split_error,
      "decomposition_refused": decompose_error is not None,
      "decomposition_error": decompose_error,
  }


# ---------------------------------------------------------------------------
# JSON


def cocycle_to_json(a_matrix) -> dict:
  return {
      "basis": "computed",
      "generators": len(a_matrix[0]) if a_matrix else 0,
      "a": [[fraction_to_str(x) for x in row] for row in a_matrix],
  }


def cocycle_from_json(obj) -> list:
  if (not isinstance(obj, dict) or not isinstance(obj.get("a"), list)
      or not all(isinstance(row, list) for row in obj["a"])):
    raise InputError(f"bad cocycle payload {obj!r}")
  return [[fraction_from_str(x) for x in row] for row in obj["a"]]
