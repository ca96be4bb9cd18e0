"""Splitting shift-invariant closed forms into an exact part and a flux part.

The translation group of a lattice locale acts on functions and forms.  Every
shift-invariant closed form that is local at scale R decomposes -- on a
window, up to the stated margins -- as

    omega  =  sum of translates of d(f)  +  omega_rho

where f is a local function and omega_rho is the canonical flux form of a
rational matrix rho pairing conserved quantities with translation
generators.  The matrix is recovered exactly by integrating omega along
explicit exchange paths between a configuration and its translate; the local
part is recovered by integrating on a budgeted central sub-window, removing
the pairing defect, and averaging exact-support pieces over translation
orbits.  The defining identity is then re-verified edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .calculus import (Form, LocalFunction, _combine, _path_integral,
                       _potential_scan, differential, expansion,
                       form_axioms_report, functions_equal, gradient,
                       is_closed, restrict, support_diameter, sub, trim)
from .cohomology import (PairingNotWellDefined, SplittingInfeasible,
                         _pairing, _quantity_corrected, check_pairing_laws,
                         compute_pairing, default_probes,
                         inversion_count_function, ordered_flux_form,
                         pairing_table_to_json, solve_splitting)
from .configspace import _require_conserved, digits_from_sites, exchange_path
from .interactions import (Interaction, check_exchangeability,
                           conserved_basis, multispecies)
from .linalg import _integer_row, rref
from .locales import (Euclidean, Hexagonal, LatticeLocale, Window, box,
                      window as build_window)
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

  @property
  def rank(self) -> int:
    return len(self.generators)

  def shift_of(self, coeffs) -> tuple:
    return tuple(sum(map(mul, coeffs, col)) for col in zip(*self.generators))

  def reduce(self, x) -> tuple:
    """``(coeffs, rep)``: the floor of x's coordinate in the generators, and
    x moved back by that shift, so rep's coefficients lie in [0, 1).  Two
    vertices share a rep exactly when a shift carries one to the other."""
    c = self.locale.coord(x)
    coeffs = tuple(sum(map(mul, row, c)) // self._denom
                   for row in self._inverse)
    return coeffs, self.locale.with_coord(
        x, tuple(a - b for a, b in zip(c, self.shift_of(coeffs))))

  def act_vertex(self, x, shift):
    return self.locale.translate(x, shift)

  def coeffs_carrying(self, v, x) -> tuple | None:
    """Integer coefficients of the shift carrying ``v`` to ``x``, or None."""
    (kv, rv), (kx, rx) = self.reduce(v), self.reduce(x)
    return tuple(a - b for a, b in zip(kx, kv)) if rv == rx else None

  def max_step(self) -> int:
    """Largest graph distance a single generator moves a vertex."""
    # lattice kinds: plain coordinate tuples, except the honeycomb's site flag
    probe = ((0, 0, 0) if isinstance(self.locale, Hexagonal)
             else (0,) * self.locale.coord_dim())
    return max(self.locale.distance(probe, self.locale.translate(probe, g))
               for g in self.generators)


def translate_function(action: TranslationAction, f: LocalFunction,
                       shift) -> LocalFunction:
  """The translate of f: reads its sites at positions shifted by ``shift``."""
  support = tuple(action.act_vertex(v, shift) for v in f.support)
  if tuple(sorted(support)) != support:  # lattice shifts preserve order
    raise RuntimeError(f"translating by {shift} reorders the support")
  return LocalFunction._exact(support, f.n_states, f.base, f.nums, f.denom)


# ---------------------------------------------------------------------------
# Tilings by a fundamental domain


def _reduced_domain(action: TranslationAction, domain) -> dict:
  """rep -> [(coeffs, v), ...]: the domain vertices by their reduction,
  in domain order."""
  reduced = {}
  for v in domain:
    coeffs, rep = action.reduce(v)
    reduced.setdefault(rep, []).append((coeffs, v))
  return reduced


def _tile(action: TranslationAction, x, reduced: dict) -> tuple:
  """``tile_of`` against a ``_reduced_domain``: one reduction of x."""
  kx, rx = action.reduce(x)
  hits = [(tuple(a - b for a, b in zip(kx, kv)), v)
          for kv, v in reduced.get(rx, ())]
  if not hits:
    raise InputError(f"vertex {x!r} is not covered by the domain tiling")
  if len(hits) > 1:
    raise InputError(f"domain translates overlap at {x!r}: not a tiling")
  return hits[0]


def tile_of(action: TranslationAction, x, domain) -> tuple:
  """The unique (coeffs, anchor) with x = anchor translated by the coeffs."""
  return _tile(action, x, _reduced_domain(action, domain))


# ---------------------------------------------------------------------------
# The flux form of a cocycle matrix


def _site_weights(a_matrix, action, domain, window, inter, basis) -> dict:
  """Per window site x, the one-site function d -> sum_i w_i(x) basis[i][d],
  where w_i(x) = sum_j a[i][j] tau(x)_j weighs quantity i by x's tile index.
  A basis that some move does not conserve is refused, as ``fibers_report``
  refuses it, so the flux of ``build_omega_rho`` is translation-equivariant."""
  _require_conserved(inter, basis)
  if len(a_matrix) != len(basis):
    raise InputError("cocycle matrix needs one row per conserved quantity")
  if any(len(row) != action.rank for row in a_matrix):
    raise InputError("cocycle matrix needs one column per generator")
  s = inter.n_states
  # theta_x(d) = sum_j tau(x)_j g_j(d) with g_j(d) = sum_i a[i][j] basis[i][d],
  # each g_j as integer numerators over one denominator
  nums, denom = _integer_row(
      sum((Fraction(row[j]) * vec[d] for row, vec in zip(a_matrix, basis)),
          ZERO) for j in range(action.rank) for d in range(s))
  g = [nums[i:i + s] for i in range(0, len(nums), s)]
  reduced = _reduced_domain(action, domain)
  tables = {}
  for x in window.vertices:
    coeffs, _ = _tile(action, x, reduced)
    tables[x] = LocalFunction._exact(
        (x,), s, inter.base,
        [sum(k * col[d] for k, col in zip(coeffs, g)) for d in range(s)],
        denom)
  return tables


def build_omega_rho(a_matrix, action: TranslationAction, domain,
                    window: Window, inter: Interaction, basis) -> Form:
  """The canonical flux form of the matrix ``a``: each jump moves quantity
  between tiles weighted by the tile indices.  Radius zero by construction;
  a basis that the moves do not conserve is refused (``_site_weights``).

  The flux across (u, v) is the gradient of theta_u + theta_v, read off the
  interaction's moves: at the pair (a, b) with (c, d) = phi(a, b) it is
  theta_u(c) - theta_u(a) + theta_v(d) - theta_v(b), on the edge's sites in
  sorted order.
  """
  tables = _site_weights(a_matrix, action, domain, window, inter, basis)
  s = inter.n_states
  fns = {}
  for u, v in window.edges:
    tu, tv = tables[u], tables[v]
    denom = lcm(tu.denom, tv.denom)
    mu, mv = denom // tu.denom, denom // tv.denom
    nums = [0] * (s * s)
    for a, b, c, d in inter.moved:
      nums[a * s + b if u < v else b * s + a] = (
          mu * (tu.nums[c] - tu.nums[a]) + mv * (tv.nums[d] - tv.nums[b]))
    fn = trim(LocalFunction._exact(tuple(sorted((u, v))), s, inter.base,
                                   nums, denom))
    if not fn.is_zero():
      fns[(u, v)] = fn
  return Form(inter.n_states, inter.base, fns, 0)


# ---------------------------------------------------------------------------
# Shift invariance


def interior_vertices(window: Window, pad: int) -> set:
  """Vertices whose pad-ball stays inside the window."""
  return {x for x in window.vertices
          if all(y in window for y in window.locale.ball(x, pad))}


def _difference_witness(locale, edge, diff: LocalFunction,
                        inter: Interaction) -> dict:
  """The first nonzero entry of ``diff``, the mismatch on ``edge``, with the
  sites' state values."""
  digits, val = next((dg, val) for dg, val in diff.assignments() if val != 0)
  return {
      "edge": [locale.encode_vertex(x) for x in edge],
      "sites": [locale.encode_vertex(x) for x in diff.support],
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
      u0, v0 = action.act_vertex(u, back), action.act_vertex(v, back)
      f1 = form.fn((u, v))
      f0 = form.fn((u0, v0))
      shifted = translate_function(action, f0, g)
      checked += 1
      if not functions_equal(f1, shifted):
        witness = _difference_witness(window.locale, (u, v),
                                      trim(sub(f1, shifted)), inter)
        return {"invariant": False, "checked": checked,
                "witness": {"generator": j, **witness}}
  return {"invariant": True, "checked": checked, "witness": None}


# ---------------------------------------------------------------------------
# Cocycle extraction


def extract_cocycle(form: Form, window: Window, inter: Interaction, basis,
                    action: TranslationAction) -> dict:
  """Recover the cocycle matrix from translation defects of the potential.

  For each generator, the difference v(eta) - v(translated eta) equals the
  integral of the form along any transition path between the two
  configurations; single-site configurations determine the matrix, two-site
  configurations cross-check linearity.  No global integration happens: the
  paths are explicit exchange constructions.
  """
  c = len(basis)
  d = action.rank
  if c == 0:
    return {"a": [], "probes": 0, "cross_checks": 0}
  exch = check_exchangeability(inter)
  if not exch["exchangeable"]:
    raise InputError(
        f"cocycle extraction moves states around; {inter.name} lacks "
        f"exchange witnesses for {exch['missing_pairs']}")
  center = window.center()

  def defect(moves):
    """The integral of the form along the exchange paths that carry state s
    from x to y for each (s, x, y) of ``moves`` in turn, every other site at
    base."""
    current = digits_from_sites(window, inter, {x: s for s, x, _ in moves})
    total = ZERO
    for _, x, y in moves:
      steps, current = exchange_path(window, inter, current, x, y)
      total += _path_integral(form, window, steps)
    if current != digits_from_sites(window, inter, {y: s for s, _, y in moves}):
      raise RuntimeError("exchange paths did not move the probe states")
    return total

  a_cols = []
  states = [s for s in range(inter.n_states) if s != inter.base]
  for j, g in enumerate(action.generators):
    x0 = center
    x_prev = action.act_vertex(x0, tuple(-a for a in g))
    if x0 not in window or x_prev not in window:
      raise InputError("window too small to probe the translation defect")
    rows = [dict(enumerate([vec[s] for vec in basis]
                           + [defect([(s, x_prev, x0)])]))
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
  cross = 0
  for j, g in enumerate(action.generators):
    x0 = center
    x1 = action.act_vertex(x0, tuple(2 * a for a in g))
    x0p = action.act_vertex(x0, tuple(-a for a in g))
    x1p = action.act_vertex(x1, tuple(-a for a in g))
    if x1 not in window or x1p not in window:
      continue
    for s in states:
      for t in states:
        measured = defect([(s, x0p, x0), (t, x1p, x1)])
        predicted = sum(a_cols[j][i] * (basis[i][s] + basis[i][t])
                        for i in range(c))
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
  shifts = {action.coeffs_carrying(v, t) for t in targets for v in f.support}
  shifts.discard(None)
  return sorted(shifts)


def _translate_gradient_sums(action: TranslationAction, f: LocalFunction,
                             edges, win_set, inter: Interaction,
                             flux: Form) -> dict:
  """Per edge e, flux_e plus the sum over the translates tau f that meet e of
  nabla_e(tau f restricted to the window), trimmed.

  The sum is translation-equivariant: if e = sigma e0, the translates
  meeting e are those meeting e0 moved by sigma, and the flux at e is the
  flux at e0 moved by sigma (the basis is conserved, ``_site_weights``).  So
  the sum at e is fixed by the orbit representative e0 (e moved back by the
  reduction of its tail) and by the sites of the translates meeting e0 that
  the window keeps once moved back.  The translates meeting e0 are found
  once per orbit; the sum is built on e0 once per key, one gradient per
  translate restricted to the kept sites, so no table exceeds the window,
  plus the flux of the key's first edge moved back, and translated to each
  edge of the key, the same table on a support moved in order.
  """
  orbits, totals, sums = {}, {}, {}
  for e in edges:
    coeffs, rep = action.reduce(e[0])
    shift = action.shift_of(coeffs)
    back = tuple(-k for k in shift)
    e0 = (rep, action.act_vertex(e[1], back))
    if e0 not in orbits:
      orbits[e0] = [translate_function(action, f, action.shift_of(c))
                    for c in translates_meeting(action, f, e0)]
    kept = tuple(y for g in orbits[e0] for y in g.support
                 if action.act_vertex(y, shift) in win_set)
    key = (e0, kept)
    if key not in totals:
      terms = [(1, gradient(restrict(g, kept), e0, inter))
               for g in orbits[e0]]
      if (fl := flux.fns.get(e)) is not None:
        terms.append((1, translate_function(action, fl, back)))
      totals[key] = trim(_combine(terms, inter.n_states, inter.base))
    sums[e] = translate_function(action, totals[key], shift)
  return sums


def synthesized_form(f: LocalFunction, a_matrix, action: TranslationAction,
                     domain, window: Window, inter: Interaction,
                     basis) -> Form:
  """omega = d(sum of window-truncated translates of f) + flux(a).

  Exactly closed on the window by construction; shift-invariant away from
  the boundary.  The base-configuration value of f must be zero so that
  truncation does not bend interior edge functions.  The flux is added
  inside the per-class sums of ``_translate_gradient_sums``.
  """
  if f.value_at({}) != 0:
    raise InputError("synthesis needs f to vanish on the base configuration")
  flux = build_omega_rho(a_matrix, action, domain, window, inter, basis)
  sums = _translate_gradient_sums(action, f, window.edges,
                                  set(window.vertices), inter, flux)
  fns = {e: total for e, total in sums.items() if not total.is_zero()}
  radius = max(1, support_diameter(f.support, window.locale))
  return Form(inter.n_states, inter.base, fns, radius)


def _recenter_domain(window: Window, action: TranslationAction,
                     domain) -> tuple:
  """Translate the fundamental domain toward the window's middle vertex."""
  anchor = domain[len(domain) // 2]
  center = window.center()
  candidates = sorted(window.locale.ball(center, action.max_step()),
                      key=lambda v: (window.locale.distance(v, center), v))
  for cand in candidates:
    coeffs = action.coeffs_carrying(anchor, cand)
    if coeffs is None:
      continue
    shift = action.shift_of(coeffs)
    moved = tuple(sorted(action.act_vertex(x, shift) for x in domain))
    if all(v in window for v in moved):
      return moved
  return domain


def _centered_subwindow(window: Window, inter: Interaction, anchor,
                        sub_budget: int) -> Window:
  """Largest anchored ball window within the configuration budget."""
  locale = window.locale
  best = [anchor]
  radius = 0
  while True:
    radius += 1
    verts = [v for v in locale.ball(anchor, radius) if v in window]
    if inter.n_states ** len(verts) > sub_budget:
      break
    best = verts
    if len(verts) == window.n_sites:
      break
  return build_window(locale, best)


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
                       sub_budget: int = DEFAULT_SUB_BUDGET,
                       probe_ball: int = 1) -> dict:
  """Split a shift-invariant closed form into translate-exact plus flux.

  Pipeline: check invariance; extract the cocycle matrix along transition
  paths; remove its flux form; integrate the remainder on a budgeted central
  sub-window; remove the pairing defect of that potential (splitting must be
  feasible -- the certificate escapes otherwise); average the exact-support
  pieces that meet the fundamental domain over their translation orbits; and
  re-verify the defining identity on every interior edge, exactly.

  The remainder is solved once on the sub-window, whatever the model.  Its
  potential is read off the level maps (``calculus._potential_scan``) only
  on the probe pairs' unions and on the maximal supports
  (``_maximal_supports``), each expanded once by ``expansion``.
  """
  domain = tuple(sorted(domain))
  if radius is None:
    radius = form.radius if form.radius is not None else 0
  for x in domain:
    if x not in window:
      raise InputError("fundamental domain must sit inside the window")

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
  flux = build_omega_rho(a_matrix, action, domain, window, inter, basis)

  sub_win = _centered_subwindow(window, inter, anchor, sub_budget)
  needed = set()
  for x in domain:
    needed.update(window.locale.ball(x, radius))
  if not needed <= set(window.vertices):
    raise InputError(
        "window too small: the radius ball around the (re-centered) "
        "fundamental domain leaves it")
  if not needed <= set(sub_win.vertices):
    raise InputError(
        "sub-window budget too small to cover the domain's radius ball")
  # The remainder omega - omega_rho is integrated on the sub-window only,
  # built there edge by edge from omega's functions restricted to it; the
  # flux reads its edge alone, so it needs no restriction.  The whole
  # window's flux is kept for the identity check.
  inside = set(sub_win.vertices)
  remainder = {}
  for e in sub_win.edges:
    fn = trim(_combine(((1, restrict(form.fn(e), inside)), (-1, flux.fn(e))),
                       inter.n_states, inter.base))
    if not fn.is_zero():
      remainder[e] = fn
  read, denom, pins = _potential_scan(
      Form(inter.n_states, inter.base, remainder, radius), sub_win, inter,
      sub_budget)

  probes = default_probes(sub_win, inter, radius, ball_radius=probe_ball)
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

  residual = _verify_identity(form, f_hat, flux, window, inter, action)

  return {
      "a": a_matrix,
      "f": f_hat,
      "h": h,
      "split_method": split["method"],
      "table": table,
      "radius": radius,
      "margins": {
          "radius": radius,
          "invariance_pad": radius + action.max_step(),
          "identity_pad": residual["interior_pad"],
      },
      "sub_window_sites": sub_win.n_sites,
      "potential_components": len(pins),
      "shift_invariance": inv,
      "extraction": {"probes": extraction["probes"],
                     "cross_checks": extraction["cross_checks"]},
      "residual": residual,
  }


def _verify_identity(form: Form, f_hat: LocalFunction, flux: Form,
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
                                  inter, flux)
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
        witness = _difference_witness(locale, (u, v), diff, inter)
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
  must refuse with an exact certificate.  Returns all the evidence.
  """
  if n_sites < 5 or n_sites % 2 == 0:
    raise InputError("the line scenario wants an odd window of >= 5 sites")
  half = n_sites // 2
  locale = Euclidean(1)
  win = box(locale, (-half,), (half,))
  inter = multispecies(2)
  basis = conserved_basis(inter)
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
  except PairingNotWellDefined as exc:
    decompose_error = {"pairing_ill_defined": exc.witness}

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
