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
from itertools import product

from .calculus import (Form, LocalFunction, _gather, _mobius, _piece,
                       _subsets, add, constant, differential,
                       form_axioms_report, form_add, form_sub,
                       functions_equal, gradient, integrate, is_closed,
                       restrict, scale, support_diameter, sub, trim)
from .cohomology import (PairingNotWellDefined, SplittingInfeasible,
                         check_pairing_laws, compute_pairing, default_probes,
                         inversion_count_function, ordered_flux_form,
                         pairing_table_to_json, solve_splitting)
from .configspace import (_quantity_table, _site_sums, digits_from_sites,
                          exchange_path, guard_budget, quantity_to_json)
from .interactions import (Interaction, check_exchangeability,
                           conserved_basis, multispecies)
from .linalg import rref
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
    # The generators are the matrix's columns.  At full rank, the row
    # combinations that reduce it to the identity form its inverse.
    _, pivots, combos = rref(zip(*self.generators), d)
    if len(pivots) < d:
      raise InputError("translation generators are linearly dependent")
    inverse = [[combo.get(k, ZERO) for k in range(d)] for combo in combos]
    object.__setattr__(self, "_inverse", inverse)

  @property
  def rank(self) -> int:
    return len(self.generators)

  def shift_of(self, coeffs) -> tuple:
    d = self.locale.coord_dim()
    out = [0] * d
    for c, g in zip(coeffs, self.generators):
      for i in range(d):
        out[i] += c * g[i]
    return tuple(out)

  def coeffs_of(self, delta) -> tuple | None:
    """Integer coefficients expressing a coordinate vector, or None."""
    ks = [sum(row[i] * delta[i] for i in range(len(delta)))
          for row in self._inverse]
    if any(k.denominator != 1 for k in ks):
      return None
    return tuple(int(k) for k in ks)

  def act_vertex(self, x, shift):
    return self.locale.translate(x, shift)

  def coordinate_delta(self, x, y):
    """Coordinate difference x - y, or None if no translate of y reaches x."""
    cx, cy = self.locale.coord(x), self.locale.coord(y)
    if self.locale.with_coord(y, cx) != x:
      return None
    return tuple(a - b for a, b in zip(cx, cy))

  def max_step(self) -> int:
    """Largest graph distance a single generator moves a vertex."""
    probe = next(iter(_probe_vertex(self.locale)))
    best = 0
    for g in self.generators:
      best = max(best, self.locale.distance(probe, self.locale.translate(probe, g)))
    return best


def _probe_vertex(locale: LatticeLocale):
  # lattice kinds: plain coordinate tuples, except the honeycomb's site flag
  if isinstance(locale, Hexagonal):
    yield (0, 0, 0)
  else:
    yield (0,) * locale.coord_dim()


def translate_function(action: TranslationAction, f: LocalFunction,
                       shift) -> LocalFunction:
  """The translate of f: reads its sites at positions shifted by ``shift``."""
  support = tuple(action.act_vertex(v, shift) for v in f.support)
  if tuple(sorted(support)) != support:  # lattice shifts preserve order
    raise RuntimeError(f"translating by {shift} reorders the support")
  return LocalFunction(support, f.n_states, f.base, f.values)


# ---------------------------------------------------------------------------
# Tilings by a fundamental domain


def tile_of(action: TranslationAction, x, domain) -> tuple:
  """The unique (coeffs, anchor) with x = anchor translated by the coeffs."""
  hits = []
  for v in domain:
    delta = action.coordinate_delta(x, v)
    if delta is None:
      continue
    coeffs = action.coeffs_of(delta)
    if coeffs is not None:
      hits.append((coeffs, v))
  if not hits:
    raise InputError(f"vertex {x!r} is not covered by the domain tiling")
  if len(hits) > 1:
    raise InputError(f"domain translates overlap at {x!r}: not a tiling")
  return hits[0]


def orbit_tiles(window: Window, action: TranslationAction, domain) -> dict:
  """Group window vertices into domain translates; flag partial tiles."""
  domain = tuple(sorted(domain))
  tiles = {}
  for x in window.vertices:
    coeffs, _anchor = tile_of(action, x, domain)
    tiles.setdefault(coeffs, []).append(x)
  report = {"n_tiles": len(tiles), "full": [], "partial": []}
  for coeffs in sorted(tiles):
    entry = {"tile": list(coeffs), "sites": len(tiles[coeffs])}
    if len(tiles[coeffs]) == len(domain):
      report["full"].append(entry)
    else:
      report["partial"].append(entry)
  report["n_full"] = len(report["full"])
  report["n_partial"] = len(report["partial"])
  return report


# ---------------------------------------------------------------------------
# The flux form of a cocycle matrix


def _tile_coefficients(action, domain, a_matrix, basis, x):
  """Per-quantity coefficient sum_j a[i][j] * tau(x)_j at vertex x."""
  coeffs, _ = tile_of(action, x, domain)
  return tuple(sum(Fraction(a_matrix[i][j]) * coeffs[j]
                   for j in range(action.rank))
               for i in range(len(basis)))


def theta_profile(a_matrix, action: TranslationAction, domain, window: Window,
                  inter: Interaction, basis,
                  budget: int = 2_000_000) -> LocalFunction:
  """The window profile whose translation defect realizes the cocycle.

  theta(eta) weighs each site's quantities by the tile index of the site; it
  exists only on enumerable windows and is used for identity checks.
  """
  guard_budget(window, inter, budget)
  tables = []
  for x in window.vertices:
    w = _tile_coefficients(action, domain, a_matrix, basis, x)
    tables.append([sum((w[i] * vec[d] for i, vec in enumerate(basis)), ZERO)
                   for d in range(inter.n_states)])
  return LocalFunction(window.vertices, inter.n_states, inter.base,
                       tuple(_site_sums(tables)))


def build_omega_rho(a_matrix, action: TranslationAction, domain,
                    window: Window, inter: Interaction, basis) -> Form:
  """The canonical flux form of the matrix ``a``: each jump moves quantity
  between tiles weighted by the tile indices.  Radius zero by construction."""
  if len(a_matrix) != len(basis):
    raise InputError("cocycle matrix needs one row per conserved quantity")
  for row in a_matrix:
    if len(row) != action.rank:
      raise InputError("cocycle matrix needs one column per generator")
  weights = {x: _tile_coefficients(action, domain, a_matrix, basis, x)
             for x in window.vertices}
  fns = {}
  c = len(basis)
  for u, v in window.edges:
    support = tuple(sorted((u, v)))
    pu, pv = support.index(u), support.index(v)
    wu, wv = weights[u], weights[v]
    vals = []
    for digits in product(range(inter.n_states), repeat=2):
      du, dv = digits[pu], digits[pv]
      tu, tv = inter.apply(du, dv)
      total = ZERO
      if (tu, tv) != (du, dv):
        for i in range(c):
          vec = basis[i]
          total += wu[i] * (vec[tu] - vec[du]) + wv[i] * (vec[tv] - vec[dv])
      vals.append(total)
    fn = trim(LocalFunction(support, inter.n_states, inter.base, tuple(vals)))
    if not fn.is_zero():
      fns[(u, v)] = fn
  return Form(inter.n_states, inter.base, fns, 0)


# ---------------------------------------------------------------------------
# Shift invariance


def interior_vertices(window: Window, pad: int) -> set:
  """Vertices whose pad-ball stays inside the window."""
  out = set()
  for x in window.vertices:
    if all(y in window for y in window.locale.ball(x, pad)):
      out.add(x)
  return out


def is_shift_invariant(form: Form, window: Window,
                       action: TranslationAction, pad: int | None = None) -> dict:
  """Compare each interior edge function against its generator translate."""
  if pad is None:
    pad = form.radius if form.radius is not None else 0
  inner = interior_vertices(window, pad + action.max_step())
  checked = 0
  zero = constant(0, form.n_states, form.base)
  for j, g in enumerate(action.generators):
    for (u, v) in window.edges:
      if u not in inner or v not in inner:
        continue
      u0, v0 = action.act_vertex(u, tuple(-a for a in g)), \
               action.act_vertex(v, tuple(-a for a in g))
      if u0 not in window or v0 not in window:
        continue
      f1 = form.fn((u, v)) or zero
      f0 = form.fn((u0, v0)) or zero
      shifted = translate_function(action, f0, g)
      checked += 1
      if not functions_equal(f1, shifted):
        diff = trim(sub(f1, shifted))
        witness_digits = next(
            digits for digits, val in diff.assignments() if val != 0)
        return {
            "invariant": False,
            "checked": checked,
            "witness": {
                "generator": j,
                "edge": [window.locale.encode_vertex(u),
                         window.locale.encode_vertex(v)],
                "sites": [window.locale.encode_vertex(s)
                          for s in diff.support],
                "states": list(witness_digits),
                "difference": fraction_to_str(diff.value_at(
                    dict(zip(diff.support, witness_digits)))),
            },
        }
  return {"invariant": True, "checked": checked, "witness": None}


# ---------------------------------------------------------------------------
# Cocycle extraction


def _path_integral(form: Form, window: Window, steps):
  total = ZERO
  for digits, edge in steps:
    fn = form.fn(edge)
    if fn is not None:
      total += fn.value_at(dict(zip(window.vertices, digits)))
  return total


def extract_cocycle(form: Form, window: Window, inter: Interaction, basis,
                    action: TranslationAction, center=None) -> dict:
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
  witnesses = exch["witnesses"]
  if center is None:
    center = window.vertices[len(window.vertices) // 2]

  a_cols = []
  probes = 0
  for j in range(d):
    g = action.generators[j]
    x0 = center
    x_prev = action.act_vertex(x0, tuple(-a for a in g))
    if x0 not in window or x_prev not in window:
      raise InputError("window too small to probe the translation defect")
    rows = []
    for s in range(inter.n_states):
      if s == inter.base:
        continue
      start = digits_from_sites(window, inter, {x_prev: s})
      steps, final = exchange_path(window, inter, start, x_prev, x0, witnesses)
      if final != digits_from_sites(window, inter, {x0: s}):
        raise RuntimeError("exchange path did not move the probe state")
      rows.append([Fraction(vec[s]) for vec in basis]
                  + [_path_integral(form, window, steps)])
      probes += 1
    # The defects must lie in the span of the quantities.
    reduced, pivots, _ = rref(rows, c)
    if any(row[c] != 0 for row in reduced[len(pivots):]):
      raise InconsistentCocycle({
          "generator": j,
          "reason": "single-site defects outside the quantity span",
      })
    col = [ZERO] * c
    for row, p in zip(reduced, pivots):
      col[p] = row[c]
    a_cols.append(col)

  # linearity cross-checks on two-site configurations
  cross = 0
  states = [s for s in range(inter.n_states) if s != inter.base]
  for j in range(d):
    g = action.generators[j]
    x0 = center
    x1 = action.act_vertex(x0, tuple(2 * a for a in g))
    x0p = action.act_vertex(x0, tuple(-a for a in g))
    x1p = action.act_vertex(x1, tuple(-a for a in g))
    if x1 not in window or x1p not in window:
      continue
    for s in states:
      for t in states:
        start = digits_from_sites(window, inter, {x0p: s, x1p: t})
        steps1, mid = exchange_path(window, inter, start, x0p, x0, witnesses)
        steps2, final = exchange_path(window, inter, mid, x1p, x1, witnesses)
        if final != digits_from_sites(window, inter, {x0: s, x1: t}):
          raise RuntimeError("exchange paths did not move the probe states")
        measured = (_path_integral(form, window, steps1)
                    + _path_integral(form, window, steps2))
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
  return {"a": a_matrix, "probes": probes, "cross_checks": cross}


# ---------------------------------------------------------------------------
# Synthesis (sums of translates) and the main decomposition


def translates_meeting(action: TranslationAction, f: LocalFunction, targets):
  """All lattice shifts tau whose translate of supp(f) meets ``targets``."""
  shifts = set()
  for t in targets:
    for v in f.support:
      delta = action.coordinate_delta(t, v)
      if delta is None:
        continue
      coeffs = action.coeffs_of(delta)
      if coeffs is not None:
        shifts.add(coeffs)
  return sorted(shifts)


def synthesized_form(f: LocalFunction, a_matrix, action: TranslationAction,
                     domain, window: Window, inter: Interaction,
                     basis) -> Form:
  """omega = d(sum of window-truncated translates of f) + flux(a).

  Exactly closed on the window by construction; shift-invariant away from
  the boundary.  The base-configuration value of f must be zero so that
  truncation does not bend interior edge functions.
  """
  if f.value_at({}) != 0:
    raise InputError("synthesis needs f to vanish on the base configuration")
  fns = {}
  win_set = set(window.vertices)
  for (u, v) in window.edges:
    total = constant(0, inter.n_states, inter.base)
    for coeffs in translates_meeting(action, f, (u, v)):
      tf = translate_function(action, f, action.shift_of(coeffs))
      tf = restrict(tf, win_set)
      grad = gradient(tf, (u, v), inter)
      if not grad.is_zero():
        total = add(total, grad)
    total = trim(total)
    if not total.is_zero():
      fns[(u, v)] = total
  exact_part = Form(inter.n_states, inter.base, fns, None)
  flux = build_omega_rho(a_matrix, action, domain, window, inter, basis)
  radius = max(1, support_diameter(f.support, window.locale))
  return form_add(exact_part, flux, radius)


def _recenter_domain(window: Window, action: TranslationAction,
                     domain) -> tuple:
  """Translate the fundamental domain toward the window's middle vertex."""
  anchor = domain[len(domain) // 2]
  center = window.vertices[len(window.vertices) // 2]
  candidates = sorted(window.locale.ball(center, action.max_step()),
                      key=lambda v: (window.locale.distance(v, center), v))
  for cand in candidates:
    delta = action.coordinate_delta(cand, anchor)
    if delta is None:
      continue
    coeffs = action.coeffs_of(delta)
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


def form_restricted(form: Form, sub: Window) -> Form:
  fns = {}
  sub_set = set(sub.vertices)
  for e in sub.edges:
    fn = form.fn(e)
    if fn is None:
      continue
    r = trim(restrict(fn, sub_set))
    if not r.is_zero():
      fns[e] = r
  return Form(form.n_states, form.base, fns, form.radius)


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
  """
  domain = tuple(sorted(domain))
  if radius is None:
    radius = form.radius if form.radius is not None else 0
  for x in domain:
    if x not in window:
      raise InputError("fundamental domain must sit inside the window")

  inv = is_shift_invariant(form, window, action, radius)
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
  remainder = form_sub(form, flux, radius)

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
  local_remainder = form_restricted(remainder, sub_win)
  potential, pot_meta = integrate(local_remainder, sub_win, inter,
                                  budget=sub_budget)

  probes = default_probes(sub_win, inter, radius, ball_radius=probe_ball)
  table = compute_pairing(potential, sub_win, inter, basis, radius, probes)
  split = solve_splitting(table)
  h = split["h"]

  # Orbit-averaged exact-support pieces meeting the fundamental domain: on
  # each admissible support L, the top piece of the corrected potential
  # v + h(quantity) read on L.
  ball_sites = tuple(sorted(needed))
  s = inter.n_states
  f_hat = constant(0, s, inter.base)
  for positions in _subsets(len(ball_sites)):
    sub_supp = tuple(ball_sites[k] for k in positions)
    if not set(sub_supp) & set(domain):
      continue
    if support_diameter(sub_supp, window.locale) > radius:
      continue
    size = len(sub_supp)
    corrected = []
    for v, q in zip(_gather(potential, sub_supp),
                    _quantity_table(sub_supp, basis, s)):
      if q not in h:
        raise InputError(
            f"pairing probes did not cover quantity {quantity_to_json(q)}")
      corrected.append(v + h[q])
    moebius = _mobius(corrected, size, s, inter.base)
    piece = LocalFunction(sub_supp, s, inter.base,
                          _piece(moebius, range(size), size, s, inter.base))
    if piece.is_zero():
      continue
    weight = len(translates_meeting(action, piece, domain))
    f_hat = add(f_hat, scale(piece, Fraction(1, weight)))
  f_hat = trim(f_hat)

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
      "potential_components": pot_meta["n_components"],
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
  pad = support_diameter(f_hat.support, locale) if f_hat.support else 0
  win_set = set(window.vertices)
  checked = 0
  witness = None
  worst = ZERO
  for (u, v) in window.edges:
    ball = set(locale.ball(u, pad)) | set(locale.ball(v, pad))
    if not ball <= win_set:
      continue
    expected = constant(0, inter.n_states, inter.base)
    if f_hat.support:
      for coeffs in translates_meeting(action, f_hat, (u, v)):
        tf = translate_function(action, f_hat, action.shift_of(coeffs))
        g = gradient(tf, (u, v), inter)
        if not g.is_zero():
          expected = add(expected, g)
    flux_fn = flux.fn((u, v))
    if flux_fn is not None:
      expected = add(expected, flux_fn)
    actual = form.fn((u, v)) or constant(0, inter.n_states, inter.base)
    checked += 1
    if not functions_equal(expected, actual):
      diff = trim(sub(actual, expected))
      for dg, val in diff.assignments():
        if val != 0:
          worst = max(worst, abs(val))
          if witness is None:
            witness = {
                "edge": [locale.encode_vertex(u), locale.encode_vertex(v)],
                "sites": [locale.encode_vertex(s) for s in diff.support],
                "states": [inter.states[d] for d in dg],
                "difference": fraction_to_str(val),
            }
  if checked == 0:
    raise InputError("window too small: no interior edge to verify on")
  return {
      "ok": witness is None,
      "edges_checked": checked,
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
  d_f = differential(f, win, inter, radius=0)
  matches = all(
      functions_equal(d_f.fn(e) or constant(0, inter.n_states, inter.base),
                      omega.fn(e) or constant(0, inter.n_states, inter.base))
      for e in set(d_f.fns) | set(omega.fns))

  action = TranslationAction(locale, ((1,),))
  inv = is_shift_invariant(omega, win, action, 0)

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

  one = Fraction(1)
  alpha_left_one = (one, ZERO)   # a single low-species particle
  beta_right_two = (ZERO, one)   # a single high-species particle
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


def cocycle_to_json(a_matrix, basis_name: str = "computed") -> dict:
  return {
      "basis": basis_name,
      "generators": len(a_matrix[0]) if a_matrix else 0,
      "a": [[fraction_to_str(x) for x in row] for row in a_matrix],
  }


def cocycle_from_json(obj) -> list:
  if (not isinstance(obj, dict) or not isinstance(obj.get("a"), list)
      or not all(isinstance(row, list) for row in obj["a"])):
    raise InputError(f"bad cocycle payload {obj!r}")
  return [[fraction_from_str(x) for x in row] for row in obj["a"]]
