"""Interaction pairing of a function, splitting, and uniformization.

For a function f whose differential is local at scale R, the *pairing defect*

    f(eta on A u B)  -  f(eta on A)  -  f(eta on B)

over two finite regions further than R apart depends only on the conserved
quantity vectors of eta on A and on B.  Probing it over pairs of balls yields
an exact table h(alpha, beta); when that table splits as
h(alpha) + h(beta) - h(alpha + beta), subtracting h of the window quantity
from f removes every long-range exact-support piece ("uniformization").  When
it does not split -- the table can even fail to be symmetric on the line --
the obstruction is reported with an exact certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, sub

from .calculus import (Form, LocalFunction, _over, is_uniform, set_distance,
                       uniformity_criterion)
from .configspace import _offsets, _quantity_sums, quantity_to_json
from .interactions import Interaction
from .linalg import _integer_row, rref
from .locales import LatticeLocale, Window
from .serialize import (InputError, WitnessError, fraction_from_str,
                        fraction_to_str, manifest_int)

ZERO = Fraction(0)
DEFAULT_PROBE_BUDGET = 200_000


class PairingNotWellDefined(WitnessError):
  """Two probes assigned different values to one pairing cell."""

  message = "pairing defect is not a function of the quantity pair"


class SplittingInfeasible(WitnessError):
  """The pairing table admits no splitting; carries an exact certificate."""

  key = "certificate"
  message = "pairing table does not split"


@dataclass
class PairingTable:
  basis: tuple
  radius: int
  # (alpha, beta) -> Fraction; a computed table keys each cell by the raw
  # quantity sums of its two halves (int tuples for the conserved basis)
  cells: dict = field(default_factory=dict)
  probes: list = field(default_factory=list)  # provenance, JSON-ready

  def zero_vector(self):
    return (0,) * len(self.basis)


# ---------------------------------------------------------------------------
# Probe plans


def default_probes(window: Window, inter: Interaction, radius: int,
                   ball_radius: int = 1) -> list:
  """Deterministic list of probe pairs (first, second) inside the window,
  each over at most ``DEFAULT_PROBE_BUDGET`` configurations.

  On a one-dimensional lattice (Z or the n-neighbor line) the first set
  always sits to the left of the second -- a ball's complement there has a
  left and a right end, and the two are not interchangeable, so the argument
  order is pinned by position.  In higher dimension mirrored pairs are
  included, which is what makes the symmetry check meaningful.  Offsets
  count graph steps, so each pair lies more than ``radius`` apart.
  """
  locale = window.locale
  if not isinstance(locale, LatticeLocale):
    raise InputError(
        f"default probes need a lattice locale, not {locale.name}; "
        "supply explicit probes")

  center = window.center
  d = locale.coord_dim()
  oriented = d == 1
  pairs = []
  over = []  # union sizes of the pairs the budget turns away

  def try_pair(first, second):
    size = len(set(first) | set(second))
    if inter.n_states ** size > DEFAULT_PROBE_BUDGET:
      over.append(size)
    elif (first, second) not in pairs:
      pairs.append((first, second))

  for axis in range(d):
    # one edge moves the axis coordinate by at most unit, so a shift of
    # k * unit along the axis is at least k graph steps
    unit = max(abs(locale.coord(y)[axis] - locale.coord(center)[axis])
               for y in locale.neighbors(center))
    for r1, r2 in ((ball_radius, ball_radius), (ball_radius, 0),
                   (ball_radius + 1, 0), (0, 0)):
      gap = radius + 1
      shift = [0] * d
      shift[axis] = -(r1 + gap // 2) * unit
      c1 = locale.translate(center, tuple(shift))
      shift[axis] = (r2 + (gap + 1) // 2) * unit
      c2 = locale.translate(center, tuple(shift))
      if c1 not in window or c2 not in window:
        continue
      first = window.ball(c1, r1)
      second = window.ball(c2, r2)
      try_pair(first, second)
      if not oriented:
        try_pair(second, first)
  if not pairs:
    raise InputError(
        f"probe budget {DEFAULT_PROBE_BUDGET} admits no probe pair: the "
        f"smallest needs {inter.n_states}^{min(over)} configurations" if over
        else "window too small to place any probe pair")
  return pairs


# ---------------------------------------------------------------------------
# The pairing table


def compute_pairing(f: LocalFunction, window: Window, inter: Interaction,
                    basis, radius: int, probes=None) -> PairingTable:
  """Exact pairing table of f over the probe plan.

  Every assignment over each probe pair is enumerated; the defect must agree
  across probes cell by cell, otherwise ``PairingNotWellDefined`` is raised
  with both witnesses.
  """
  if probes is None:
    probes = default_probes(window, inter, radius)
  return _pairing(lambda union: f, f.denom, window, inter, basis, radius,
                  probes)


def _half(sites, union, basis, s: int, base: int):
  """One probe half in its index order: the index of each configuration in
  the union's table, the other half at base, and its raw quantity sums."""
  offsets, _ = _offsets(sites, union, s, base)
  return offsets, list(_quantity_sums(sites, basis, s))


def _leads(offsets, quantities) -> dict:
  """quantity -> least offset of a configuration carrying it."""
  lead = {}
  for o, q in zip(offsets, quantities):
    if lead.get(q, o) >= o:
      lead[q] = o
  return lead


def _pairing(read, denom: int, window: Window, inter: Interaction, basis,
             radius: int, probes) -> PairingTable:
  """The pairing loop of ``compute_pairing``.  ``read(union)`` is a
  function g that agrees with f wherever the sites outside each probe
  pair's union sit at base, with a denominator dividing ``denom``; it is
  called after the pair is checked.

  Each probe reads g's own table G and enumerates its two halves on their
  own: configuration i of ``first`` sits at index pf[i] of G with every
  other site at base, and configuration j of ``second`` adds ps[j], its
  index counted from G's all-base index o (a union site g does not read is
  ignored).  So the defect is G[pf[i] + ps[j]] - G[pf[i]] - G[o + ps[j]],
  scaled from g's denominator to ``denom``.  The probe is consistent iff
  every alpha class of ``first`` meets each beta class of ``second`` at one
  defect.  A cell first appears in union index order at the least union
  index of its alpha class plus the least of its beta class, and new cells
  are kept in that order.  On any disagreement the probe is walked again in
  union index order, to name its first conflict.
  """
  locale = window.locale
  s, base = inter.n_states, inter.base
  table = PairingTable(basis=tuple(basis), radius=radius)
  cells = {}  # (alpha, beta) as raw quantity sums -> numerator over denom
  provenance = {}
  for first, second in probes:
    first, second = tuple(first), tuple(second)
    if set(first) & set(second):
      raise InputError("probe sets overlap")
    dist = set_distance(first, second, locale)
    if dist <= radius:
      raise InputError(
          f"probe pair at distance {dist} is not separated beyond {radius}")
    union = tuple(sorted(first + second))
    if s ** len(union) > DEFAULT_PROBE_BUDGET:
      raise InputError(f"probe pair over {len(union)} sites exceeds budget")
    record = {
        "first": [locale.encode_vertex(v) for v in first],
        "second": [locale.encode_vertex(v) for v in second],
        "distance": dist,
    }
    table.probes.append(record)
    g = read(union)
    whole, scale = g.nums, denom // g.denom
    uf, qf = _half(first, union, basis, s, base)
    us, qs = _half(second, union, basis, s, base)
    pf, at_base = _offsets(first, g.support, s, base)
    ps = [p - at_base for p in _offsets(second, g.support, s, base)[0]]
    betas = {}  # beta -> dense id
    beta_ids = [betas.setdefault(q, len(betas)) for q in qs]
    on_second = list(map(whole.__getitem__, map(at_base.__add__, ps)))
    # one slice of G per row where the second half's offsets step evenly
    step = ps[1] - ps[0] if len(ps) > 1 else 1
    even = step > 0 and ps == list(range(ps[0], ps[0] + step * len(ps), step))
    classes = {}  # alpha -> {(beta id, defect over g's denominator)}
    for o, alpha in zip(pf, qf):
      if even:
        row = whole[o + ps[0]:o + ps[0] + step * len(ps):step]
      else:
        row = map(whole.__getitem__, map(o.__add__, ps))
      row = map(sub, row, on_second)
      c = whole[o]
      classes.setdefault(alpha, set()).update(
          [(b, k - c) for b, k in set(zip(beta_ids, row))])
    keys = list(betas)
    fresh = []  # (first union index, cell, defect)
    a_lead, b_lead = _leads(uf, qf), _leads(us, qs)
    for alpha, seen in classes.items():
      consistent = len(seen) == len(keys)
      for b, k in seen:
        key, k = (alpha, keys[b]), k * scale
        if key not in cells:
          fresh.append((a_lead[alpha] + b_lead[keys[b]], key, k))
        elif cells[key] != k:
          consistent = False
      if not consistent:
        _raise_first_conflict(cells, provenance, record, denom, g, at_base,
                              (uf, pf, qf), (us, ps, qs))
    for _, key, k in sorted(fresh):
      cells[key] = k
      provenance[key] = record
  values = {k: Fraction(k, denom) for k in set(cells.values())}
  table.cells = {key: values[k] for key, k in cells.items()}
  return table


def _raise_first_conflict(cells, provenance, record, denom: int, g,
                          at_base: int, first, second):
  """Walk one probe in union index order against the cells of the earlier
  probes, as a single pass over the union would, and raise
  ``PairingNotWellDefined`` at the first cell that meets two values.  Each
  half holds its union indices, its indices into g's table as ``_pairing``
  reads them, and its quantities; ``at_base`` is g's all-base index."""
  (uf, pf, qf), (us, ps, qs) = first, second
  whole, scale = g.nums, denom // g.denom
  entries = sorted((u + v, o, p, alpha, beta)
                   for u, o, alpha in zip(uf, pf, qf)
                   for v, p, beta in zip(us, ps, qs))
  cells, provenance = dict(cells), dict(provenance)
  for _, o, p, alpha, beta in entries:
    defect = (whole[o + p] - whole[o] - whole[at_base + p]) * scale
    key = (alpha, beta)
    if key not in cells:
      cells[key] = defect
      provenance[key] = record
    elif cells[key] != defect:
      raise PairingNotWellDefined({
          "cell": {"a": quantity_to_json(alpha), "b": quantity_to_json(beta)},
          "values": [fraction_to_str(cells[key], denom),
                     fraction_to_str(defect, denom)],
          "probes": [provenance[key], record],
      })
  raise RuntimeError("no conflict found in an inconsistent probe")


def _vec_add(a, b):
  return tuple(x + y for x, y in zip(a, b))


def check_pairing_laws(table: PairingTable) -> dict:
  """Cocycle identity over all probe-covered triples, plus symmetry.

  The cells are read as they are keyed, each value as its integer numerator
  over the values' common denominator; the cocycle pairs (alpha, beta),
  (beta, gamma) are found by indexing the cells by their first argument,
  each as (gamma, beta + gamma, value), so every sum is formed once per
  cell.  Violations are kept as keys; only the reported ones are written.
  """
  cells = table.cells
  nums = dict(zip(cells, _integer_row(cells.values())[0]))
  by_first = {}  # beta -> [(gamma, beta + gamma, value), ...] in table order
  for (b, g), v in nums.items():
    by_first.setdefault(b, []).append((g, _vec_add(b, g), v))

  cocycle_checked = 0
  cocycle_violations = []
  for (a, b), v1 in nums.items():
    ab = _vec_add(a, b)
    for g, bg, v3 in by_first.get(b, ()):
      v2, v4 = nums.get((ab, g)), nums.get((a, bg))
      if v2 is not None and v4 is not None:
        cocycle_checked += 1
        if v1 + v2 != v3 + v4:
          cocycle_violations.append((a, b, g))
  symmetry_checked = 0
  symmetry_violations = []
  for a, b in sorted(nums):
    mirror = nums.get((b, a))
    if mirror is not None:
      symmetry_checked += 1
      if mirror != nums[a, b]:
        symmetry_violations.append((a, b))
  return {
      "cocycle": {"checked": cocycle_checked,
                  "ok": not cocycle_violations,
                  "violations": [
                      {"alpha": quantity_to_json(a),
                       "beta": quantity_to_json(b),
                       "gamma": quantity_to_json(g)}
                      for a, b, g in cocycle_violations[:5]]},
      "symmetry": {"checked": symmetry_checked,
                   "ok": not symmetry_violations,
                   "violations": [
                       {"a": quantity_to_json(a),
                        "b": quantity_to_json(b),
                        "values": [fraction_to_str(cells[a, b]),
                                   fraction_to_str(cells[b, a])]}
                       for a, b in symmetry_violations[:5]]},
  }


# ---------------------------------------------------------------------------
# Splitting


def _chain_splitting(table: PairingTable):
  """Constructive splitting when every probed quantity is an integer multiple
  of one primitive vector: build h along the chain of consecutive cells."""
  zero = table.zero_vector()
  pin = table.cells.get((zero, zero), ZERO)
  ref = next((v for key in table.cells for v in key if any(v)), None)
  if ref is None:
    return {zero: pin}
  lead = next(i for i, x in enumerate(ref) if x != 0)
  # Sums of vectors on ref's line stay on it: refuse a plane before adding.
  if any(x * ref[lead] != v[lead] * y
         for key in table.cells for v in key for x, y in zip(v, ref)):
    return None
  vectors = {v for key in table.cells for v in key}
  vectors.update(_vec_add(alpha, beta) for alpha, beta in table.cells)
  prim = min((v for v in vectors if v[lead] != 0), key=lambda v: abs(v[lead]))
  if prim[lead] < 0:
    prim = tuple(-x for x in prim)
  multiples = {}
  for v in vectors:
    k, rest = divmod(v[lead], prim[lead])
    if rest:
      return None
    multiples[v] = k

  def cell(ka, kb):
    key = (tuple(ka * x for x in prim), tuple(kb * x for x in prim))
    return table.cells.get(key)

  ks = sorted(set(multiples.values()))
  top, bottom = max(ks + [0]), min(ks + [0])
  h_tilde = {0: ZERO, 1: ZERO}
  for k in range(1, top):
    c = cell(k, 1)
    if c is None:
      return None
    h_tilde[k + 1] = h_tilde[k] + h_tilde[1] - (c - pin)
  if bottom < 0:
    c = cell(1, -1)
    if c is None:
      return None
    h_tilde[-1] = c - pin
    for k in range(1, -bottom):
      c = cell(-k, -1)
      if c is None:
        return None
      h_tilde[-k - 1] = h_tilde[-k] + h_tilde[-1] - (c - pin)
  return {v: h_tilde[k] + pin for v, k in multiples.items()}


def _linear_splitting(table: PairingTable):
  """Exact rational solve of h(a) + h(b) - h(a+b) = cell over the probed
  domain, pinned at h(0) = cell(0,0).  When the equations are inconsistent,
  the first leftover row with a nonzero right-hand side yields a verifiable
  certificate (see ``_certificate``).  A leftover row is never rewritten:
  ``rref`` hands back its input row's residual, the input row plus a
  combination of the pivot inputs.

  The unknowns are the quantities as the cells key them and each equation
  is a sparse integer row, its right-hand side the cell's numerator over
  the values' common denominator; the equations are spelled out only in a
  certificate.
  """
  cells = sorted(table.cells.items())
  zero = table.zero_vector()
  pin_value = table.cells.get((zero, zero), ZERO)
  nums, v_denom = _integer_row([val for _, val in cells] + [pin_value])
  unknowns = {zero}
  for a, b in table.cells:
    unknowns.update((a, b, _vec_add(a, b)))
  cols = {v: i for i, v in enumerate(sorted(unknowns))}
  n = len(cols)
  rows = []  # {unknown's column: coefficient, n: right-hand side}
  for ((a, b), _), k in zip(cells, nums):
    row = {n: k}
    for v, x in ((a, 1), (b, 1), (_vec_add(a, b), -1)):
      c = cols[v]
      row[c] = row.get(c, 0) + x
    rows.append(row)
  rows.append({cols[zero]: 1, n: nums[-1]})

  reduced, pivots, order = rref(rows, n)
  rank = len(pivots)
  for k in range(rank, len(rows)):
    if n in reduced[k]:
      combo, contradiction = _certificate(rows, pivots, order[:rank],
                                          order[k], n)

      def equation(i):
        if i == len(cells):
          return {"pin": quantity_to_json(zero),
                  "value": fraction_to_str(pin_value)}
        (alpha, beta), val = cells[i]
        return {"cell": {"a": quantity_to_json(alpha),
                         "b": quantity_to_json(beta)},
                "value": fraction_to_str(val)}

      raise SplittingInfeasible({
          "combination": [
              dict(equation(eq_id), coefficient=fraction_to_str(coef))
              for eq_id, coef in sorted(combo.items()) if coef != 0
          ],
          "contradiction": fraction_to_str(contradiction, v_denom),
      })

  solution = [ZERO] * n
  for row, c in zip(reduced, pivots):
    solution[c] = Fraction(row.get(n, 0), v_denom)
  return {v: solution[i] for v, i in cols.items()}


def _certificate(rows, pivots, inputs, j: int, n: int):
  """The combination of equations that sums to the residual of equation
  ``j``, a row ``rref`` left below the rank, and the contradiction it sums
  to.

  ``rref`` never rewrites a leftover row: it hands back equation j's
  residual e_j + y over the pivot ``inputs`` P, with y * A_P = -A_j on the
  unknowns.  A_P is nonsingular at the pivot columns, so y is unique, and
  it is solved for only on the pivot inputs that equation j reaches
  (Gilbert and Peierls 1988): first those holding one of its pivot
  columns, then, while that subsystem is inconsistent, every pivot input
  holding a column the chosen ones touch.  A consistent subsystem's
  solution, zero elsewhere, solves the whole system, so it is y.  Raises
  ``RuntimeError`` unless the combination cancels every unknown and leaves
  a nonzero right-hand side.
  """
  holders = {c: [] for c in pivots}  # pivot column -> the inputs holding it
  for k, eq_id in enumerate(inputs):
    for c in rows[eq_id]:
      if c in holders:
        holders[c].append(k)
  reach = {c for c in rows[j] if c in holders}
  chosen = []
  while True:
    grown = sorted({k for c in reach for k in holders[c]})
    closed, chosen = grown == chosen, grown
    reach.update(c for k in chosen for c in rows[inputs[k]] if c in holders)
    m = len(chosen)
    system = {c: {} for c in sorted(reach)}  # one equation per pivot column
    for k, i in enumerate(chosen):
      for c, x in rows[inputs[i]].items():
        if c in system:
          system[c][k] = x
    for c, x in rows[j].items():
      if c in system:
        system[c][m] = -x
    solved, solved_pivots, _ = rref(system.values(), m)
    if closed or not any(solved[len(solved_pivots):]):
      break
  combo = {j: Fraction(1)}
  for row, k in zip(solved, solved_pivots):
    combo[inputs[chosen[k]]] = row.get(m, ZERO)
  total = {}  # the combined row: unknowns, then right-hand side
  for eq_id, coef in combo.items():
    for c, x in rows[eq_id].items():
      total[c] = total.get(c, 0) + coef * x
  rhs = total.pop(n, 0)
  if any(total.values()) or not rhs:
    raise RuntimeError("recovered combination does not certify infeasibility")
  return combo, rhs


def _missed_cell(table: PairingTable, h: dict):
  """The first cell (alpha, beta) where h(alpha) + h(beta) - h(alpha + beta)
  is not the table's value, or None."""
  return next((cell for cell, val in table.cells.items()
               if h[cell[0]] + h[cell[1]] - h[_vec_add(*cell)] != val), None)


def solve_splitting(table: PairingTable) -> dict:
  """Split the table as h(a) + h(b) - h(a+b), or raise with a certificate.

  One-dimensional quantity monoids get the constructive chain iteration;
  everything else (and any chain gap) falls back to the exact linear solve.
  The result is verified against every cell before being returned.
  """
  method = "chain-iteration"
  h = _chain_splitting(table)
  if h is None or _missed_cell(table, h):
    method = "linear-solve"
    h = _linear_splitting(table)
    missed = _missed_cell(table, h)
    if missed:
      raise RuntimeError("linear splitting misses the cell {}, {}".format(
          *missed))
  return {"h": h, "method": method}


# ---------------------------------------------------------------------------
# Uniformization


def uniformize(f: LocalFunction, window: Window, inter: Interaction, basis,
               radius: int, probes=None) -> dict:
  """Correct f by a function of the conserved quantities.

  Returns g = f + h(quantity) restricted to a certificate region, together
  with the pairing table, the splitting, and a uniformity certificate for g
  at scale ``radius``.  The certificate is relative to this window: it
  states that every exact-support piece of g on the certificate region has
  diameter at most ``radius`` and that the ball-local criterion holds there.
  """
  if probes is None:
    probes = default_probes(window, inter, radius)
  table = compute_pairing(f, window, inter, basis, radius, probes)
  split = solve_splitting(table)
  h = split["h"]
  cert_region = tuple(sorted(max((p[0] for p in probes), key=len)))
  g = _quantity_corrected(f, cert_region, basis, h,
                          "certificate region quantity {} not probed")
  uniform = is_uniform(g, window.locale, radius)
  criterion = all(
      uniformity_criterion(g, window.locale, cert_region, x, radius)
      for x in cert_region)
  return {
      "g": g,
      "h": h,
      "table": table,
      "split_method": split["method"],
      "uniform": uniform,
      "criterion_ok": criterion,
      "scope": {
          "certificate_region": [window.locale.encode_vertex(v)
                                 for v in cert_region],
          "radius": radius,
      },
  }


def _quantity_corrected(f: LocalFunction, sites, basis, h: dict,
                        missing: str) -> LocalFunction:
  """f read on ``sites`` plus h of their quantity vector, exactly.

  ``missing`` words the ``InputError`` for a quantity h does not cover,
  with ``{}`` standing for that quantity.
  """
  denom = lcm(f.denom, *(v.denominator for v in h.values()))
  shift = {q: v.numerator * (denom // v.denominator) for q, v in h.items()}
  nums = []
  for k, q in zip(_over(f, sites, denom),
                  _quantity_sums(sites, basis, f.n_states)):
    try:
      nums.append(k + shift[q])
    except KeyError:
      raise InputError(missing.format(quantity_to_json(q))) from None
  return LocalFunction._exact(tuple(sites), f.n_states, f.base, nums, denom)


# ---------------------------------------------------------------------------
# Degree zero


def h_zero_report(fib: dict, basis) -> dict:
  """Constant-on-components functions versus spans of conserved quantities,
  read off the ``fibers_report`` ``fib``."""
  return {
      "h0_dimension": fib["n_components"],
      "c_phi": len(basis),
      "n_quantity_fibers": fib["n_fibers"],
      "quantities_separate_components": fib["components_separated"]
                                        and fib["fibers_connected"],
      "fiber_witness": fib["witness"],
      "n_configs": fib["n_configs"],
  }


# ---------------------------------------------------------------------------
# The ordering obstruction on the line


def inversion_count_function(window: Window, inter: Interaction,
                             low_value=1, high_value=2) -> LocalFunction:
  """f(eta) = number of ordered pairs x < y with eta_x = low and eta_y = high.

  Its differential is local at scale zero, yet f itself has exact-support
  pieces of every diameter: the model obstruction to uniformization on the
  line.
  """
  low = inter.state_index(low_value)
  high = inter.state_index(high_value)
  s = inter.n_states
  # Inversion and high-state counts of every suffix configuration in index
  # order; a low state at a new leading site opens one inversion per high.
  inversions, highs = [0], [0]
  for _ in window.vertices:
    new_inversions, new_highs = [], []
    for d in range(s):
      new_inversions += map(add, inversions, highs) if d == low else inversions
      new_highs += map((1).__add__, highs) if d == high else highs
    inversions, highs = new_inversions, new_highs
  return LocalFunction._exact(window.vertices, s, inter.base, inversions)


def ordered_flux_form(window: Window, inter: Interaction,
                      low_value=1, high_value=2):
  """The differential of the inversion count: a radius-zero closed form.

  Both orientations of an edge carry the same two-site table: +1 when the
  sorted pair reads (high, low), -1 when it reads (low, high).
  """
  low = inter.state_index(low_value)
  high = inter.state_index(high_value)
  nums = [((a, b) == (high, low)) - ((a, b) == (low, high))
          for a, b in product(range(inter.n_states), repeat=2)]
  fns = {(u, v): LocalFunction._exact(tuple(sorted((u, v))), inter.n_states,
                                      inter.base, nums)
         for u, v in window.edges}
  return Form(inter.n_states, inter.base, fns, 0)


# ---------------------------------------------------------------------------
# JSON


def pairing_table_to_json(table: PairingTable) -> dict:
  text = {q: quantity_to_json(q) for key in table.cells for q in key}
  cells = []
  for (alpha, beta), val in sorted(table.cells.items()):
    cells.append({
        "a": list(text[alpha]),
        "b": list(text[beta]),
        "v": fraction_to_str(val),
    })
  return {"radius": table.radius, "cells": cells, "probes": table.probes}


def pairing_table_from_json(obj, basis) -> PairingTable:
  def is_cell(c):
    return isinstance(c, dict) and "v" in c and all(
        isinstance(c.get(k), list) and len(c[k]) == len(basis) for k in "ab")

  if (not isinstance(obj, dict) or not isinstance(obj.get("cells"), list)
      or not all(map(is_cell, obj["cells"]))
      or not isinstance(obj.get("probes", []), list)):
    raise InputError(f"bad pairing table {obj!r}")
  table = PairingTable(basis=tuple(basis), radius=manifest_int(
      obj.get("radius", 0), "pairing radius", 0))
  for cell in obj["cells"]:
    key = tuple(tuple(fraction_from_str(x) for x in cell[k]) for k in "ab")
    value = fraction_from_str(cell["v"])
    if table.cells.setdefault(key, value) != value:
      raise InputError(
          f"pairing cell a={cell['a']!r} b={cell['b']!r} carries two values, "
          f"{fraction_to_str(table.cells[key])} and {fraction_to_str(value)}")
  table.probes = list(obj.get("probes", ()))
  return table


def splitting_to_json(split: dict) -> dict:
  return {
      "method": split["method"],
      "h": [{"q": quantity_to_json(q), "v": fraction_to_str(v)}
            for q, v in sorted(split["h"].items())],
  }
