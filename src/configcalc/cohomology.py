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

from .calculus import (Form, LocalFunction, _gather, is_uniform, restrict,
                       uniformity_criterion)
from .configspace import _quantity_table, fibers_report, quantity_to_json
from .interactions import Interaction
from .linalg import rref
from .locales import Euclidean, LatticeLocale, Locale, Window, transferability
from .serialize import (InputError, WitnessError, fraction_from_str,
                        fraction_to_str, manifest_int)

ZERO = Fraction(0)


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
  cells: dict = field(default_factory=dict)   # (alpha, beta) -> Fraction
  probes: list = field(default_factory=list)  # provenance, JSON-ready

  def zero_vector(self):
    return tuple(ZERO for _ in self.basis)


def set_distance(first, second, locale: Locale) -> int:
  return min(locale.distance(a, b) for a in first for b in second)


# ---------------------------------------------------------------------------
# Probe plans


def _truncated_ball(window: Window, center, radius: int):
  return tuple(v for v in window.locale.ball(center, radius) if v in window)


def default_probes(window: Window, inter: Interaction, radius: int,
                   ball_radius: int = 1, probe_budget: int = 200_000) -> list:
  """Deterministic list of probe pairs (first, second) inside the window.

  On the line the first set always sits to the left of the second -- the two
  half-spaces a separated pair leaves behind are not interchangeable there,
  so the argument order is pinned by position.  In higher dimension mirrored
  pairs are included, which is what makes the symmetry check meaningful.
  """
  locale = window.locale
  if isinstance(locale, Euclidean) and locale.d == 1:
    oriented = True
  elif isinstance(locale, LatticeLocale):
    cls = transferability(locale)["classification"]
    if cls == "weakly-only":
      raise InputError(
          f"no probe orientation convention for split locale {locale.name}; "
          "supply explicit probes")
    oriented = False
  else:
    raise InputError(
        f"default probes need a lattice locale, not {locale.name}; "
        "supply explicit probes")

  center = window.vertices[len(window.vertices) // 2]
  d = locale.coord_dim()
  pairs = []
  seen = set()

  def try_pair(first, second):
    if not first or not second:
      return
    if set_distance(first, second, locale) <= radius:
      return
    size = len(set(first) | set(second))
    if inter.n_states ** size > probe_budget:
      return
    key = (tuple(first), tuple(second))
    if key not in seen:
      seen.add(key)
      pairs.append(key)

  for axis in range(d):
    for r1, r2 in ((ball_radius, ball_radius), (ball_radius, 0),
                   (ball_radius + 1, 0), (0, 0)):
      gap = radius + 1
      off1 = [0] * d
      off2 = [0] * d
      off1[axis] = -(r1 + gap // 2)
      off2[axis] = r2 + (gap + 1) // 2
      extra = r1 + r2 + gap - (off2[axis] - off1[axis])
      if extra > 0:
        off2[axis] += extra
      c1 = locale.translate(center, tuple(off1))
      c2 = locale.translate(center, tuple(off2))
      if c1 not in window or c2 not in window:
        continue
      first = _truncated_ball(window, c1, r1)
      second = _truncated_ball(window, c2, r2)
      try_pair(first, second)
      if not oriented:
        try_pair(second, first)
  if not pairs:
    raise InputError("window too small to place any probe pair")
  return pairs


# ---------------------------------------------------------------------------
# The pairing table


def compute_pairing(f: LocalFunction, window: Window, inter: Interaction,
                    basis, radius: int, probes=None,
                    probe_budget: int = 200_000) -> PairingTable:
  """Exact pairing table of f over the probe plan.

  Every assignment over each probe pair is enumerated; the defect must agree
  across probes cell by cell, otherwise ``PairingNotWellDefined`` is raised
  with both witnesses.
  """
  if probes is None:
    probes = default_probes(window, inter, radius, probe_budget=probe_budget)
  locale = window.locale
  table = PairingTable(basis=tuple(basis), radius=radius)
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
    if inter.n_states ** len(union) > probe_budget:
      raise InputError(f"probe pair over {len(union)} sites exceeds budget")
    table.probes.append({
        "first": [locale.encode_vertex(v) for v in first],
        "second": [locale.encode_vertex(v) for v in second],
        "distance": dist,
    })
    # Every table runs over the configurations of the union in index order.
    cells = zip(_quantity_table(union, basis, inter.n_states, first),
                _quantity_table(union, basis, inter.n_states, second),
                _gather(f, union), _gather(restrict(f, first), union),
                _gather(restrict(f, second), union))
    for alpha, beta, whole, on_first, on_second in cells:
      defect = whole - on_first - on_second
      key = (alpha, beta)
      if key in table.cells:
        if table.cells[key] != defect:
          raise PairingNotWellDefined({
              "cell": {"a": quantity_to_json(alpha), "b": quantity_to_json(beta)},
              "values": [fraction_to_str(table.cells[key]),
                         fraction_to_str(defect)],
              "probes": [provenance[key], table.probes[-1]],
          })
      else:
        table.cells[key] = defect
        provenance[key] = table.probes[-1]
  return table


def _vec_add(a, b):
  return tuple(x + y for x, y in zip(a, b))


def check_pairing_laws(table: PairingTable) -> dict:
  """Cocycle identity over all probe-covered triples, plus symmetry."""
  cells = table.cells
  cocycle_checked = 0
  cocycle_violations = []
  for (alpha, beta), v1 in cells.items():
    for (beta2, gamma), v3 in cells.items():
      if beta2 != beta:
        continue
      k2 = (_vec_add(alpha, beta), gamma)
      k4 = (alpha, _vec_add(beta, gamma))
      if k2 in cells and k4 in cells:
        cocycle_checked += 1
        if v1 + cells[k2] != v3 + cells[k4]:
          cocycle_violations.append({
              "alpha": quantity_to_json(alpha),
              "beta": quantity_to_json(beta),
              "gamma": quantity_to_json(gamma),
          })
  symmetry_checked = 0
  symmetry_violations = []
  for (alpha, beta), v in sorted(cells.items()):
    mirror = (beta, alpha)
    if mirror in cells:
      symmetry_checked += 1
      if cells[mirror] != v:
        symmetry_violations.append({
            "a": quantity_to_json(alpha),
            "b": quantity_to_json(beta),
            "values": [fraction_to_str(v), fraction_to_str(cells[mirror])],
        })
  return {
      "cocycle": {"checked": cocycle_checked,
                  "ok": not cocycle_violations,
                  "violations": cocycle_violations[:5]},
      "symmetry": {"checked": symmetry_checked,
                   "ok": not symmetry_violations,
                   "violations": symmetry_violations[:5]},
  }


# ---------------------------------------------------------------------------
# Splitting


def _chain_splitting(table: PairingTable):
  """Constructive splitting when every probed quantity is an integer multiple
  of one primitive vector: build h along the chain of consecutive cells."""
  vectors = set()
  for alpha, beta in table.cells:
    vectors.update((alpha, beta, _vec_add(alpha, beta)))
  nonzero = [v for v in vectors if any(x != 0 for x in v)]
  zero = table.zero_vector()
  pin = table.cells.get((zero, zero), ZERO)
  if not nonzero:
    return {zero: pin}
  lead = next(i for i, x in enumerate(nonzero[0]) if x != 0)
  if any(v[lead] == 0 for v in nonzero):
    return None
  prim = min(nonzero, key=lambda v: abs(v[lead]))
  if prim[lead] < 0:
    prim = tuple(-x for x in prim)
  multiples = {}
  for v in vectors:
    k = v[lead] / prim[lead]
    if k.denominator != 1 or tuple(k * x for x in prim) != v:
      return None
    multiples[v] = int(k)

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
  h = {}
  for v, k in multiples.items():
    if k not in h_tilde:
      return None
    h[v] = h_tilde[k] + pin
  return h


def _linear_splitting(table: PairingTable):
  """Exact rational solve of h(a) + h(b) - h(a+b) = cell over the probed
  domain, pinned at h(0) = cell(0,0); tracks the combination of equations so
  that inconsistency yields a verifiable certificate."""
  unknowns = set()
  for alpha, beta in table.cells:
    unknowns.update((alpha, beta, _vec_add(alpha, beta)))
  zero = table.zero_vector()
  unknowns.add(zero)
  cols = {v: i for i, v in enumerate(sorted(unknowns))}
  n = len(cols)
  rows = []  # coefficients of the unknowns, then the right-hand side
  equations = []
  for (alpha, beta), val in sorted(table.cells.items()):
    row = [ZERO] * n + [val]
    row[cols[alpha]] += 1
    row[cols[beta]] += 1
    row[cols[_vec_add(alpha, beta)]] -= 1
    rows.append(row)
    equations.append({"cell": {"a": quantity_to_json(alpha),
                               "b": quantity_to_json(beta)},
                      "value": fraction_to_str(val)})
  pin_value = table.cells.get((zero, zero), ZERO)
  row = [ZERO] * n + [pin_value]
  row[cols[zero]] += 1
  rows.append(row)
  equations.append({"pin": quantity_to_json(zero),
                    "value": fraction_to_str(pin_value)})

  reduced, pivots, combos = rref(rows, n)
  for row, combo in zip(reduced[len(pivots):], combos[len(pivots):]):
    if row[n] != 0:
      certificate = {
          "combination": [
              dict(equations[eq_id], coefficient=fraction_to_str(coef))
              for eq_id, coef in sorted(combo.items()) if coef != 0
          ],
          "contradiction": fraction_to_str(row[n]),
      }
      raise SplittingInfeasible(certificate)

  solution = [ZERO] * n
  for row, c in zip(reduced, pivots):
    solution[c] = row[n]
  return {v: solution[i] for v, i in cols.items()}


def solve_splitting(table: PairingTable) -> dict:
  """Split the table as h(a) + h(b) - h(a+b), or raise with a certificate.

  One-dimensional quantity monoids get the constructive chain iteration;
  everything else (and any chain gap) falls back to the exact linear solve.
  The result is verified against every cell before being returned.
  """
  method = "chain-iteration"
  h = _chain_splitting(table)
  if h is not None:
    for (alpha, beta), val in table.cells.items():
      if h[alpha] + h[beta] - h[_vec_add(alpha, beta)] != val:
        h = None
        break
  if h is None:
    method = "linear-solve"
    h = _linear_splitting(table)
    for (alpha, beta), val in table.cells.items():
      if h[alpha] + h[beta] - h[_vec_add(alpha, beta)] != val:
        raise RuntimeError(f"linear splitting misses the cell {alpha}, {beta}")
  zero = table.zero_vector()
  return {"h": h, "method": method,
          "pin": h.get(zero, ZERO), "domain": sorted(h)}


# ---------------------------------------------------------------------------
# Uniformization


def uniformize(f: LocalFunction, window: Window, inter: Interaction, basis,
               radius: int, probes=None, cert_region=None,
               probe_budget: int = 200_000) -> dict:
  """Correct f by a function of the conserved quantities.

  Returns g = f + h(quantity) restricted to a certificate region, together
  with the pairing table, the splitting, and a uniformity certificate for g
  at scale ``radius``.  The certificate is relative to this window: it
  states that every exact-support piece of g on the certificate region has
  diameter at most ``radius`` and that the ball-local criterion holds there.
  """
  if probes is None:
    probes = default_probes(window, inter, radius, probe_budget=probe_budget)
  table = compute_pairing(f, window, inter, basis, radius, probes,
                          probe_budget)
  split = solve_splitting(table)
  h = split["h"]
  if cert_region is None:
    cert_region = max((p[0] for p in probes), key=len)
  cert_region = tuple(sorted(cert_region))
  vals = []
  for v, q in zip(_gather(f, cert_region),
                  _quantity_table(cert_region, basis, inter.n_states)):
    if q not in h:
      raise InputError(
          f"certificate region quantity {quantity_to_json(q)} not probed")
    vals.append(v + h[q])
  g = LocalFunction(cert_region, inter.n_states, inter.base, tuple(vals))
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


# ---------------------------------------------------------------------------
# Degree zero


def h_zero_report(window: Window, inter: Interaction, basis,
                  budget: int = 2_000_000) -> dict:
  """Constant-on-components functions versus spans of conserved quantities."""
  fib = fibers_report(window, inter, basis, budget)
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
  n = window.n_sites
  vals = []
  for digits in product(range(inter.n_states), repeat=n):
    count = 0
    for i in range(n):
      if digits[i] == low:
        for j in range(i + 1, n):
          if digits[j] == high:
            count += 1
    vals.append(Fraction(count))
  return LocalFunction(window.vertices, inter.n_states, inter.base, tuple(vals))


def ordered_flux_form(window: Window, inter: Interaction,
                      low_value=1, high_value=2):
  """The differential of the inversion count: a radius-zero closed form.

  Both orientations of an edge carry the same two-site table: +1 when the
  sorted pair reads (high, low), -1 when it reads (low, high).
  """
  low = inter.state_index(low_value)
  high = inter.state_index(high_value)
  vals = tuple(Fraction(((a, b) == (high, low)) - ((a, b) == (low, high)))
               for a, b in product(range(inter.n_states), repeat=2))
  fns = {(u, v): LocalFunction(tuple(sorted((u, v))), inter.n_states,
                               inter.base, vals)
         for u, v in window.edges}
  return Form(inter.n_states, inter.base, fns, 0)


# ---------------------------------------------------------------------------
# JSON


def pairing_table_to_json(table: PairingTable) -> dict:
  cells = []
  for (alpha, beta), val in sorted(table.cells.items()):
    cells.append({
        "a": quantity_to_json(alpha),
        "b": quantity_to_json(beta),
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
    alpha = tuple(fraction_from_str(x) for x in cell["a"])
    beta = tuple(fraction_from_str(x) for x in cell["b"])
    table.cells[(alpha, beta)] = fraction_from_str(cell["v"])
  table.probes = list(obj.get("probes", ()))
  return table


def splitting_to_json(split: dict) -> dict:
  return {
      "method": split["method"],
      "h": [{"q": quantity_to_json(q), "v": fraction_to_str(v)}
            for q, v in sorted(split["h"].items())],
  }
