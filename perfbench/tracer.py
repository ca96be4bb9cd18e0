"""Spans around configcalc's public functions, recorded from outside the library.

``Tracer.install`` rebinds every traced function name in every ``configcalc``
module namespace that holds it, so calls made inside the library (for example
``varadhan_decompose`` calling ``integrate``) are traced as well as the
benchmark's own calls.  ``uninstall`` restores the original bindings, so an
untraced pass runs the library exactly as shipped.

A span's self time is its duration minus the time its child spans cover.
Counts are computed here, from each call's arguments and result, never by the
library itself.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

LAYERS = ("locales", "interactions", "configspace", "calculus", "cohomology",
          "decomposition", "cli", "serialize")

# Public helpers that run once per configuration, table entry, vertex or
# value.  A span around each call would cost more than the work it measures,
# so their time is counted as self time of the function that calls them.
PER_ELEMENT = frozenset({
    "configspace.n_configs", "configspace.digit_powers",
    "configspace.index_of", "configspace.digits_of",
    "configspace.all_configs", "configspace.apply_edge",
    "configspace.edge_positions", "configspace.digits_from_sites",
    "configspace.config_to_json", "configspace.config_from_json",
    "configspace.quantity_of", "configspace.quantity_to_json",
    "configspace.zero_quantity", "configspace.swapped",
    "calculus.support_diameter", "calculus.edge_distance",
    "cohomology.set_distance", "decomposition.tile_of",
    "interactions.quantity_of_state", "interactions.exchange_witness",
    "serialize.fraction_to_str", "serialize.fraction_from_str",
})

# Time metrics: the summed duration of every span of these functions.
SPAN_TIMES = {
    "calculus.is_closed": "calculus.scan_s",
    "calculus.integrate": "calculus.scan_s",
    "calculus.expansion": "calculus.expansion_s",
    "calculus.gradient": "calculus.gradient_s",
    "calculus.form_axioms_report": "calculus.axioms_s",
    "cohomology.compute_pairing": "cohomology.pairing_s",
    "cohomology.check_pairing_laws": "cohomology.laws_s",
    "cohomology.solve_splitting": "cohomology.splitting_s",
    "cohomology.uniformize": "cohomology.uniformize_s",
    "decomposition.extract_cocycle": "decomposition.extract_s",
    "decomposition.synthesized_form": "decomposition.synth_s",
    "serialize.dump_json": "serialize.dump_s",
    "serialize.load_json": "serialize.load_s",
}


def _configs(window, inter):
  return inter.n_states ** window.n_sites


def _count_components(args, kwargs, result, exc):
  return {"configspace.configs": _configs(args[0], args[1])}


def _count_is_closed(args, kwargs, result, exc):
  # A scan that stops at a witness cycle has no fixed configuration count.
  if exc is None and result["closed"]:
    return {"calculus.scan_configs": _configs(args[1], args[2])}
  return None


def _count_integrate(args, kwargs, result, exc):
  if exc is None:
    return {"calculus.scan_configs": _configs(args[1], args[2])}
  return None


def _count_expansion(args, kwargs, result, exc):
  if exc is None:
    return {"calculus.expansion_subsets": 2 ** len(args[0].support),
            "calculus.expansion_pieces": len(result)}
  return None


def _count_gradient(args, kwargs, result, exc):
  f, edge = args[0], args[1]
  return {"calculus.gradient_cells":
          f.n_states ** len(set(f.support) | set(edge))}


def _count_pairing(args, kwargs, result, exc):
  if exc is not None:
    return None
  n_states = args[2].n_states
  assignments = sum(n_states ** (len(p["first"]) + len(p["second"]))
                    for p in result.probes)
  return {"cohomology.pairing_assignments": assignments,
          "cohomology.pairing_cells": len(result.cells)}


def _count_splitting(args, kwargs, result, exc):
  table = args[0]
  unknowns = {table.zero_vector()}
  for alpha, beta in table.cells:
    unknowns.update((alpha, beta, tuple(a + b for a, b in zip(alpha, beta))))
  counts = {"cohomology.splitting_unknowns": len(unknowns)}
  certificate = getattr(exc, "certificate", None)
  if certificate is not None:
    counts["cohomology.certificate_terms"] = len(certificate["combination"])
  return counts


def _count_decompose(args, kwargs, result, exc):
  if exc is None:
    return {"decomposition.verify_edges": result["residual"]["edges_checked"],
            "decomposition.sub_window_sites": result["sub_window_sites"]}
  return None


def _count_cli(args, kwargs, result, exc):
  argv = list(args[0]) if args else list(kwargs.get("argv") or ())
  if "--out" in argv:
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
      return {"cli.report_bytes": os.path.getsize(out)}
  return None


COUNTERS = {
    "configspace.components": _count_components,
    "calculus.is_closed": _count_is_closed,
    "calculus.integrate": _count_integrate,
    "calculus.expansion": _count_expansion,
    "calculus.gradient": _count_gradient,
    "cohomology.compute_pairing": _count_pairing,
    "cohomology.solve_splitting": _count_splitting,
    "decomposition.varadhan_decompose": _count_decompose,
    "cli.main": _count_cli,
}


class Span:
  __slots__ = ("name", "layer", "duration", "self_time", "depth", "size",
               "counts")

  def __init__(self, name, layer, duration, self_time, depth, size, counts):
    self.name = name
    self.layer = layer
    self.duration = duration
    self.self_time = self_time
    self.depth = depth
    self.size = size
    self.counts = counts


class Tracer:
  """Records one span per call of a traced configcalc function."""

  def __init__(self, package):
    self.spans = []
    self.size = None          # size label of the task being run
    self._stack = []          # child time accumulated per open span
    wrappers = {}
    for layer in LAYERS:
      module = getattr(package, layer)
      for attr, obj in vars(module).items():
        if (attr.startswith("_") or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__):
          continue
        name = f"{layer}.{attr}"
        if name not in PER_ELEMENT:
          wrappers[obj] = self._wrap(obj, layer, name)
    # (namespace, attribute, original, wrapper) for every binding of a
    # traced function, in the package and in each of its modules.
    self._bindings = []
    for module in (package, *(getattr(package, l) for l in LAYERS)):
      for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj in wrappers:
          self._bindings.append((module, attr, obj, wrappers[obj]))

  def install(self):
    for module, attr, _original, wrapper in self._bindings:
      setattr(module, attr, wrapper)

  def uninstall(self):
    for module, attr, original, _wrapper in self._bindings:
      setattr(module, attr, original)

  def _wrap(self, fn, layer, name):
    clock = time.perf_counter
    stack = self._stack
    spans = self.spans
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
      stack.append(0.0)
      start = clock()
      result = exc = None
      try:
        result = fn(*args, **kwargs)
        return result
      except Exception as err:
        exc = err
        raise
      finally:
        duration = clock() - start
        child = stack.pop()
        if stack:
          stack[-1] += duration
        counts = counter(args, kwargs, result, exc) if counter else None
        spans.append(Span(name, layer, duration, duration - child,
                          len(stack), self.size, counts))

    return traced


def layer_metrics(spans, sizes_of: dict) -> dict:
  """Per-layer metrics of a list of spans.

  ``sizes_of`` maps a metric to the size labels it is also reported for, as
  ``<metric>.<size>``.
  """
  out = _aggregate(spans)
  parts = {size: _aggregate([s for s in spans if s.size == size])
           for sizes in sizes_of.values() for size in sizes}
  for metric, sizes in sizes_of.items():
    for size in sizes:
      out[f"{metric}.{size}"] = parts[size][metric]
  return out


def _aggregate(spans) -> dict:
  m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
  for metric in SPAN_TIMES.values():
    m[metric] = 0.0
  for counter_metric in ("configspace.configs", "calculus.scan_configs",
                         "calculus.expansion_subsets",
                         "calculus.expansion_pieces", "calculus.gradient_cells",
                         "cohomology.pairing_assignments",
                         "cohomology.pairing_cells",
                         "cohomology.splitting_unknowns",
                         "cohomology.certificate_terms",
                         "decomposition.verify_edges",
                         "decomposition.sub_window_sites", "cli.report_bytes"):
    m[counter_metric] = 0
  for s in spans:
    m[f"{s.layer}.self_s"] += s.self_time
    metric = SPAN_TIMES.get(s.name)
    if metric is not None:
      m[metric] += s.duration
    if s.counts:
      for key, value in s.counts.items():
        m[key] += value
  m["configspace.configs_per_s"] = _ratio(m["configspace.configs"],
                                          m["configspace.self_s"])
  m["calculus.scan_configs_per_s"] = _ratio(m["calculus.scan_configs"],
                                            m["calculus.scan_s"])
  m["calculus.expansion_kept_ratio"] = _ratio(m["calculus.expansion_pieces"],
                                              m["calculus.expansion_subsets"])
  m["cohomology.pairing_cell_ratio"] = _ratio(
      m["cohomology.pairing_cells"], m["cohomology.pairing_assignments"])
  return m


def _ratio(num, den):
  return num / den if den else 0.0
