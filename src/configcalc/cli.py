"""Batch front-end: every operation behind one manifest-driven command.

Reports are single deterministic JSON documents (sorted keys, rationals as
"p/q" strings).  Exit codes are machine-readable: 0 means every check the
command ran passed, 1 means a structural property failed and the report
carries a witness, 2 means the input or a budget was bad.
"""

from __future__ import annotations

import argparse
import sys

from .calculus import (_pieces_radius, _pieces_uniformity, differential,
                       expansion, form_axioms_report, form_from_json,
                       form_to_json, is_closed, integrate,
                       local_function_from_json, local_function_to_json)
from .cohomology import (DEFAULT_PROBE_BUDGET, check_pairing_laws,
                         compute_pairing, default_probes, h_zero_report,
                         inversion_count_function, ordered_flux_form,
                         pairing_table_from_json, pairing_table_to_json,
                         solve_splitting, splitting_to_json, uniformize)
from .configspace import DEFAULT_BUDGET, fibers_report, guard_budget
from .decomposition import (DEFAULT_SUB_BUDGET, TranslationAction,
                            build_omega_rho,
                            cocycle_from_json, cocycle_to_json,
                            counterexample_report, extract_cocycle,
                            is_shift_invariant, synthesized_form,
                            varadhan_decompose)
from .interactions import (basis_to_json, check_validity, conserved_basis,
                           interaction_from_json, interaction_to_json)
from .locales import locale_from_json, transferability, window_from_json
from .serialize import (InputError, WitnessError, dump_json, load_json,
                        manifest_int)


# ---------------------------------------------------------------------------
# Manifest access


def _need(man: dict, key: str):
  if key not in man:
    raise InputError(f"manifest is missing the '{key}' entry")
  return man[key]


def _locale(man):
  return locale_from_json(_need(man, "locale"))


def _interaction(man):
  return interaction_from_json(_need(man, "interaction"))


def _window(man, locale):
  return window_from_json(locale, _need(man, "window"))


def _setting(man):
  """The manifest's interaction, locale, window and conserved basis."""
  inter = _interaction(man)
  locale = _locale(man)
  return inter, locale, _window(man, locale), conserved_basis(inter)


def _budget(man, args) -> int:
  value = args.budget if args.budget is not None else man.get(
      "budget", DEFAULT_BUDGET)
  return manifest_int(value, "budget", 1)


def _probe_key(man, name: str) -> int:
  """The manifest's probe plan entry ``name``, or its default."""
  plan = man.get("probe", {})
  if not isinstance(plan, dict):
    raise InputError(f"bad probe plan {plan!r}")
  default = DEFAULT_PROBE_BUDGET if name == "budget" else 1
  return manifest_int(plan.get(name, default), f"probe {name}", 0)


def _planned_probes(man, win, inter):
  """The manifest's probe plan and the default probes it places."""
  plan = {name: _probe_key(man, name)
          for name in ("radius", "ball_radius", "budget")}
  return plan, default_probes(win, inter, plan["radius"],
                              ball_radius=plan["ball_radius"],
                              probe_budget=plan["budget"])


def _function(man, args, window, inter):
  obj = _need(man, "function")
  if isinstance(obj, dict) and "builtin" in obj:
    name = obj["builtin"]
    if name == "inversion-count":
      guard_budget(window, inter, _budget(man, args))
      return inversion_count_function(window, inter,
                                      low_value=obj.get("low", 1),
                                      high_value=obj.get("high", 2))
    raise InputError(f"unknown builtin function {name!r}")
  return local_function_from_json(obj, window.locale, inter)


def _action(man, locale) -> TranslationAction:
  spec = _need(man, "action")
  if (not isinstance(spec, dict) or not isinstance(spec.get("generators"), list)
      or not all(isinstance(g, list) for g in spec["generators"])):
    raise InputError(f"bad action {spec!r}")
  gens = tuple(tuple(manifest_int(x, "generator entry") for x in g)
               for g in spec["generators"])
  return TranslationAction(locale, gens)


def _domain(man, locale) -> tuple:
  spec = _need(man, "domain")
  if not isinstance(spec, list) or not spec:
    raise InputError(f"bad domain {spec!r}")
  return tuple(sorted(locale.decode_vertex(v) for v in spec))


def _flux_spec(man, locale) -> tuple:
  """The manifest's cocycle, action and domain, read in that order."""
  return (cocycle_from_json(_need(man, "cocycle")), _action(man, locale),
          _domain(man, locale))


def _form(man, args, window, inter, basis):
  obj = _need(man, "form")
  if isinstance(obj, dict) and "builtin" in obj:
    name = obj["builtin"]
    if name == "ordered-flux":
      return ordered_flux_form(window, inter, low_value=obj.get("low", 1),
                               high_value=obj.get("high", 2))
    if name == "differential":
      f = _function(man, args, window, inter)
      return differential(f, window, inter)
    if name == "omega-rho":
      return build_omega_rho(*_flux_spec(man, window.locale), window, inter,
                             basis)
    if name == "synthesized":
      f = _function(man, args, window, inter)
      return synthesized_form(f, *_flux_spec(man, window.locale), window,
                              inter, basis)
    raise InputError(f"unknown builtin form {name!r}")
  return form_from_json(obj, window, inter)


# ---------------------------------------------------------------------------
# Command handlers: manifest -> (payload, exit code)


def _cmd_consv(man, args):
  inter = _interaction(man)
  basis = conserved_basis(inter)
  return {
      "interaction": interaction_to_json(inter),
      "c_phi": len(basis),
      "basis": basis_to_json(basis),
  }, 0


def _cmd_validate(man, args):
  inter = _interaction(man)
  report = check_validity(inter)
  return {
      "interaction": interaction_to_json(inter),
      "validity": report,
  }, 0 if report["valid"] else 1


def _fibers(man, args):
  """The manifest's basis, its fibers report and the degree-zero report read
  off it, and the exit code of both: 0 when the conserved quantities
  separate exactly the transition components."""
  inter, _, win, basis = _setting(man)
  fib = fibers_report(win, inter, basis, _budget(man, args))
  h0 = h_zero_report(fib, basis)
  return basis, fib, h0, 0 if h0["quantities_separate_components"] else 1


def _cmd_irreducible(man, args):
  basis, fib, _, code = _fibers(man, args)
  return {"fibers": fib, "basis": basis_to_json(basis)}, code


def _cmd_expand(man, args):
  inter, locale, win, _ = _setting(man)
  f = _function(man, args, win, inter)
  pieces = expansion(f, budget=_budget(man, args))
  pieces_json = []
  for supp, piece in pieces.items():  # by size, then support
    pieces_json.append({
        "sites": [locale.encode_vertex(v) for v in supp],
        "fn": local_function_to_json(piece, locale),
    })
  return {
      "function": local_function_to_json(f, locale),
      "pieces": pieces_json,
      "n_pieces": len(pieces_json),
      "exact_support_radius": _pieces_radius(pieces, locale),
      "uniform_at_probe_radius": _pieces_uniformity(
          pieces, locale, _probe_key(man, "radius")),
  }, 0


def _cmd_diff(man, args):
  inter, locale, win, _ = _setting(man)
  f = _function(man, args, win, inter)
  form = differential(f, win, inter)
  return {
      "function": local_function_to_json(f, locale),
      "form": form_to_json(form, win),
      "axioms": form_axioms_report(form, win, inter),
  }, 0


def _cmd_closed(man, args):
  inter, locale, win, basis = _setting(man)
  form = _form(man, args, win, inter, basis)
  report = is_closed(form, win, inter, budget=_budget(man, args))
  return {"closed": report}, 0 if report["closed"] else 1


def _cmd_integrate(man, args):
  inter, locale, win, basis = _setting(man)
  form = _form(man, args, win, inter, basis)
  f, meta = integrate(form, win, inter, budget=_budget(man, args))
  return {
      "potential": local_function_to_json(f, locale),
      "n_components": meta["n_components"],
      "pins": meta["pins"],
  }, 0


def _probed_pairing(man, args):
  """The manifest's conserved basis, probe plan and the pairing table of its
  function, read as interaction, locale, window, function, plan."""
  inter, _, win, basis = _setting(man)
  f = _function(man, args, win, inter)
  plan, probes = _planned_probes(man, win, inter)
  return basis, plan, compute_pairing(f, win, inter, basis, plan["radius"],
                                      probes, plan["budget"])


def _cmd_pairing(man, args):
  basis, plan, table = _probed_pairing(man, args)
  laws = check_pairing_laws(table)
  code = 0 if laws["cocycle"]["ok"] else 1
  return {
      "basis": basis_to_json(basis),
      "probe_plan": plan,
      "pairing": pairing_table_to_json(table),
      "laws": laws,
  }, code


def _cmd_split(man, args):
  if "pairing" in man:
    basis = conserved_basis(_interaction(man))
    plan, table = None, pairing_table_from_json(man["pairing"], basis)
  else:
    basis, plan, table = _probed_pairing(man, args)
  split = solve_splitting(table)
  return {
      "basis": basis_to_json(basis),
      "probe_plan": plan,
      "pairing": pairing_table_to_json(table),
      "splitting": splitting_to_json(split),
  }, 0


def _cmd_uniformize(man, args):
  inter, locale, win, basis = _setting(man)
  f = _function(man, args, win, inter)
  plan, probes = _planned_probes(man, win, inter)
  result = uniformize(f, win, inter, basis, plan["radius"], probes,
                      probe_budget=plan["budget"])
  ok = result["uniform"]["uniform"] and result["criterion_ok"]
  return {
      "probe_plan": plan,
      "g": local_function_to_json(result["g"], locale),
      "splitting": splitting_to_json(
          {"method": result["split_method"], "h": result["h"]}),
      "pairing": pairing_table_to_json(result["table"]),
      "uniform": result["uniform"],
      "criterion_ok": result["criterion_ok"],
      "scope": result["scope"],
  }, 0 if ok else 1


def _cmd_h0(man, args):
  basis, _, h0, code = _fibers(man, args)
  return {"h0": h0, "basis": basis_to_json(basis)}, code


def _cmd_omega_rho(man, args):
  inter, locale, win, basis = _setting(man)
  a, action, domain = _flux_spec(man, locale)
  form = build_omega_rho(a, action, domain, win, inter, basis)
  inv = is_shift_invariant(form, win, inter, action, 0)
  return {
      "cocycle": cocycle_to_json(a),
      "form": form_to_json(form, win),
      "shift_invariance": inv,
  }, 0 if inv["invariant"] else 1


def _cmd_delta(man, args):
  inter, locale, win, basis = _setting(man)
  form = _form(man, args, win, inter, basis)
  action = _action(man, locale)
  result = extract_cocycle(form, win, inter, basis, action)
  return {
      "cocycle": cocycle_to_json(result["a"]),
      "probes": result["probes"],
      "cross_checks": result["cross_checks"],
  }, 0


def _cmd_decompose(man, args):
  inter, locale, win, basis = _setting(man)
  form = _form(man, args, win, inter, basis)
  action = _action(man, locale)
  domain = _domain(man, locale)
  radius = man.get("radius")
  if radius is not None:
    radius = manifest_int(radius, "radius", 0)
  result = varadhan_decompose(
      form, win, inter, basis, action, domain, radius=radius,
      sub_budget=manifest_int(man.get("sub_budget", DEFAULT_SUB_BUDGET),
                              "sub_budget", 1))
  payload = {
      "cocycle": cocycle_to_json(result["a"]),
      "f": local_function_to_json(result["f"], locale),
      "splitting": splitting_to_json(
          {"method": result["split_method"], "h": result["h"]}),
      "pairing": pairing_table_to_json(result["table"]),
      "margins": result["margins"],
      "sub_window_sites": result["sub_window_sites"],
      "shift_invariance": result["shift_invariance"],
      "extraction": result["extraction"],
      "residual": result["residual"],
  }
  return payload, 0 if result["residual"]["ok"] else 1


def _cmd_counterexample(man, args):
  sites = manifest_int(man.get("sites", 9), "sites", 1)
  return {"counterexample": counterexample_report(sites)}, 0


def _cmd_transfer(man, args):
  return {"transferability": transferability(_locale(man))}, 0


_HANDLERS = {
    "consv": _cmd_consv,
    "validate": _cmd_validate,
    "irreducible": _cmd_irreducible,
    "expand": _cmd_expand,
    "diff": _cmd_diff,
    "closed": _cmd_closed,
    "integrate": _cmd_integrate,
    "pairing": _cmd_pairing,
    "split": _cmd_split,
    "uniformize": _cmd_uniformize,
    "h0": _cmd_h0,
    "omega-rho": _cmd_omega_rho,
    "delta": _cmd_delta,
    "decompose": _cmd_decompose,
    "counterexample": _cmd_counterexample,
    "transfer": _cmd_transfer,
}

_NO_MANIFEST_OK = {"counterexample"}


def _build_parser() -> argparse.ArgumentParser:
  parser = argparse.ArgumentParser(
      prog="configcalc",
      description="Exact conserved-quantity calculus on finite windows.")
  parser.add_argument("command", choices=_HANDLERS, metavar="command",
                      help=", ".join(_HANDLERS))
  parser.add_argument("--manifest", help="path to the JSON manifest")
  parser.add_argument("--out", help="write the report here instead of stdout")
  parser.add_argument("--seed", type=int, default=0,
                      help="recorded in the report; reports are deterministic")
  parser.add_argument("--budget", type=int, default=None,
                      help="override the manifest's configuration budget")
  return parser


def main(argv=None) -> int:
  args = _build_parser().parse_args(argv)
  command = args.command
  try:
    if args.manifest is not None:
      man = load_json(args.manifest)
      if not isinstance(man, dict):
        raise InputError("manifest must be a JSON object")
    elif command in _NO_MANIFEST_OK:
      man = {}
    else:
      raise InputError(f"'{command}' needs --manifest")
    payload, code = _HANDLERS[command](man, args)
  except InputError as exc:
    payload, code = {"error": {"kind": type(exc).__name__,
                               "message": str(exc)}}, 2
  except WitnessError as exc:
    payload, code = {"error": {"kind": type(exc).__name__,
                               exc.key: exc.payload}}, 1
  report = {"command": command, "seed": args.seed, "exit_code": code}
  report.update(payload)
  text = dump_json(report, args.out)
  if args.out is None:
    sys.stdout.write(text)
  return code


if __name__ == "__main__":
  sys.exit(main())
