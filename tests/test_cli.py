"""End-to-end command tests: manifests in, one JSON report out, exit codes
0 (all checks passed) / 1 (a property failed, with witness) / 2 (bad input).
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import configcalc
from configcalc.calculus import (Form, NotClosedError, differential,
                                 expansion, form_to_json, from_callable,
                                 local_function_to_json, perturbed, restrict)
from configcalc.cli import main
from configcalc.cohomology import (PairingNotWellDefined, SplittingInfeasible,
                                   compute_pairing, pairing_table_to_json)
from configcalc.decomposition import InconsistentCocycle, NotShiftInvariant
from configcalc.interactions import (conserved_basis, exclusion, glauber,
                                     interaction_from_json)
from configcalc.locales import Euclidean, box
from configcalc.serialize import InputError, WitnessError


def run(tmp_path, manifest, *argv, name="man.json"):
  man_path = tmp_path / name
  man_path.write_text(json.dumps(manifest))
  out_path = tmp_path / (name + ".report.json")
  code = main(list(argv) + ["--manifest", str(man_path),
                            "--out", str(out_path)])
  return code, json.loads(out_path.read_text())


DATA = Path(__file__).parent / "data"

BASE = {
    "locale": {"kind": "euclidean", "d": 1},
    "interaction": "exclusion",
    "window": {"kind": "box", "lo": [0], "hi": [4]},
}


def test_consv_report(tmp_path):
  code, rep = run(tmp_path, {"interaction": "exclusion"}, "consv")
  assert code == 0
  assert rep["exit_code"] == 0
  assert rep["command"] == "consv"
  assert rep["c_phi"] == 1
  assert rep["basis"] == [["0", "1"]]


def test_consv_multispecies(tmp_path):
  code, rep = run(tmp_path, {"interaction": "multispecies:3"}, "consv")
  assert code == 0
  assert rep["c_phi"] == 3


# Float state labels are echoed as json spells them.  The sha256 of each
# report, taken when a float still sent the whole report through json.dumps.
FLOAT_LABEL_DIGESTS = {
    ("half", "consv"):
        "c66c4490882228c847342d52bce1e291ebfe9ad566b889b9f917befad80af863",
    ("half", "validate"):
        "b710694e7620e7026f2e94796a5ffd2b6ce60263db09e2c464960ae8b5e2a319",
    ("nan", "consv"):
        "676643b7e3add211871c56f6c9005a8933ebba2b7568f943071eca162602c6c5",
    ("nan", "validate"):
        "0e96cdf3d9e5728c372eab0799468dcbf419be88b73dc33592f76e13064fa533",
}


@pytest.mark.parametrize("label,command", sorted(FLOAT_LABEL_DIGESTS))
def test_float_state_labels_keep_their_bytes(tmp_path, label, command):
  x = {"half": 0.5, "nan": float("nan")}[label]
  rule = {"states": [0, x], "base": 0, "map": [[0, x, x, 0], [x, 0, 0, x]]}
  man, out = tmp_path / "man.json", tmp_path / "report.json"
  man.write_text(json.dumps({"interaction": rule}))
  assert main([command, "--manifest", str(man), "--out", str(out)]) == 0
  digest = hashlib.sha256(out.read_bytes()).hexdigest()
  assert digest == FLOAT_LABEL_DIGESTS[label, command]


@pytest.mark.parametrize("name", ["spin3:7", "exclusion:3"])
def test_parameter_on_a_parameterless_model_exits_2(tmp_path, name):
  code, rep = run(tmp_path, {"interaction": name}, "consv")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert "takes no parameter" in rep["error"]["message"]


def test_validate_passes_catalog(tmp_path):
  for name in ("exclusion", "glauber", "spin3", "pair-flip"):
    code, rep = run(tmp_path, {"interaction": name}, "validate")
    assert code == 0, name
    assert rep["validity"]["valid"], name


def test_validate_rejects_broken_map(tmp_path):
  # (0,1) -> (1,1) cannot be undone: applying the map again from (1,1)
  # does not return the moved pair
  man = {"interaction": {
      "name": "broken",
      "states": [0, 1],
      "base": 0,
      "map": [[0, 1, 1, 1]],
  }}
  code, rep = run(tmp_path, man, "validate")
  assert code == 1
  assert not rep["validity"]["valid"]
  assert rep["validity"]["strict_witness"] is not None


def test_irreducible_ok_for_hops(tmp_path):
  code, rep = run(tmp_path, dict(BASE), "irreducible")
  assert code == 0
  assert rep["fibers"]["fibers_connected"]
  assert rep["fibers"]["components_separated"]


def test_irreducible_catches_parity_split_fibers(tmp_path):
  man = dict(BASE, interaction="pair-flip",
             window={"kind": "box", "lo": [0], "hi": [3]})
  code, rep = run(tmp_path, man, "irreducible")
  assert code == 1
  assert not rep["fibers"]["fibers_connected"]
  assert rep["fibers"]["witness"] is not None


def test_irreducible_witness_names_product_sites_by_factor(tmp_path):
  # the ball of radius 1 in Z x Z: five sites, each written [[x], [y]]
  line = {"kind": "euclidean", "d": 1}
  man = dict(BASE, interaction="pair-flip",
             locale={"kind": "product", "factors": [line, line]},
             window={"kind": "ball", "center": [[0], [0]], "radius": 1})
  code, rep = run(tmp_path, man, "irreducible")
  assert code == 1
  sites = [s for cfg in rep["fibers"]["witness"]["configs"]
           for s in cfg["sites"]]
  assert [[1], [0]] in sites


def test_expand_lists_sorted_pieces(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]})
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  sizes = [len(p["sites"]) for p in rep["pieces"]]
  assert sizes == sorted(sizes)
  assert rep["exact_support_radius"] == 1
  assert rep["n_pieces"] == len(rep["pieces"])


def _reversed_listing(fn, s):
  """The JSON function ``fn`` with its support listed in reverse and its
  values permuted to match."""
  configs = list(product(range(s), repeat=len(fn["support"])))
  at = dict(zip(configs, fn["values"]))
  return {"support": fn["support"][::-1],
          "values": [at[digits[::-1]] for digits in configs]}


def test_expand_reads_values_in_the_listed_support_order(tmp_path):
  man = json.loads((DATA / "expand_spin3_line7.json").read_text())
  flipped = dict(man, function=_reversed_listing(man["function"], 3))
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  assert run(tmp_path, flipped, "expand", name="flipped.json") == (code, rep)
  # f = 1 exactly where site 1 is at 0 and site 0 at 1
  man = dict(BASE, function={"support": [[1], [0]],
                             "values": ["0", "1", "0", "0"]})
  code, rep = run(tmp_path, man, "expand")
  assert rep["function"] == {"support": [[0], [1]],
                             "values": ["0", "0", "1", "0"]}
  assert [p["sites"] for p in rep["pieces"]] == [[[0]], [[0], [1]]]


def test_expand_charges_the_piece_tables_once(tmp_path):
  # twelve binary sites; the values depend on sites 3 and 7 only
  values = [str(d[3] * d[7]) for d in product(range(2), repeat=12)]
  man = dict(BASE, window={"kind": "box", "lo": [0], "hi": [11]},
             function={"support": [[k] for k in range(12)], "values": values})
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  assert [p["sites"] for p in rep["pieces"]] == [[[3], [7]]]
  assert rep["exact_support_radius"] == 4
  assert rep["uniform_at_probe_radius"]["offenders"] == [[[3], [7]]]
  code, rep = run(tmp_path, man, "expand", "--budget", "1000")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"


def test_library_and_cli_expand_refuse_the_same_table(tmp_path):
  # eleven ternary sites: (1 + 3)^11 = 4194304 piece entries, past the
  # configuration budget both charge by default
  support = [(k,) for k in range(11)]
  f = from_callable(support, 3, 0, lambda d: d[0] * d[10])
  with pytest.raises(InputError) as refusal:
    expansion(f)
  man = dict(BASE, interaction="multispecies:2",
             window={"kind": "box", "lo": [0], "hi": [10]},
             function={"support": [list(v) for v in support],
                       "values": [str(v) for v in f.values]})
  code, rep = run(tmp_path, man, "expand")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert rep["error"]["message"] == str(refusal.value) == (
      "expansion over 11 sites exceeds the budget")


def test_expand_reads_only_the_probe_radius(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]},
             probe={"radius": 2, "budget": "x"})
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  assert rep["uniform_at_probe_radius"]["radius"] == 2


def test_diff_reports_axioms(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]})
  code, rep = run(tmp_path, man, "diff")
  assert code == 0
  assert rep["axioms"]["ok"]
  assert rep["form"]["edges"]


def test_closed_accepts_differential(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]},
             form={"builtin": "differential"})
  code, rep = run(tmp_path, man, "closed")
  assert code == 0
  assert rep["closed"]["closed"]


def test_closed_accepts_the_ordered_flux(tmp_path):
  man = dict(BASE, interaction="multispecies:2",
             window={"kind": "box", "lo": [0], "hi": [8]},
             form={"builtin": "ordered-flux"})
  code, rep = run(tmp_path, man, "closed")
  assert code == 0
  # one component per species count (n1, n2) with n1 + n2 <= 9
  assert rep["closed"]["n_components"] == 55


def test_diff_under_a_relaxed_rule_satisfies_the_axioms(tmp_path):
  """The indicator of state 1 at site 2 on line(5) under glauber: each
  flip is undone across its own edge, where alternation pairs it."""
  code, rep = run(tmp_path, json.loads(
      (DATA / "diff_glauber_line5.json").read_text()), "diff")
  assert code == 0
  assert rep["axioms"] == {"ok": True, "vanishing": None, "alternation": None,
                           "matching_targets": None}


def _perturbed_form_json():
  loc = Euclidean(1)
  win = box(loc, (0,), (4,))
  inter = exclusion()
  f = from_callable(((1,), (2,)), inter.n_states, inter.base,
                    lambda d: Fraction(d[0] - 2 * d[1]))
  form = differential(f, win, inter)
  bad = perturbed(form, win, inter, ((1,), (2,)), {(1,): 1, (2,): 0},
                  Fraction(1, 3))
  return form_to_json(bad, win)


def test_closed_rejects_perturbed_with_witness(tmp_path):
  man = dict(BASE, form=_perturbed_form_json())
  code, rep = run(tmp_path, man, "closed")
  assert code == 1
  w = rep["closed"]["witness"]
  assert w["integral"] == w["defect"]
  assert w["integral"] != "0"


def test_closed_and_integrate_certify_cycles_not_retraced_by_negation(
    tmp_path):
  """spin3's rotation under the ordered flux, a one-cell perturbation of
  the zero form under glauber, and an exclusion edge whose value on
  (1,0)->(0,1) is not minus its value on (0,1)->(1,0): no return arc
  negates its tree step, and both commands still report a witness whose
  integral is its defect.  Glauber's flip across (1, 0) is undone by the
  same edge, so the bump's -1/4 sits on (1, 0) at the image cell, where the
  two-step witness (flip site 1 across (1, 2), back across (1, 0)) reads
  it; the exclusion hop and its undo sum to 1/3 - 1/4."""
  win, inter = box(Euclidean(1), (0,), (7,)), glauber()
  bad = perturbed(Form(inter.n_states, inter.base), win, inter,
                  ((1,), (0,)), {(1,): 0, (0,): 0}, Fraction(1, 4))
  flip = {"locale": {"kind": "euclidean", "d": 1}, "interaction": "glauber",
          "window": {"kind": "box", "lo": [0], "hi": [7]},
          "form": form_to_json(bad, win)}
  rotation = json.loads((DATA / "closed_spin3_line7.json").read_text())
  unalternating = json.loads(
      (DATA / "closed_exclusion_unalternating_line6.json").read_text())
  for man, defect in ((rotation, "1"), (flip, "-1/4"),
                      (unalternating, "1/12")):
    code, rep = run(tmp_path, man, "closed")
    assert code == 1
    w = rep["closed"]["witness"]
    assert w["integral"] == w["defect"] == defect
    code, rep = run(tmp_path, man, "integrate")
    assert code == 1
    assert rep["error"]["kind"] == "NotClosedError"
    assert rep["error"]["witness"] == w


def test_closed_and_integrate_refuse_a_rule_that_is_not_valid(tmp_path):
  """(1, 0) -> (0, 0) is never undone, so no form has a potential: both
  commands exit 2 naming the one-way transition, not a witness."""
  man = json.loads((DATA / "closed_one_way_line3.json").read_text())
  for command in ("closed", "integrate"):
    code, rep = run(tmp_path, man, command)
    assert code == 2
    assert rep["error"]["kind"] == "InputError"
    assert "no move undoes (0, 1) -> (0, 0)" in rep["error"]["message"]


def test_integrate_differential(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]},
             form={"builtin": "differential"})
  code, rep = run(tmp_path, man, "integrate")
  assert code == 0
  assert rep["n_components"] == 6
  assert len(rep["pins"]) == rep["n_components"]
  assert rep["potential"]["support"]


def test_scans_read_a_form_past_the_window_at_base(tmp_path):
  # f = eta_4 (1 + eta_5) reads site 5, past the window 0..4, and so does its
  # differential; the scans read it with site 5 at base (iota^W), which is
  # the differential of f restricted to the window.
  locale = Euclidean(1)
  f = from_callable(((4,), (5,)), 2, 0, lambda d: d[0] * (1 + d[1]))
  near = restrict(f, box(locale, (0,), (4,)).vertices)
  for command in ("closed", "integrate"):
    reports = [run(tmp_path, dict(BASE, form={"builtin": "differential"},
                                  function=local_function_to_json(g, locale)),
                   command)
               for g in (f, near)]
    assert reports[0][0] == 0
    assert reports[0] == reports[1]


def test_inline_form_edges_read_values_in_the_listed_support_order(tmp_path):
  win = box(Euclidean(1), (0,), (4,))
  f = from_callable(((1,), (2,)), 2, 0, lambda d: d[0] + 3 * d[1] + d[0] * d[1])
  form = form_to_json(differential(f, win, exclusion()), win)
  flipped = dict(form, edges=[dict(e, fn=_reversed_listing(e["fn"], 2))
                              for e in form["edges"]])
  assert any(len(e["fn"]["support"]) > 1 for e in form["edges"])
  code, rep = run(tmp_path, dict(BASE, form=form), "integrate")
  assert code == 0
  assert run(tmp_path, dict(BASE, form=flipped), "integrate",
             name="flipped.json") == (code, rep)


def test_integrate_perturbed_fails_with_witness(tmp_path):
  man = dict(BASE, form=_perturbed_form_json())
  code, rep = run(tmp_path, man, "integrate")
  assert code == 1
  assert rep["error"]["kind"] == "NotClosedError"
  assert rep["error"]["witness"]["cycle"]


def test_pairing_embeds_probe_plan_and_flags_asymmetry(tmp_path):
  man = {
      "locale": {"kind": "euclidean", "d": 1},
      "interaction": "multispecies:2",
      "window": {"kind": "box", "lo": [0], "hi": [8]},
      "probe": {"radius": 3},
      "function": {"builtin": "inversion-count"},
  }
  code, rep = run(tmp_path, man, "pairing")
  assert code == 0  # cocycle law holds; symmetry is informational here
  assert rep["probe_plan"]["radius"] == 3
  assert rep["laws"]["cocycle"]["ok"]
  assert not rep["laws"]["symmetry"]["ok"]


def test_pairing_refuses_ill_defined_cell(tmp_path):
  # f reads two fixed sites, so its defect is not a function of quantities
  man = dict(BASE, window={"kind": "box", "lo": [0], "hi": [8]},
             function={"support": [[1], [6]],
                       "values": ["0", "0", "0", "1"]})
  code, rep = run(tmp_path, man, "pairing")
  assert code == 1
  assert rep["error"]["kind"] == "PairingNotWellDefined"
  values = rep["error"]["witness"]["values"]
  assert values[0] != values[1]


def test_witness_errors_share_one_base():
  payload = {"evidence": 1}
  for cls in (NotClosedError, PairingNotWellDefined, NotShiftInvariant,
              InconsistentCocycle, SplittingInfeasible):
    exc = cls(payload)
    assert isinstance(exc, WitnessError)
    assert exc.payload is payload
    assert getattr(exc, exc.key) is payload
  assert SplittingInfeasible(payload).certificate is payload
  assert NotClosedError(payload).witness is payload


def test_split_from_inline_pairing_table(tmp_path):
  win = box(Euclidean(1), (0,), (12,))
  inter = exclusion()
  basis = conserved_basis(inter)
  f = from_callable(win.vertices, inter.n_states, inter.base,
                    lambda d: Fraction(sum(d)) ** 2)
  probes = [(tuple((x,) for x in range(k)), ((11,),)) for k in range(1, 6)]
  table = compute_pairing(f, win, inter, basis, radius=3, probes=probes)
  man = {"interaction": "exclusion",
         "pairing": pairing_table_to_json(table)}
  code, rep = run(tmp_path, man, "split")
  assert code == 0
  assert rep["splitting"]["method"] == "chain-iteration"
  h = {tuple(e["q"]): e["v"] for e in rep["splitting"]["h"]}
  assert h[("2",)] == "-2"
  assert h[("6",)] == "-30"


def test_split_refuses_asymmetric_with_certificate(tmp_path):
  man = {
      "locale": {"kind": "euclidean", "d": 1},
      "interaction": "multispecies:2",
      "window": {"kind": "box", "lo": [0], "hi": [8]},
      "probe": {"radius": 3},
      "function": {"builtin": "inversion-count"},
  }
  code, rep = run(tmp_path, man, "split")
  assert code == 1
  assert rep["error"]["kind"] == "SplittingInfeasible"
  cert = rep["error"]["certificate"]
  assert cert["combination"]
  assert cert["contradiction"] != "0"
  # the default counterexample's pairing table, handed to split as a table:
  # refused with the certificate that counterexample reports
  code, ce = run(tmp_path, {}, "counterexample")
  assert code == 0
  ce = ce["counterexample"]
  man = {"interaction": "multispecies:2", "pairing": ce["pairing"]}
  code, rep = run(tmp_path, man, "split")
  assert code == 1
  assert rep["error"]["certificate"] == ce["splitting_certificate"]


def test_split_refuses_a_pairing_cell_with_two_values(tmp_path):
  cells = [{"a": ["1"], "b": ["1"], "v": "1"},
           {"a": ["1"], "b": ["1"], "v": "2"}]
  man = {"interaction": "exclusion", "pairing": {"cells": cells}}
  code, rep = run(tmp_path, man, "split")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert "a=['1'] b=['1']" in rep["error"]["message"]
  assert "1 and 2" in rep["error"]["message"]
  # an exact repeat, even spelled differently, is the same cell
  man["pairing"]["cells"] = [cells[1], dict(cells[1], v="4/2")]
  code, rep = run(tmp_path, man, "split")
  assert code == 0
  assert rep["splitting"]["h"] == [{"q": ["1"], "v": "0"},
                                   {"q": ["2"], "v": "-2"}]


def test_uniformize_flat_function(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [12]},
             probe={"radius": 1},
             function={"support": [[5], [6]],
                       "values": ["0", "3", "3", "6"]})
  code, rep = run(tmp_path, man, "uniformize")
  assert code == 0
  assert rep["uniform"]["uniform"]
  assert rep["criterion_ok"]


def test_h0_exclusion_line(tmp_path):
  man = dict(BASE, window={"kind": "box", "lo": [0], "hi": [2]})
  code, rep = run(tmp_path, man, "h0")
  assert code == 0
  assert rep["h0"]["h0_dimension"] == 4
  assert rep["h0"]["c_phi"] == 1


def test_h0_pair_flip_exceeds_quantity_count(tmp_path):
  man = dict(BASE, interaction="pair-flip",
             window={"kind": "box", "lo": [0], "hi": [3]})
  code, rep = run(tmp_path, man, "h0")
  assert code == 1
  assert rep["h0"]["h0_dimension"] > rep["h0"]["n_quantity_fibers"]
  assert rep["h0"]["fiber_witness"] is not None


def test_irreducible_and_h0_share_one_verdict(tmp_path):
  pair_flip = json.loads((DATA / "fibers_pair_flip_line6.json").read_text())
  # 3^13 multispecies:2 configurations: the scans read only the level maps
  line13 = dict(pair_flip, interaction="multispecies:2",
                window={"kind": "box", "lo": [0], "hi": [12]})
  for man, want, n_components in (
      (pair_flip, 1, 7), (dict(pair_flip, interaction="exclusion"), 0, 7),
      (line13, 0, 105)):
    code, fibers = run(tmp_path, man, "irreducible")
    assert code == want
    assert fibers["fibers"]["n_components"] == n_components
    assert fibers["fibers"]["components_separated"] == (want == 0)
    code, h0 = run(tmp_path, man, "h0")
    assert code == want
    assert h0["h0"]["quantities_separate_components"] == (want == 0)
    assert h0["h0"]["h0_dimension"] == n_components
    assert h0["h0"]["fiber_witness"] == fibers["fibers"]["witness"]


def test_omega_rho_invariant(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [6]},
             cocycle={"a": [["1/2"]]},
             action={"generators": [[1]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "omega-rho")
  assert code == 0
  assert rep["shift_invariance"]["invariant"]
  assert rep["cocycle"]["a"] == [["1/2"]]


def test_omega_rho_refuses_a_domain_that_does_not_tile(tmp_path):
  # the even shifts of one vertex miss every odd vertex
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [5]},
             cocycle={"a": [["1/2"]]},
             action={"generators": [[2]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "omega-rho")
  assert code == 2
  assert rep["error"]["message"] == (
      "vertex (1,) is not covered by the domain tiling")
  # On a window from -3 the refusal names the first window vertex the
  # domain misses or covers twice, in window order, not an orbit's
  # representative: the flux and the synthesized form check every window
  # vertex before they build anything.
  offset = dict(DECOMPOSE, window={"kind": "box", "lo": [-3], "hi": [5]},
                action={"generators": [[2]]})
  for domain, message in (
      ([[0]], "vertex (-3,) is not covered by the domain tiling"),
      ([[0], [1], [2]], "domain translates overlap at (-2,): not a tiling")):
    for command in ("omega-rho", "decompose"):
      code, rep = run(tmp_path, dict(offset, domain=domain), command)
      assert (code, rep["error"]["message"]) == (2, message), command


def test_delta_recovers_cocycle(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [6]},
             form={"builtin": "omega-rho"},
             cocycle={"a": [["1/2"]]},
             action={"generators": [[1]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "delta")
  assert code == 0
  assert rep["cocycle"]["a"] == [["1/2"]]
  assert rep["cross_checks"]


def test_delta_refuses_non_invariant_form(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [6]},
             function={"support": [[2], [3]],
                       "values": ["0", "1", "-2", "3"]},
             form={"builtin": "differential"},
             action={"generators": [[1]]})
  code, rep = run(tmp_path, man, "delta")
  assert code == 1
  assert rep["error"]["kind"] == "InconsistentCocycle"
  # spin3's single-site defects leave the span of its one quantity
  man = dict(man, interaction="spin3",
             function={"support": [[3]], "values": ["1", "0", "0"]})
  code, rep = run(tmp_path, man, "delta")
  assert code == 1
  assert rep["error"] == {
      "kind": "InconsistentCocycle",
      "witness": {"generator": 0,
                  "reason": "single-site defects outside the quantity span"}}


def test_decompose_synthesized_roundtrip(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [6]},
             function={"support": [[0], [1]],
                       "values": ["0", "0", "0", "1/2"]},
             form={"builtin": "synthesized"},
             cocycle={"a": [["-2/3"]]},
             action={"generators": [[1]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "decompose")
  assert code == 0
  assert rep["cocycle"]["a"] == [["-2/3"]]
  assert rep["residual"]["ok"]
  assert rep["residual"]["max_abs_residual"] == "0"
  assert rep["shift_invariance"]["invariant"]


def test_decompose_refuses_pinned_form(tmp_path):
  man = dict(BASE,
             window={"kind": "box", "lo": [0], "hi": [6]},
             function={"support": [[2], [3]],
                       "values": ["0", "1", "-2", "3"]},
             form={"builtin": "differential"},
             action={"generators": [[1]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "decompose")
  assert code == 1
  assert rep["error"]["kind"] in ("NotShiftInvariant", "InconsistentCocycle")


def test_pairing_default_probes_need_a_lattice_locale(tmp_path):
  line = {"kind": "euclidean", "d": 1}
  man = dict(BASE,
             locale={"kind": "product", "factors": [line, line]},
             window={"kind": "ball", "center": [[0], [0]], "radius": 3},
             function={"support": [[[0], [0]]], "values": ["0", "1"]})
  code, rep = run(tmp_path, man, "pairing")
  assert code == 2
  assert rep["error"]["message"] == (
      "default probes need a lattice locale, not product; "
      "supply explicit probes")


def test_pairing_names_a_probe_budget_that_admits_no_pair(tmp_path,
                                                         monkeypatch):
  # Every probe pair fits the 11-site window; the budget turns each away.
  man = dict(BASE, interaction="multispecies:2",
             window={"kind": "box", "lo": [0], "hi": [10]},
             function={"support": [[4], [5]],
                       "values": [str(k) for k in range(9)]})
  monkeypatch.setattr(configcalc.cohomology, "DEFAULT_PROBE_BUDGET", 8)
  code, rep = run(tmp_path, man, "pairing")
  assert code == 2
  assert rep["error"]["message"] == (
      "probe budget 8 admits no probe pair: the smallest needs 3^2 "
      "configurations")
  monkeypatch.setattr(configcalc.cohomology, "DEFAULT_PROBE_BUDGET", 9)
  assert run(tmp_path, man, "pairing")[0] == 0


def test_pairing_places_probes_on_an_n_neighbor_box(tmp_path):
  # one graph step covers two coordinates, so the probe offsets do too
  man = dict(BASE, locale={"kind": "n-neighbor", "d": 2, "n": 2},
             window={"kind": "box", "lo": [0, 0], "hi": [8, 8]},
             function={"support": [[4, 4], [4, 5]],
                       "values": ["0", "1", "2", "5"]},
             probe={"radius": 1})
  code, rep = run(tmp_path, man, "pairing")
  assert code == 0
  probes = rep["pairing"]["probes"]
  assert len(probes) == 8
  assert all(p["distance"] > 1 for p in probes)


def test_transfer_refuses_finite_graph_vertices_that_do_not_sort(tmp_path):
  man = {"locale": {"kind": "finite-graph", "vertices": [0, "a"],
                    "edges": []}}
  code, rep = run(tmp_path, man, "transfer")
  assert code == 2
  assert rep["error"]["message"].startswith("bad finite-graph vertices: ")


def run_process(*argv, **env):
  """``python -m configcalc.cli`` on ``argv`` in a subprocess, with the
  tested package's tree first on PYTHONPATH and ``env`` added to the
  environment."""
  src = str(Path(configcalc.__file__).resolve().parent.parent)
  env = dict(os.environ, **env)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  return subprocess.run([sys.executable, "-m", "configcalc.cli", *argv],
                        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command,manifest,want", [
    ("diff", "diff_glauber_line5", 0),
    ("irreducible", "fibers_pair_flip_line6", 1),
    ("closed", "closed_one_way_line3", 2)])
def test_process_exit_code_is_the_reports(tmp_path, command, manifest, want):
  """The process exits with the code its report records, and a report
  written to --out leaves stdout empty."""
  out = tmp_path / "report.json"
  proc = run_process(command, "--manifest", str(DATA / f"{manifest}.json"),
                     "--out", str(out))
  assert proc.stdout == ""
  assert proc.returncode == json.loads(out.read_text())["exit_code"] == want, (
      proc.stderr)


def test_transfer_refusal_bytes_do_not_depend_on_the_hash_seed(tmp_path):
  # The refusal names the vertices as listed: sorting a set of an int and a
  # str fails comparing whichever two its hash order meets first.
  man = tmp_path / "man.json"
  man.write_text(json.dumps({"locale": {"kind": "finite-graph",
                                        "vertices": [5, "a"], "edges": []}}))
  reports = []
  for seed in ("0", "2"):
    out = tmp_path / f"report_{seed}.json"
    proc = run_process("transfer", "--manifest", str(man), "--out", str(out),
                       PYTHONHASHSEED=seed)
    assert proc.returncode == 2, proc.stderr
    reports.append(out.read_bytes())
  assert reports[0] == reports[1]
  assert json.loads(reports[0])["error"]["message"] == (
      "bad finite-graph vertices: [5, 'a'] and the edge ends must hash and "
      "sort together")


NNEIGHBOR_LINE = dict(BASE,
                      locale={"kind": "n-neighbor", "d": 1, "n": 2},
                      window={"kind": "box", "lo": [0], "hi": [12]},
                      form={"builtin": "synthesized"},
                      action={"generators": [[1]]},
                      domain=[[0]])


@pytest.mark.parametrize("interaction,values,a", [
    ("exclusion", ["0", "0", "0", "1/2"], [["-2/3"]]),
    ("multispecies:2", ["0", "1/2", "-3/4", "2", "0", "5/3", "-1", "1/6",
                        "7/2"], [["2/3"], ["-5/4"]]),
    ("spin3", ["1", "1/2", "-3/4", "2", "0", "5/3", "-1", "1/6", "7/2"],
     [["7/4"]]),
], ids=["exclusion", "multispecies2", "spin3"])
def test_decompose_on_the_n_neighbor_line_recovers_the_cocycle(
    tmp_path, interaction, values, a):
  """The n-neighbor line orients its default probes as Z does: no edge
  spans more than n coordinates, so a ball's complement has a left and a
  right end there too."""
  man = dict(NNEIGHBOR_LINE, interaction=interaction, cocycle={"a": a},
             function={"support": [[0], [1]], "values": values})
  code, rep = run(tmp_path, man, "decompose")
  assert code == 0
  assert rep["cocycle"]["a"] == a
  assert rep["residual"]["ok"]
  assert rep["residual"]["max_abs_residual"] == "0"


def test_n_neighbor_line_pairs_each_probe_left_of_the_next(tmp_path):
  man = dict(NNEIGHBOR_LINE, window={"kind": "box", "lo": [0], "hi": [6]},
             function={"support": [[0], [1]],
                       "values": ["0", "0", "0", "1/2"]},
             cocycle={"a": [["-2/3"]]})
  committed = json.loads(
      (DATA / "decompose_exclusion_nneighbor2_line13.json").read_text())
  for source in (committed, man):
    code, rep = run(tmp_path, source, "pairing")
    assert code == 0
    probes = rep["pairing"]["probes"]
    assert probes
    for probe in probes:
      assert max(probe["first"]) < min(probe["second"]), probe
  # seven sites hold too few probe pairs to cover the remainder's quantities
  code, rep = run(tmp_path, man, "decompose")
  assert code == 2
  assert rep["error"] == {
      "kind": "InputError",
      "message": "pairing probes did not cover quantity ['3']"}


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("source", ["README.md",
                                    "decompose_exclusion_square7.json"])
def test_decompose_reads_no_probe_key(tmp_path, source):
  """decompose's probes follow from its radius alone: its report keeps its
  bytes whatever the manifest's probe section says, even malformed."""
  if source == "README.md":
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    man = json.loads(block)
  else:
    man = json.loads((DATA / source).read_text())
  reports = []
  for k, probe in enumerate((None, {"ball_radius": 2}, {"radius": "x"})):
    if probe is None:
      man.pop("probe", None)
    else:
      man["probe"] = probe
    path, out = tmp_path / f"man{k}.json", tmp_path / f"out{k}.json"
    path.write_text(json.dumps(man))
    assert main(["decompose", "--manifest", str(path), "--out", str(out)]) == 0
    reports.append(out.read_bytes())
  assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("command", ["pairing", "split", "uniformize"])
def test_probe_commands_read_only_the_probe_radius_keep_their_bytes(tmp_path,
                                                                    command):
  """pairing, split and uniformize place their probes as decompose does:
  radius-1 ball halves at the probe radius under the probe budget.  Their
  reports keep their bytes whatever the manifest says of a ball radius, a
  probe budget or a configuration budget."""
  inversions = dict(BASE, interaction="multispecies:2",
                    window={"kind": "box", "lo": [0], "hi": [8]},
                    function={"builtin": "inversion-count"})
  square = dict(BASE, window={"kind": "box", "lo": [0], "hi": [8]},
                function={"support": [[k] for k in range(9)],
                          "values": [str(bin(i).count("1") ** 2)
                                     for i in range(2 ** 9)]})
  for man in (inversions, square):
    reports = []
    for k, extra in enumerate(({}, {"budget": 1}, {"probe": {
        "radius": 1, "ball_radius": 2, "budget": 8}})):
      path, out = tmp_path / f"man{k}.json", tmp_path / f"out{k}.json"
      path.write_text(json.dumps(dict(man, **extra)))
      main([command, "--manifest", str(path), "--out", str(out)])
      reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    # a refused split or uniformize reports no plan
    assert json.loads(reports[0]).get("probe_plan") in (
        None, {"radius": 1, "ball_radius": 1, "budget": 200000})


@pytest.mark.parametrize("manifest", sorted(DATA.glob("decompose_*.json")),
                         ids=lambda path: path.stem)
def test_committed_decompose_manifests_decompose_and_read_back(tmp_path,
                                                               manifest):
  """Every committed decompose manifest, found by its name: the
  decomposition leaves no residual, the flux of the manifest's cocycle is
  shift-invariant and reads each edge alone (radius 0, each support inside
  its edge), and delta reads that cocycle back."""
  man = json.loads(manifest.read_text())
  code, rep = run(tmp_path, man, "decompose")
  assert code == 0
  assert rep["residual"]["max_abs_residual"] == "0"
  code, flux = run(tmp_path, man, "omega-rho")
  assert code == 0
  assert flux["shift_invariance"]["invariant"] is True
  assert flux["form"]["radius"] == 0
  for edge in flux["form"]["edges"]:
    assert all(v in edge["e"] for v in edge["fn"]["support"]), edge
  code, rep = run(tmp_path, man, "delta")
  assert code == 0
  assert ([[Fraction(x) for x in row] for row in rep["cocycle"]["a"]] ==
          [[Fraction(x) for x in row] for row in man["cocycle"]["a"]])


def test_triangular_r1_decompose_needs_a_sub_budget_past_the_default(
    tmp_path):
  """On the triangular 7x7 exclusion box at radius 1 the default sub-window
  budget leaves a quantity unpaired; the committed manifest sets 2^20."""
  man = json.loads((DATA / "decompose_exclusion_triangular7_r1.json")
                   .read_text())
  assert man.pop("sub_budget") == 2 ** 20
  code, rep = run(tmp_path, man, "decompose")
  assert code == 2
  assert rep["error"] == {
      "kind": "InputError",
      "message": "pairing probes did not cover quantity ['3']"}


def test_counterexample_needs_no_manifest(tmp_path, capsys):
  out = tmp_path / "ce.json"
  code = main(["counterexample", "--out", str(out)])
  assert code == 0
  rep = json.loads(out.read_text())
  ce = rep["counterexample"]
  assert ce["closed"]
  assert ce["shift_invariant"]
  assert ce["decomposition_refused"]
  assert ce["asymmetry"]["low_left_high_right"] == "1"


@pytest.mark.parametrize("sites", [3, 4, 8])
def test_counterexample_runs_on_any_window_its_probes_fit(tmp_path, sites):
  code, rep = run(tmp_path, {"sites": sites}, "counterexample")
  assert code == 0
  ce = rep["counterexample"]
  assert ce["window_sites"] == sites
  assert ce["asymmetry"] == {"high_left_low_right": "0",
                             "low_left_high_right": "1"}
  assert ce["splitting_certificate"]
  assert ce["decomposition_refused"]


def test_counterexample_charges_the_budget_before_the_inversion_count(tmp_path):
  # building the 3^15 inversion table first took seconds and hundreds of MB
  start = time.perf_counter()
  code, rep = run(tmp_path, {"sites": 15}, "counterexample")
  assert time.perf_counter() - start < 1
  assert code == 2
  assert rep["error"] == {
      "kind": "BudgetExceeded",
      "message": "3^15 = 14348907 configurations exceed the budget 2000000"}


def test_inversion_count_builtin_charges_the_budget(tmp_path):
  man = {"locale": {"kind": "euclidean", "d": 1},
         "interaction": "multispecies:2",
         "window": {"kind": "box", "lo": [0], "hi": [14]},
         "function": {"builtin": "inversion-count"}}
  code, rep = run(tmp_path, man, "pairing")
  assert code == 2
  assert rep["error"]["kind"] == "BudgetExceeded"
  # --budget sets the budget it is charged
  small = dict(man, window={"kind": "box", "lo": [0], "hi": [4]})
  code, rep = run(tmp_path, small, "diff", "--budget", "242")
  assert rep["error"]["message"] == (
      "3^5 = 243 configurations exceed the budget 242")
  code, rep = run(tmp_path, small, "diff", "--budget", "243")
  assert code == 0


def test_transfer_classifications(tmp_path):
  code, rep = run(tmp_path, {"locale": {"kind": "euclidean", "d": 2}},
                  "transfer")
  assert code == 0
  assert rep["transferability"]["classification"] == "strongly"
  code, rep = run(tmp_path, {"locale": {"kind": "euclidean", "d": 1}},
                  "transfer")
  assert code == 0
  assert rep["transferability"]["classification"] == "weakly-only"


def test_transfer_without_a_probe_anchor_is_unknown(tmp_path):
  locale = {"kind": "product",
            "factors": [{"kind": "free-group"}, {"kind": "euclidean", "d": 1}]}
  code, rep = run(tmp_path, {"locale": locale}, "transfer")
  assert code == 0
  report = rep["transferability"]
  assert report["classification"] == "unknown"
  assert report["evidence"] == {"reason": "no probe anchor"}


def test_reports_are_deterministic(tmp_path):
  man_path = tmp_path / "man.json"
  man_path.write_text(json.dumps(dict(
      BASE,
      window={"kind": "box", "lo": [0], "hi": [6]},
      form={"builtin": "omega-rho"},
      cocycle={"a": [["1/2"]]},
      action={"generators": [[1]]},
      domain=[[0]])))
  outs = []
  for k in range(2):
    out = tmp_path / f"rep{k}.json"
    main(["delta", "--manifest", str(man_path), "--out", str(out)])
    outs.append(out.read_bytes())
  assert outs[0] == outs[1]


def test_budget_override_trips(tmp_path):
  code, rep = run(tmp_path, dict(BASE), "irreducible", "--budget", "2")
  assert code == 2
  assert rep["error"]["kind"] == "BudgetExceeded"


def test_budget_below_one_is_an_input_error(tmp_path):
  code, rep = run(tmp_path, dict(BASE), "irreducible", "--budget", "0")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"


def test_box_window_without_upper_corner(tmp_path):
  man = dict(BASE, window={"kind": "box", "lo": [0]})
  code, rep = run(tmp_path, man, "irreducible")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert "'hi'" in rep["error"]["message"]


def test_form_edge_without_function(tmp_path):
  for item in ({"e": [[1], [2]]}, {"fn": {"support": [], "values": ["1"]}}):
    code, rep = run(tmp_path, dict(BASE, form={"edges": [item]}), "closed")
    assert code == 2, item
    assert rep["error"]["kind"] == "InputError"


def test_far_half_plane_pair_has_a_distance(tmp_path):
  # the half-plane's distance is l1; the locale is named by its string
  # shorthand and the values are JSON integers, read as the strings are
  man = {"locale": "half-plane", "interaction": "exclusion",
         "window": {"kind": "explicit", "vertices": [[0, 0], [1, 0]]},
         "function": {"support": [[0, 0], [200, 0]], "values": [0, 0, 0, 1]}}
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  assert rep["exact_support_radius"] == 200
  spelled = dict(man, locale={"kind": "half-plane"},
                 function=dict(man["function"], values=["0", "0", "0", "1"]))
  code, want = run(tmp_path, spelled, "expand", name="spelled.json")
  assert code == 0
  assert (rep["function"], rep["pieces"]) == (want["function"], want["pieces"])


def test_far_triangular_pair_has_a_distance(tmp_path):
  man = {"locale": {"kind": "triangular"}, "interaction": "exclusion",
         "window": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
         "function": {"support": [[0, 0], [200, 0]],
                      "values": ["0", "0", "0", "1"]}}
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  assert rep["exact_support_radius"] == 200


def test_missing_manifest_is_an_input_error(tmp_path, capsys):
  code = main(["irreducible"])
  assert code == 2
  rep = json.loads(capsys.readouterr().out)
  assert rep["error"]["kind"] == "InputError"


def test_nonexistent_manifest_path(tmp_path):
  out = tmp_path / "r.json"
  code = main(["consv", "--manifest", str(tmp_path / "missing.json"),
               "--out", str(out)])
  assert code == 2
  assert json.loads(out.read_text())["error"]["kind"] == "InputError"


def test_manifest_must_be_an_object(tmp_path):
  man_path = tmp_path / "man.json"
  man_path.write_text("[1, 2, 3]")
  out = tmp_path / "r.json"
  code = main(["consv", "--manifest", str(man_path), "--out", str(out)])
  assert code == 2


def test_stdout_when_no_out_file(tmp_path, capsys):
  man_path = tmp_path / "man.json"
  man_path.write_text(json.dumps({"interaction": "exclusion"}))
  code = main(["consv", "--manifest", str(man_path)])
  captured = capsys.readouterr()
  assert code == 0
  rep = json.loads(captured.out)
  assert rep["c_phi"] == 1
  assert captured.out.endswith("\n")


def test_out_file_silences_stdout(tmp_path, capsys):
  man_path = tmp_path / "man.json"
  man_path.write_text(json.dumps({"interaction": "exclusion"}))
  out = tmp_path / "r.json"
  main(["consv", "--manifest", str(man_path), "--out", str(out)])
  assert capsys.readouterr().out == ""
  assert out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
def test_help_lists_every_option(argv, capsys):
  with pytest.raises(SystemExit) as exc:
    main(argv)
  assert exc.value.code == 0
  out = capsys.readouterr().out
  for option in ("--manifest", "--out", "--seed", "--budget"):
    assert option in out


def test_unknown_command_exits_2(capsys):
  with pytest.raises(SystemExit) as exc:
    main(["bogus"])
  assert exc.value.code == 2
  assert "invalid choice" in capsys.readouterr().err


def test_seed_is_recorded(tmp_path):
  code, rep = run(tmp_path, {"interaction": "exclusion"}, "consv",
                  "--seed", "42")
  assert rep["seed"] == 42


DECOMPOSE = dict(BASE,
                 window={"kind": "box", "lo": [0], "hi": [6]},
                 function={"support": [[0], [1]],
                           "values": ["0", "0", "0", "1/2"]},
                 form={"builtin": "synthesized"},
                 cocycle={"a": [["-2/3"]]},
                 action={"generators": [[1]]},
                 domain=[[0]])
PATH_GRAPH = {"kind": "finite-graph", "vertices": [0, 1, 2],
              "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("command,manifest", [
    ("counterexample", {"sites": "9"}),
    ("counterexample", {"sites": 7.0}),
    ("irreducible", dict(BASE, locale={"kind": "euclidean", "d": "x"})),
    ("decompose", dict(DECOMPOSE, radius="1")),
    ("decompose", dict(DECOMPOSE, radius=-1)),
    ("decompose", dict(DECOMPOSE, action={"generators": [["a"]]})),
    ("split", {"interaction": "exclusion",
               "pairing": {"cells": [{"a": ["1"], "v": "0"}]}}),
    ("split", {"interaction": "exclusion",
               "pairing": {"radius": "x", "cells": []}}),
    ("closed", dict(BASE, form={"radius": "x", "edges": []})),
    ("expand", {"locale": PATH_GRAPH, "interaction": "exclusion",
                "window": {"vertices": [0, 1, 2]},
                "function": {"support": [0, "x"], "values": ["0"] * 4}}),
    ("consv", {"interaction": "multispecies:x"}),
    ("consv", {"interaction": {"name": 5}}),
], ids=["counterexample-sites-string",
        "counterexample-sites-float", "locale-d", "decompose-radius-string",
        "decompose-radius-negative", "decompose-generator-entry",
        "pairing-cell-without-b", "pairing-radius", "form-radius",
        "finite-graph-foreign-vertex", "interaction-parameter",
        "interaction-name-not-a-string"])
def test_ill_typed_manifest_count_is_an_input_error(tmp_path, command,
                                                    manifest):
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"


LINE = {"kind": "euclidean", "d": 1}


def _custom_rule(states, rows):
  return {"interaction": {"states": states, "base": states[0], "map": rows}}


@pytest.mark.parametrize("command,manifest,message", [
    ("irreducible", {"locale": LINE, "interaction": "exclusion"},
     "manifest is missing the 'window' entry"),
    ("closed", {"locale": LINE, "interaction": "exclusion",
                "form": {"edges": []}},
     "manifest is missing the 'window' entry"),
    ("expand", dict(BASE, function={"builtin": "nope"}),
     "unknown builtin function 'nope'"),
    ("closed", dict(BASE, form={"builtin": "nope"}),
     "unknown builtin form 'nope'"),
    ("omega-rho", dict(DECOMPOSE, domain=[]), "bad domain []"),
    ("expand", dict(BASE, function={"support": [[0]], "values": ["0", "x/"]}),
     "bad rational literal 'x/'"),
    ("consv", _custom_rule([0, 0], []), "interaction states must be distinct"),
    ("consv", {"interaction": "generalized-exclusion:0"},
     "generalized exclusion needs kappa >= 1"),
    ("consv", {"interaction": "lattice-gas:1"}, "lattice gas needs kappa >= 2"),
    ("consv", {"interaction": "multispecies"},
     "interaction 'multispecies' needs a parameter, e.g. multispecies:2"),
    ("consv", _custom_rule([0, 1], [[0, 1, 1]]),
     "map rows are [s1, s2, t1, t2]; got [0, 1, 1]"),
    ("transfer", {"locale": {"kind": "product", "factors": [LINE]}},
     "product locale needs at least two factors"),
    ("transfer", {"locale": {"kind": "product", "factors": 3}},
     "bad product factors 3"),
    ("irreducible", dict(BASE, locale={"kind": "product",
                                       "factors": [LINE, LINE]},
                         window={"vertices": [[0]]}),
     "bad product vertex [0]"),
    ("irreducible", dict(BASE, window=3), "bad window descriptor 3"),
    ("irreducible", dict(BASE, window={"lo": [0, 0], "hi": [4, 4]}),
     "box bounds must have 1 coordinates"),
    ("irreducible", dict(BASE, window={"lo": [4], "hi": [0]}),
     "box needs lo <= hi coordinatewise"),
    ("irreducible", dict(BASE, locale={"kind": "free-group"}),
     "box windows need a lattice locale, not free-group"),
    ("irreducible", dict(BASE, window={"vertices": 3}),
     "bad window vertices 3"),
    ("decompose", dict(DECOMPOSE, sub_budget=2),
     "sub-window budget too small to cover the domain's radius ball"),
    ("omega-rho", dict(DECOMPOSE, cocycle=5), "bad cocycle payload 5"),
    ("consv", {"interaction": 5}, "bad interaction descriptor 5"),
    ("consv", {"interaction": {"states": [0, 1]}},
     "interaction descriptor missing 'base'"),
    ("consv", _custom_rule([0, 1], [[0, 1, 1, 2]]),
     "map row [0, 1, 1, 2] uses unknown state 2"),
    ("expand", dict(BASE, function={"support": [[1]], "values": ["0", "1"]},
                    probe=3), "bad probe plan 3"),
    ("omega-rho", dict(DECOMPOSE, cocycle={"a": [[1.5]]}),
     "expected rational string, got 1.5"),
    ("delta", dict(DECOMPOSE, form={"builtin": "differential"},
                   function={"support": [[3]], "values": ["1", "0", "0"]},
                   **_custom_rule([0, 1, 2], [[1, 0, 0, 1], [0, 1, 1, 0]])),
     "cocycle extraction: no transition path on the probe window "
     "[[2], [3], [4], [5]] carries state 2 from [2] to [3]"),
    ("counterexample", {"sites": 2},
     "window too small to place any probe pair"),
    ("counterexample", {"sites": 0}, "bad sites 0"),
    ("irreducible", dict(BASE, locale={"kind": "free-group"},
                         window={"vertices": [[3]]}),
     "[3] is not a vertex of locale free-group"),
    ("irreducible", dict(BASE, locale={"kind": "free-group"},
                         window={"vertices": [[1, -1]]}),
     "[1, -1] is not a vertex of locale free-group"),
    ("transfer", {"locale": {"kind": "finite-graph", "vertices": [0, 1],
                             "edges": [[0]]}},
     "bad finite-graph descriptor {'kind': 'finite-graph', 'vertices': "
     "[0, 1], 'edges': [[0]]}"),
    ("expand", dict(BASE, function={"support": [[1], [2]],
                                    "values": [True, "0", "0", False]}),
     "expected rational string, got True"),
    ("omega-rho", dict(DECOMPOSE, cocycle={"a": [[False]]}),
     "expected rational string, got False"),
    ("irreducible", dict(BASE, locale=5), "bad locale descriptor 5"),
    ("irreducible", dict(BASE, locale={"d": 2}),
     "bad locale descriptor {'d': 2}"),
    ("validate", _custom_rule([0, 1], [[0, 1, 1, 0], [0, 1, 0, 1],
                                       [1, 0, 0, 1]]),
     "map row [0, 1, 0, 1] repeats the source pair [0, 1]"),
], ids=["missing-window", "closed-missing-window",
        "unknown-builtin-function", "unknown-builtin-form",
        "empty-domain", "rational-literal",
        "repeated-states", "generalized-exclusion-0", "lattice-gas-1",
        "multispecies-without-parameter", "three-entry-map-row",
        "product-one-factor", "product-factors-not-a-list",
        "bad-product-vertex", "window-not-an-object", "box-corner-length",
        "box-lo-above-hi", "box-on-free-group", "explicit-vertices-not-a-list",
        "sub-budget-too-small",
        "cocycle-not-an-object", "interaction-not-an-object",
        "interaction-without-base", "map-row-unknown-state",
        "probe-plan-not-an-object", "cocycle-entry-float",
        "delta-frozen-state", "counterexample-two-sites",
        "counterexample-no-sites", "free-group-letter-above-rank",
        "free-group-unreduced-word", "finite-graph-one-ended-edge",
        "function-value-true", "cocycle-entry-false", "locale-not-an-object",
        "locale-without-kind", "map-row-repeats-a-source-pair"])
def test_manifest_input_errors_exit_2_with_their_message(tmp_path, command,
                                                         manifest, message):
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert rep["error"]["message"] == message


def test_decompose_takes_a_domain_outside_the_window(tmp_path):
  """The flux reads only tile-index differences, so any translate of the
  fundamental domain gives the same report: decompose carries it next to
  the window's center first."""
  reports = []
  for domain in ([[0]], [[9]]):
    code, _ = run(tmp_path, dict(DECOMPOSE, domain=domain), "decompose")
    assert code == 0
    reports.append((tmp_path / "man.json.report.json").read_bytes())
  assert reports[0] == reports[1]


OMEGA_RHO = dict(DECOMPOSE, form={"builtin": "omega-rho"})


@pytest.mark.parametrize("command,manifest,message", [
    ("expand", dict(BASE, function={"support": [[0]], "values": ["0"]}),
     "value table has 1 entries, expected 2"),
    ("closed", dict(BASE, form={"edges": 3}), "bad form payload {'edges': 3}"),
    ("delta", dict(DECOMPOSE, action={"generators": 3}),
     "bad action {'generators': 3}"),
    ("delta", dict(DECOMPOSE, action={"generators": [[1, 0]]}),
     "generator length does not match the locale"),
    ("omega-rho", dict(OMEGA_RHO, cocycle={"a": [["1"], ["2"]]}),
     "cocycle matrix needs one row per conserved quantity"),
    ("omega-rho", dict(OMEGA_RHO, cocycle={"a": [["1", "2"]]}),
     "cocycle matrix needs one column per generator"),
    ("delta", dict(DECOMPOSE, window={"kind": "box", "lo": [0], "hi": [0]}),
     "window too small to probe the translation defect"),
    ("decompose", dict(DECOMPOSE, radius=4),
     "window too small: the radius ball around the (re-centered) "
     "fundamental domain leaves it"),
    ("irreducible", dict(BASE, window={"vertices": [0]}),
     "bad vertex encoding 0"),
    ("irreducible", dict(BASE, window={"kind": "nope"}),
     "unknown window kind 'nope'"),
    ("consv", {"interaction": {"states": [0, 1], "base": 5, "map": []}},
     "base 5 is not one of the states"),
    ("consv", {"interaction": {"states": 3, "base": 0, "map": []}},
     "bad interaction states or map in {'states': 3, 'base': 0, 'map': []}"),
], ids=["value-count", "form-payload", "action-payload", "generator-length",
        "cocycle-rows", "cocycle-columns", "window-too-small-to-probe",
        "radius-ball-leaves-window", "vertex-encoding", "window-kind",
        "interaction-base", "interaction-states"])
def test_model_and_shape_errors_exit_2_with_their_message(tmp_path, command,
                                                          manifest, message):
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert rep["error"]["message"] == message


SQUARE4 =dict(BASE, locale={"kind": "euclidean", "d": 2},
               window={"kind": "box", "lo": [0, 0], "hi": [3, 3]})
HEXAGONAL4 = dict(BASE, locale={"kind": "hexagonal"},
                  window={"kind": "box", "lo": [0, 0], "hi": [3, 3]})


@pytest.mark.parametrize("command,manifest,vertex", [
    ("omega-rho", dict(SQUARE4, cocycle={"a": [["1", "2"]]},
                       action={"generators": [[1, 0], [0, 1]]},
                       domain=[[0]]), [0]),
    ("omega-rho", dict(SQUARE4, cocycle={"a": [["1", "2"]]},
                       action={"generators": [[1, 0], [0, 1]]},
                       domain=[[0, 0, 5]]), [0, 0, 5]),
    ("diff", dict(SQUARE4, function={"support": [[1]],
                                     "values": ["0", "1"]}), [1]),
    ("diff", dict(HEXAGONAL4, function={"support": [[0, 0, 7]],
                                        "values": ["0", "1"]}), [0, 0, 7]),
], ids=["domain-too-short", "domain-too-long", "support-too-short",
        "hexagonal-flag"])
def test_a_vertex_outside_the_locale_is_an_input_error(tmp_path, command,
                                                       manifest, vertex):
  # Each vertex has the wrong shape for its locale; read as a tuple anyway,
  # it drops every vertical flux or leaves an empty form.
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert rep["error"]["message"] == (
      f"{vertex!r} is not a vertex of locale {manifest['locale']['kind']}")


@pytest.mark.parametrize("command", [
    "irreducible", "expand", "diff", "closed", "integrate", "pairing", "split",
    "uniformize", "h0", "omega-rho", "delta", "decompose"])
def test_an_empty_window_is_an_input_error(tmp_path, command):
  # refused when the window is read, before any command places a probe at
  # its center or scans its configurations
  man = dict(DECOMPOSE, window={"kind": "explicit", "vertices": []})
  code, rep = run(tmp_path, man, command)
  assert code == 2
  assert rep["error"] == {"kind": "InputError",
                          "message": "a window needs at least one vertex"}


# Small valid manifests covering every kind of input the commands read.
FUZZ_MANIFESTS = [
    ("consv", {"interaction": "exclusion"}),
    ("validate", {"interaction": {"name": "t", "states": [0, 1], "base": 0,
                                  "map": [[0, 1, 1, 0]]}}),
    ("irreducible", dict(BASE)),
    ("expand", dict(BASE, function={"support": [[0], [1]],
                                    "values": ["0", "1", "2", "5"]},
                    probe={"radius": 1})),
    ("closed", dict(BASE, function={"support": [[1], [2]],
                                    "values": ["0", "0", "0", "1"]},
                    form={"builtin": "differential"})),
    ("closed", dict(BASE, form={"radius": 0, "edges": [
        {"e": [[0], [1]], "fn": {"support": [[0], [1]],
                                 "values": ["0", "1", "-1", "0"]}}]})),
    ("split", {"interaction": "exclusion", "pairing": {
        "radius": 1, "probes": [],
        "cells": [{"a": ["1"], "b": ["1"], "v": "2"}]}}),
    ("pairing", dict(BASE, interaction="multispecies:2",
                     window={"kind": "box", "lo": [0], "hi": [6]},
                     function={"builtin": "inversion-count"},
                     probe={"radius": 0})),
    ("delta", dict(DECOMPOSE, form={"builtin": "omega-rho"},
                   cocycle={"a": [["1/2"]]})),
    ("decompose", dict(DECOMPOSE, radius=1, sub_budget=4096)),
    ("counterexample", {"sites": 5}),
    ("transfer", {"locale": PATH_GRAPH}),
]
MUTANTS = ("x", "9", -1, 0, 2, 7.0, True, None, [], {}, [["a"]],
           {"kind": "x"}, "delete")


def _entry_paths(obj, prefix=()):
  """The path of every dict entry and list element inside ``obj``."""
  items = (obj.items() if isinstance(obj, dict)
           else enumerate(obj) if isinstance(obj, list) else ())
  for key, value in items:
    yield prefix + (key,)
    yield from _entry_paths(value, prefix + (key,))


def _main_report(command, manifest):
  """The exit code and the report of ``command`` on ``manifest``, through
  ``main`` with the report on stdout."""
  with tempfile.TemporaryDirectory() as tmp:
    man_path = os.path.join(tmp, "man.json")
    with open(man_path, "w") as fh:
      json.dump(manifest, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
      code = main([command, "--manifest", man_path])
  return code, json.loads(out.getvalue())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_main_is_total_over_mutated_manifests(data):
  command, manifest = data.draw(st.sampled_from(FUZZ_MANIFESTS))
  manifest = copy.deepcopy(manifest)
  path = data.draw(st.sampled_from(list(_entry_paths(manifest))))
  value = data.draw(st.sampled_from(MUTANTS))
  holder = reduce(getitem, path[:-1], manifest)
  if value == "delete":
    del holder[path[-1]]
  else:
    holder[path[-1]] = value
  code, rep = _main_report(command, manifest)
  assert code in (0, 1, 2)
  assert rep["exit_code"] == code
  if code == 1 and "error" in rep:
    assert "witness" in rep["error"] or "certificate" in rep["error"]


def _decomposed(manifest):
  """The cocycle a that ``decompose`` recovers from ``manifest``, as
  Fractions, and the rest of its report that no pin can move: the residual
  and the work counts."""
  code, rep = _main_report("decompose", manifest)
  assert code == 0, rep.get("error")
  a = [[Fraction(x) for x in row] for row in rep["cocycle"]["a"]]
  counts = (rep["residual"]["edges_checked"], rep["sub_window_sites"],
            rep["shift_invariance"]["checked"], rep["extraction"],
            rep["margins"])
  return a, rep["residual"]["max_abs_residual"], counts


QUANTITY_MODELS = ("exclusion", "multispecies:2", "generalized-exclusion:2",
                   "lattice-gas:2", "spin3")
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decompose_follows_scaling_reflection_and_species_swap(data):
  # A synthesized line(9) manifest, changed in ways whose effect on the
  # cocycle is known: scaling f and a scales the recovered a, reflecting
  # x -> -x negates its column, and swapping the two species of
  # multispecies:2 swaps its rows.  The residual stays "0" and no work count
  # moves.  f-hat is not compared: its bytes depend on the pins.
  name = data.draw(st.sampled_from(QUANTITY_MODELS), label="model")
  inter = interaction_from_json(name)
  s, base = inter.n_states, inter.base
  x = data.draw(st.integers(0, 7))
  sites = [[x], [x + 1]]
  values = data.draw(st.lists(RATIONALS, min_size=s * s, max_size=s * s))
  values[base * s + base] = Fraction(0)
  a = [[data.draw(RATIONALS)] for _ in conserved_basis(inter)]

  def manifest(sites, values, a, lo, domain):
    return {"locale": {"kind": "euclidean", "d": 1}, "interaction": name,
            "window": {"kind": "box", "lo": [lo], "hi": [lo + 8]},
            "function": {"support": sites, "values": list(map(str, values))},
            "form": {"builtin": "synthesized"},
            "cocycle": {"a": [[str(k) for k in row] for row in a]},
            "action": {"generators": [[1]]}, "domain": [domain]}

  domain = [data.draw(st.integers(0, 8))]
  got_a, residual, counts = _decomposed(manifest(sites, values, a, 0, domain))
  assert (got_a, residual) == (a, "0")
  scaled = [(k, manifest(sites, [k * v for v in values],
                         [[k * c for c in row] for row in a], 0, domain))
            for k in (3, Fraction(-1, 2))]
  # the reflected support is listed in the original order, so descending
  reflected = manifest([[-v] for v, in sites], values,
                       [[-c for c in row] for row in a], -8, [-domain[0]])
  for k, man in scaled + [(-1, reflected)]:
    assert _decomposed(man) == ([[k * c for c in row] for row in a], "0",
                                counts), k
  # read onto its sorted support, the reflected table is transposed
  transposed = [values[j * s + i] for i in range(s) for j in range(s)]
  assert _main_report("expand", reflected)[1]["function"] == {
      "support": [[-x - 1], [-x]], "values": list(map(str, transposed))}
  if name == "multispecies:2":
    swap = (0, 2, 1)
    swapped = [values[swap[i] * s + swap[j]] for i in range(s)
               for j in range(s)]
    assert _decomposed(manifest(sites, swapped, a[::-1], 0, domain)) == (
        a[::-1], "0", counts)
