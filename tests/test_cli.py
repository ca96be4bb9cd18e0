"""End-to-end command tests: manifests in, one JSON report out, exit codes
0 (all checks passed) / 1 (a property failed, with witness) / 2 (bad input).
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.calculus import (Form, NotClosedError, differential,
                                 form_to_json, from_callable, perturbed)
from configcalc.cli import main
from configcalc.cohomology import (PairingNotWellDefined, SplittingInfeasible,
                                   compute_pairing, pairing_table_to_json)
from configcalc.decomposition import InconsistentCocycle, NotShiftInvariant
from configcalc.interactions import conserved_basis, exclusion, glauber
from configcalc.locales import Euclidean, box
from configcalc.serialize import WitnessError


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


def test_expand_lists_sorted_pieces(tmp_path):
  man = dict(BASE, function={"support": [[1], [2]],
                             "values": ["0", "1", "-2", "3"]})
  code, rep = run(tmp_path, man, "expand")
  assert code == 0
  sizes = [len(p["sites"]) for p in rep["pieces"]]
  assert sizes == sorted(sizes)
  assert rep["exact_support_radius"] == 1
  assert rep["n_pieces"] == len(rep["pieces"])


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
  """spin3's rotation under the ordered flux, and a one-cell perturbation of
  the zero form under glauber: no return arc negates its tree step, and
  both commands still report a witness whose integral is its defect.
  Glauber's flip across (1, 0) is undone by the same edge, so the bump's
  -1/4 sits on (1, 0) at the image cell, where the two-step witness (flip
  site 1 across (1, 2), back across (1, 0)) reads it."""
  win, inter = box(Euclidean(1), (0,), (7,)), glauber()
  bad = perturbed(Form(inter.n_states, inter.base), win, inter,
                  ((1,), (0,)), {(1,): 0, (0,): 0}, Fraction(1, 4))
  flip = {"locale": {"kind": "euclidean", "d": 1}, "interaction": "glauber",
          "window": {"kind": "box", "lo": [0], "hi": [7]},
          "form": form_to_json(bad, win)}
  rotation = json.loads((DATA / "closed_spin3_line7.json").read_text())
  for man, defect in ((rotation, "1"), (flip, "-1/4")):
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
      "probe": {"radius": 3, "ball_radius": 1},
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
      "probe": {"radius": 3, "ball_radius": 1},
      "function": {"builtin": "inversion-count"},
  }
  code, rep = run(tmp_path, man, "split")
  assert code == 1
  assert rep["error"]["kind"] == "SplittingInfeasible"
  cert = rep["error"]["certificate"]
  assert cert["combination"]
  assert cert["contradiction"] != "0"


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
             probe={"radius": 1, "ball_radius": 1},
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
  for man, want in ((pair_flip, 1), (dict(pair_flip, interaction="exclusion"),
                                     0)):
    code, fibers = run(tmp_path, man, "irreducible")
    assert code == want
    code, h0 = run(tmp_path, man, "h0")
    assert code == want
    assert h0["h0"]["quantities_separate_components"] == (want == 0)
    assert h0["h0"]["h0_dimension"] == fibers["fibers"]["n_components"]
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


def test_pairing_names_a_probe_budget_that_admits_no_pair(tmp_path):
  # Every probe pair fits the 11-site window; the budget turns each away.
  man = dict(BASE, interaction="multispecies:2",
             window={"kind": "box", "lo": [0], "hi": [10]},
             function={"support": [[4], [5]],
                       "values": [str(k) for k in range(9)]},
             probe={"budget": 8})
  code, rep = run(tmp_path, man, "pairing")
  assert code == 2
  assert rep["error"]["message"] == (
      "probe budget 8 admits no probe pair: the smallest needs 3^2 "
      "configurations")
  man["probe"] = {"budget": 9}
  assert run(tmp_path, man, "pairing")[0] == 0


def test_decompose_on_a_split_locale_needs_explicit_probes(tmp_path):
  man = dict(BASE,
             locale={"kind": "n-neighbor", "d": 1, "n": 2},
             window={"kind": "box", "lo": [0], "hi": [6]},
             function={"support": [[0], [1]],
                       "values": ["0", "0", "0", "1/2"]},
             form={"builtin": "synthesized"},
             cocycle={"a": [["-2/3"]]},
             action={"generators": [[1]]},
             domain=[[0]])
  code, rep = run(tmp_path, man, "decompose")
  assert code == 2
  assert rep["error"]["message"] == (
      "no probe orientation convention for split locale n-neighbor; "
      "supply explicit probes")


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


def test_boolean_budget_is_an_input_error(tmp_path):
  code, rep = run(tmp_path, dict(BASE, budget=True), "irreducible")
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


def test_pair_beyond_the_distance_cap_is_an_input_error(tmp_path):
  # the half-plane has no closed-form distance; its two support sites lie
  # beyond the breadth-first distance cap
  man = {"locale": {"kind": "half-plane"}, "interaction": "exclusion",
         "window": {"kind": "explicit", "vertices": [[0, 0], [1, 0]]},
         "function": {"support": [[0, 0], [200, 0]],
                      "values": ["0", "0", "0", "1"]}}
  code, rep = run(tmp_path, man, "expand")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert "exceeds cap" in rep["error"]["message"]


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
    ("transfer", {"locale": PATH_GRAPH, "transfer": {"probe_radius": "x"}}),
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
], ids=["transfer-probe-radius", "counterexample-sites-string",
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
    ("expand", dict(BASE, function={"builtin": "nope"}),
     "unknown builtin function 'nope'"),
    ("closed", dict(BASE, form={"builtin": "nope"}),
     "unknown builtin form 'nope'"),
    ("omega-rho", dict(DECOMPOSE, domain=[]), "bad domain []"),
    ("transfer", {"locale": PATH_GRAPH, "transfer": 3},
     "bad transfer options 3"),
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
    ("decompose", dict(DECOMPOSE, domain=[[9]]),
     "fundamental domain must sit inside the window"),
    ("decompose", dict(DECOMPOSE, sub_budget=2),
     "sub-window budget too small to cover the domain's radius ball"),
    ("omega-rho", dict(DECOMPOSE, cocycle=5), "bad cocycle payload 5"),
], ids=["missing-window", "unknown-builtin-function", "unknown-builtin-form",
        "empty-domain", "transfer-not-an-object", "rational-literal",
        "repeated-states", "generalized-exclusion-0", "lattice-gas-1",
        "multispecies-without-parameter", "three-entry-map-row",
        "product-one-factor", "product-factors-not-a-list",
        "bad-product-vertex", "window-not-an-object", "box-corner-length",
        "box-lo-above-hi", "box-on-free-group", "explicit-vertices-not-a-list",
        "decompose-domain-outside-window", "sub-budget-too-small",
        "cocycle-not-an-object"])
def test_manifest_input_errors_exit_2_with_their_message(tmp_path, command,
                                                         manifest, message):
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"
  assert rep["error"]["message"] == message


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
                     probe={"radius": 0, "ball_radius": 1, "budget": 2000})),
    ("delta", dict(DECOMPOSE, form={"builtin": "omega-rho"},
                   cocycle={"a": [["1/2"]]})),
    ("decompose", dict(DECOMPOSE, radius=1, sub_budget=4096)),
    ("counterexample", {"sites": 5}),
    ("transfer", {"locale": PATH_GRAPH,
                  "transfer": {"probe_radius": 1, "probe_margin": 1}}),
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
  with tempfile.TemporaryDirectory() as tmp:
    man_path = os.path.join(tmp, "man.json")
    with open(man_path, "w") as fh:
      json.dump(manifest, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
      code = main([command, "--manifest", man_path])
  rep = json.loads(out.getvalue())
  assert code in (0, 1, 2)
  assert rep["exit_code"] == code
  if code == 1 and "error" in rep:
    assert "witness" in rep["error"] or "certificate" in rep["error"]
