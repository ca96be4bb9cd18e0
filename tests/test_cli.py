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

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.calculus import (NotClosedError, differential, form_to_json,
                                 from_callable, perturbed)
from configcalc.cli import main
from configcalc.cohomology import (PairingNotWellDefined, SplittingInfeasible,
                                   compute_pairing, pairing_table_to_json)
from configcalc.decomposition import InconsistentCocycle, NotShiftInvariant
from configcalc.interactions import conserved_basis, exclusion
from configcalc.locales import Euclidean, box
from configcalc.serialize import WitnessError


def run(tmp_path, manifest, *argv, name="man.json"):
  man_path = tmp_path / name
  man_path.write_text(json.dumps(manifest))
  out_path = tmp_path / (name + ".report.json")
  code = main(list(argv) + ["--manifest", str(man_path),
                            "--out", str(out_path)])
  return code, json.loads(out_path.read_text())


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


def test_far_triangular_pair_is_an_input_error(tmp_path):
  # the support's two sites lie beyond the breadth-first distance cap
  man = {"locale": {"kind": "triangular"}, "interaction": "exclusion",
         "window": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
         "function": {"support": [[0, 0], [200, 0]],
                      "values": ["0", "0", "0", "1"]}}
  code, rep = run(tmp_path, man, "expand")
  assert code == 2
  assert rep["error"]["kind"] == "InputError"


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
], ids=["transfer-probe-radius", "counterexample-sites-string",
        "counterexample-sites-float", "locale-d", "decompose-radius-string",
        "decompose-radius-negative", "decompose-generator-entry",
        "pairing-cell-without-b", "pairing-radius", "form-radius",
        "finite-graph-foreign-vertex"])
def test_ill_typed_manifest_count_is_an_input_error(tmp_path, command,
                                                    manifest):
  code, rep = run(tmp_path, manifest, command)
  assert code == 2
  assert rep["error"]["kind"] == "InputError"


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
