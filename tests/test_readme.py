"""The library example and the example manifest in README.md run as
printed."""

import json
import re
from pathlib import Path

from configcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
  blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
  assert len(blocks) == 1
  exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_manifest_runs_the_shown_commands(tmp_path):
  blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
  assert len(blocks) == 1
  manifest = tmp_path / "man.json"
  manifest.write_text(blocks[0])
  for command in ("consv", "decompose", "counterexample"):
    out = tmp_path / f"{command}.json"
    argv = [command, "--out", str(out)]
    if command != "counterexample":  # it needs no manifest
      argv += ["--manifest", str(manifest)]
    assert main(argv) == 0, json.loads(out.read_text()).get("error")
    if command == "decompose":
      report = json.loads(out.read_text())
      assert report["residual"]["max_abs_residual"] == "0"
      assert report["cocycle"]["a"] == json.loads(blocks[0])["cocycle"]["a"]
