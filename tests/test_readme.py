"""The library example and the example manifest in README.md run as
printed, and README lists the manifest keys the command line reads."""

import ast
import json
import re
from pathlib import Path

import configcalc.cli
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


def _manifest_keys_read_by_the_cli() -> set:
  """The top-level manifest keys cli.py reads: ``_need(man, K)``,
  ``man.get(K, ...)``, ``man[K]`` and ``K in man``."""
  tree = ast.parse(Path(configcalc.cli.__file__).read_text())

  def is_man(node):
    return isinstance(node, ast.Name) and node.id == "man"

  keys = []
  for node in ast.walk(tree):
    if isinstance(node, ast.Call):
      func = node.func
      if (isinstance(func, ast.Name) and func.id == "_need"
          and is_man(node.args[0])):
        keys.append(node.args[1])
      elif (isinstance(func, ast.Attribute) and func.attr == "get"
            and is_man(func.value)):
        keys.append(node.args[0])
    elif isinstance(node, ast.Subscript) and is_man(node.value):
      keys.append(node.slice)
    elif (isinstance(node, ast.Compare) and len(node.ops) == 1
          and isinstance(node.ops[0], ast.In)
          and is_man(node.comparators[0])):
      keys.append(node.left)
  # ``_need`` itself reads ``man[key]`` for the key it is passed
  return {k.value for k in keys if isinstance(k, ast.Constant)}


def test_readme_lists_exactly_the_manifest_keys_the_cli_reads():
  text = README.read_text()
  section = text[text.index("A manifest bundles"):text.index("| command |")]
  listed = set(re.findall(r"^\* `(\w+)`:", section, re.M))
  read = _manifest_keys_read_by_the_cli()
  assert {"locale", "probe", "sites"} <= read
  assert listed == read
