"""Guarantees about the library source itself."""

import ast
import re
import sys
from pathlib import Path

import configcalc


def test_library_has_no_assert_statements():
  # ``python -O`` strips asserts, so no result may be guarded by one.
  files = sorted(Path(configcalc.__file__).parent.glob("*.py"))
  assert files
  found = [f"{path.name}:{node.lineno}"
           for path in files
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, ast.Assert)]
  assert not found, found


def _modules():
  files = sorted(Path(configcalc.__file__).parent.glob("*.py"))
  assert files
  return {path.name: ast.parse(path.read_text(), str(path)) for path in files}


def _used_names(tree) -> set:
  """Every name read in ``tree``: loaded names, attribute names, and the
  strings listed in ``__all__``."""
  used = set()
  for node in ast.walk(tree):
    if isinstance(node, ast.Name):
      used.add(node.id)
    elif isinstance(node, ast.Attribute):
      used.add(node.attr)
    elif (isinstance(node, ast.Assign)
          and any(isinstance(t, ast.Name) and t.id == "__all__"
                  for t in node.targets)):
      used.update(ast.literal_eval(node.value))
  return used


def test_library_imports_only_names_it_uses():
  # A merged kernel leaves its old helpers' imports behind.
  unused = []
  for name, tree in _modules().items():
    used = _used_names(tree)
    for node in tree.body:
      if isinstance(node, (ast.Import, ast.ImportFrom)):
        if getattr(node, "module", None) == "__future__":
          continue
        for alias in node.names:
          bound = alias.asname or alias.name.split(".")[0]
          if bound not in used:
            unused.append(f"{name}:{node.lineno} {bound}")
  assert not unused, unused


def test_library_imports_only_the_standard_library():
  # The library has no runtime dependencies: every import is relative, or
  # names configcalc, __future__ or a standard-library module.
  allowed = set(sys.stdlib_module_names) | {"configcalc", "__future__"}
  found = []
  for name, tree in _modules().items():
    for node in ast.walk(tree):
      if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
      elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module]
      else:
        continue
      found += [f"{name}:{node.lineno} {module}" for module in modules
                if module.split(".")[0] not in allowed]
  assert not found, found


def test_every_private_function_is_referenced():
  # A module-private function that nothing calls is a dead copy.
  modules = _modules()
  used = set().union(*map(_used_names, modules.values()))
  dead = [f"{name}:{node.lineno} {node.name}"
          for name, tree in modules.items() for node in tree.body
          if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
          and not node.name.startswith("__") and node.name not in used]
  assert not dead, dead


def _references(tree) -> set:
  """Every name ``tree`` reads as a ``Name`` or an ``Attribute``, except
  inside a function of that same name (its own definition or recursion)."""
  found = set()

  def visit(node, enclosing):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
      enclosing = enclosing | {node.name}
    elif isinstance(node, ast.Name) and node.id not in enclosing:
      found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
      found.add(node.attr)
    for child in ast.iter_child_nodes(node):
      visit(child, enclosing)

  visit(tree, frozenset())
  return found


def test_every_public_name_has_a_caller():
  # A public function or method that only the tests reach is surface with no
  # user.  A caller is a reference elsewhere in the library or in scripts/ or
  # perfbench/, an entry of ``__all__``, or a name the README writes in
  # backticks.  Names are matched as names, so a method is kept alive by any
  # attribute of that name.
  root = Path(__file__).resolve().parent.parent
  modules = _modules()
  outside = sorted((root / "scripts").glob("*.py")) + sorted(
      (root / "perfbench").glob("*.py"))
  callers = set(configcalc.__all__).union(
      *map(_references, modules.values()),
      *(_references(ast.parse(path.read_text(), str(path)))
        for path in outside))
  readme = re.sub(r"```.*?```", "", (root / "README.md").read_text(),
                  flags=re.S)
  callers |= {word for span in re.findall(r"`([^`]+)`", readme)
              for word in re.findall(r"[A-Za-z_]\w*", span)}
  defs = []
  for name, tree in modules.items():
    for node in tree.body:
      if isinstance(node, ast.FunctionDef):
        defs.append((name, node))
      elif isinstance(node, ast.ClassDef):
        defs += [(name, fn) for fn in node.body
                 if isinstance(fn, ast.FunctionDef)]
  uncalled = [f"{name}:{fn.lineno} {fn.name}" for name, fn in defs
              if not fn.name.startswith("_") and fn.name not in callers]
  assert not uncalled, uncalled


def _optional_parameters(fn, bound: bool) -> tuple:
  """(positional parameter names, names of those with a default and of the
  keyword-only ones with a default); ``bound`` drops self or cls."""
  a = fn.args
  pos = [p.arg for p in a.posonlyargs + a.args][1 if bound else 0:]
  optional = pos[len(pos) - len(a.defaults):] if a.defaults else []
  optional += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None]
  return pos, optional


def test_every_optional_parameter_is_set_by_a_caller():
  # A default that every caller keeps is a parameter the inputs already fix.
  # Calls are matched by name, as ``f(...)`` or ``x.f(...)``.
  root = Path(__file__).resolve().parent.parent
  lib = sorted(Path(configcalc.__file__).parent.glob("*.py"))
  callers = lib + sorted((root / "scripts").glob("*.py")) + sorted(
      (root / "perfbench").glob("*.py"))
  trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
  defs = []
  for path in lib:
    for node in trees[path].body:
      if isinstance(node, ast.FunctionDef):
        defs.append((path.name, node, False))
      elif isinstance(node, ast.ClassDef):
        defs += [(path.name, fn, not any(
                     isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list))
                 for fn in node.body if isinstance(fn, ast.FunctionDef)]
  calls = {}
  for tree in trees.values():
    for node in ast.walk(tree):
      if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        calls.setdefault(name, []).append(node)
  unset = []
  for module, fn, bound in defs:
    pos, optional = _optional_parameters(fn, bound)
    passed = set()
    for call in calls.get(fn.name, ()):
      if (any(isinstance(a, ast.Starred) for a in call.args)
          or any(k.arg is None for k in call.keywords)):
        passed.update(optional)
      passed.update(pos[:len(call.args)], (k.arg for k in call.keywords))
    if fn.name in calls:
      unset += [f"{module}:{fn.lineno} {fn.name}({p})"
                for p in optional if p not in passed]
  assert not unset, unset


def test_index_arithmetic_stays_in_configspace_and_calculus():
  # Where a configuration sits in a table is configspace's and calculus's
  # business (``configspace._offsets`` and the kernels beside it); the
  # algebra and front-end modules read tables through those kernels, and
  # build functions through calculus's constructors, not ``_fill``.
  banned = {"digit_powers", "_site_sums", "index_of", "digits_of", "powers",
            "_fill"}
  modules = _modules()
  found = []
  for name in ("cohomology.py", "decomposition.py", "cli.py"):
    for node in ast.walk(modules[name]):
      if isinstance(node, ast.Name):
        used = {node.id}
      elif isinstance(node, ast.Attribute):
        used = {node.attr}
      elif isinstance(node, ast.ImportFrom):
        used = {alias.name for alias in node.names}
      else:
        continue
      found += [f"{name}:{node.lineno} {word}" for word in used & banned]
  assert not found, found
