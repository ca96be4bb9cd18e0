"""Smoke tests: every script in scripts/ runs with its default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import configcalc

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_defaults(script):
  src = str(Path(configcalc.__file__).resolve().parent.parent)
  env = dict(os.environ)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  proc = subprocess.run([sys.executable, str(script)], env=env,
                        capture_output=True, text=True, timeout=120)
  assert proc.returncode == 0, proc.stderr
  assert proc.stdout
