#!/usr/bin/env python3
"""Closed-loop benchmark of configcalc: one process, one thread, one task at a time.

  python3 perfbench/run.py --workload scan --seed 1 --seconds 5 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 5

A run imports the library from ``src/`` next to this directory, generates the
workload's inputs from ``--seed``, and repeats the workload's fixed task list
(a "pass") until ``--seconds`` have elapsed; every pass is finished.  Each
task is one timed call into configcalc.  The first pass checks every output
exactly against the benchmark's own reference; later passes must reproduce
the first pass's canonical output bytes.  Every time is adjusted for the
host's speed while it was taken (see probe.py); raw times are in the info
line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
setup and the first traced pass (see tracer.py).  ``--workload all`` runs
every workload in both modes, each in its own process, and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from probe import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

# Each run imports the library and generates its inputs this many times;
# setup_s is the median.
SETUP_REPEATS = 3

# Per-layer metrics also reported per size label, as <metric>.<size>.
SIZED = {
    "configspace.configs": ("line9", "line11", "line16"),
    "configspace.self_s": ("line9", "line11", "line16"),
    "calculus.scan_configs": ("line9", "line11"),
    "calculus.scan_s": ("line9", "line11"),
    "calculus.expansion_subsets": ("bin8", "ter7"),
    "calculus.expansion_pieces": ("bin8", "ter7"),
    "calculus.expansion_s": ("bin8", "ter7"),
    "cohomology.pairing_assignments": ("line9", "line11"),
    "cohomology.pairing_cells": ("line9", "line11"),
    "cohomology.pairing_s": ("line9", "line11"),
    "decomposition.verify_edges": ("1d", "2d"),
    "decomposition.sub_window_sites": ("1d", "2d"),
    "decomposition.self_s": ("1d", "2d"),
}


def unit_of(metric: str) -> str:
  base = metric
  for name in SIZED:
    if metric.startswith(name + "."):
      base = name
  if base.endswith("_mb"):
    return "MB"
  if base.endswith("_per_s"):
    return "1/s"
  if base.endswith(("_s", "_s.p50")):
    return "s"
  if base.endswith(("_ratio", "_share")):
    return "ratio"
  if base.endswith("_bytes"):
    return "bytes"
  return "count"


# ---------------------------------------------------------------------------
# Library loading and set-up


def load_library():
  """Import configcalc and its eight modules afresh, so every set-up pays the
  import again."""
  for name in [n for n in sys.modules
               if n == "configcalc" or n.startswith("configcalc.")]:
    del sys.modules[name]
  for layer in LAYERS:
    importlib.import_module(f"configcalc.{layer}")
  return sys.modules["configcalc"]


def setup(workload, seed, workdir, traced=False):
  """Import plus input generation; returns ((start, end), tasks, tracer)."""
  start = time.perf_counter()
  cc = load_library()
  tracer = None
  if traced:
    tracer = Tracer(cc)
    tracer.size = "setup"
    tracer.install()
  try:
    tasks = WORKLOADS[workload](cc, random.Random(seed), workdir)
  finally:
    if tracer is not None:
      tracer.uninstall()
  return (start, time.perf_counter()), tasks, tracer


# ---------------------------------------------------------------------------
# Passes


class Runner:
  """Runs passes of one task list and verifies every output."""

  def __init__(self, tasks):
    self.tasks = tasks
    self.reference = {}     # task name -> sha256 of its first checked output
    self.attempted = 0
    self.failed = 0
    self.failures = []

  def run_pass(self, tracer=None):
    """Returns the (start, end) times of each task of one pass."""
    ctx = {}
    intervals = []
    for task in self.tasks:
      if tracer is not None:
        tracer.size = task.size
        tracer.install()
      error = out = None
      start = time.perf_counter()
      try:
        out = task.run(ctx)
      except Exception as exc:  # a failed task is counted, not fatal
        error = exc
      intervals.append((start, time.perf_counter()))
      if tracer is not None:
        tracer.uninstall()
      self.attempted += 1
      if error is None:
        error = self.verify(task, out)
      del out
      if error is not None:
        self.failed += 1
        self.failures.append(f"{task.name}: {type(error).__name__}: {error}")
    return intervals

  def verify(self, task, out):
    """Full check on first sight; afterwards the output must repeat exactly."""
    try:
      if task.name not in self.reference:
        task.check(out)
        self.reference[task.name] = hashlib.sha256(task.canon(out)).hexdigest()
      elif hashlib.sha256(task.canon(out)).hexdigest() != self.reference[task.name]:
        raise Mismatch("output differs from the first pass")
    except Exception as exc:  # a wrong or unreadable output is a failure
      return exc
    return None

  def digest(self):
    h = hashlib.sha256()
    for task in self.tasks:
      h.update(f"{task.name}={self.reference.get(task.name, 'failed')}\n".encode())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace, workdir):
  with SpeedProbe() as probe:
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
      interval, tasks, tracer = setup(workload, seed, workdir, traced=trace)
      setups.append(interval)
    runner = Runner(tasks)
    untraced, traced = [], []
    trace_spans = None
    start = time.perf_counter()
    while True:
      if trace and len(untraced) > len(traced):
        traced.append(runner.run_pass(tracer))
        if trace_spans is None:
          trace_spans = list(tracer.spans)  # the set-up's, then this pass's
        tracer.spans.clear()
      else:
        untraced.append(runner.run_pass())
      # Host-speed adjusted, so the number of passes does not depend on
      # how busy the host happens to be.
      done = probe.adjust(start, time.perf_counter()) >= seconds
      if done and (not trace or traced):
        break

  def raw(intervals):
    return [end - start for start, end in intervals]

  def adjusted(intervals):
    return [probe.adjust(start, end) for start, end in intervals]

  info = {
      "workload": workload,
      "passes": len(untraced) + len(traced),
      "digest": runner.digest(),
      "failures": runner.failures[:10],
      "fail_frac": runner.failed / runner.attempted,
      "probe": {"samples": len(probe.durations),
                "fastest_s": min(probe.durations, default=0.0)},
      "tasks": {},
  }
  for k, task in enumerate(runner.tasks):
    samples = [p[k] for p in untraced]
    info["tasks"][task.name] = {
        "median_s": statistics.median(raw(samples)),
        "adjusted_median_s": statistics.median(adjusted(samples)),
        "samples": len(samples)}
  if not trace:
    all_tasks = [x for p in untraced for x in p]
    metrics = {
        "wall_s": statistics.median(sum(adjusted(p)) for p in untraced),
        "task_s.p50": statistics.median(adjusted(all_tasks)),
        "setup_s": statistics.median(adjusted(setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info["raw"] = {
        "wall_s": statistics.median(sum(raw(p)) for p in untraced),
        "task_s.p50": statistics.median(raw(all_tasks)),
        "setup_s": statistics.median(raw(setups)),
    }
    info["task_samples"] = len(all_tasks)
    info["setup_samples"] = len(setups)
  else:
    metrics = layer_metrics(trace_spans, SIZED)
    first_wall = sum(raw(traced[0]))
    top = sum(s.duration for s in trace_spans
              if s.depth == 0 and s.size != "setup")
    metrics["trace.overhead_s"] = (
        statistics.median(sum(adjusted(p)) for p in traced)
        - statistics.median(sum(adjusted(p)) for p in untraced))
    metrics["trace.uncovered_share"] = 1 - top / first_wall
    metrics["trace.spans"] = len(trace_spans)
  return runner, metrics, info


# ---------------------------------------------------------------------------
# Provenance


def provenance(seed):
  src_hash = hashlib.sha256()
  for path in sorted((SRC / "configcalc").glob("*.py")):
    src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
  return {
      "python": platform.python_version(),
      "implementation": platform.python_implementation(),
      "nproc": os.cpu_count(),
      "platform": platform.platform(),
      "seed": seed,
      "commit": git_commit(),
      "src_sha256": src_hash.hexdigest(),
  }


def git_commit():
  """HEAD of the checkout's git repository, read without running git."""
  git = ROOT / ".git"
  try:
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
      return head
    ref = head[5:]
    if (git / ref).exists():
      return (git / ref).read_text().strip()
    for row in (git / "packed-refs").read_text().splitlines():
      if row.endswith(" " + ref):
        return row.split()[0]
  except OSError:
    pass
  return "unknown"


# ---------------------------------------------------------------------------
# Entry points


def run_all(args):
  """Every workload in both modes, each in its own process."""
  rows = []
  for workload in WORKLOADS:
    for trace in (0, 1):
      cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace)]
      proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
      lines = proc.stdout.strip().splitlines()
      if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{workload} trace={trace}: exit {proc.returncode}")
        return 1
      result = json.loads(lines[-1])
      info = json.loads(lines[-2])
      rows.append((workload, trace, result, info))
  for workload, trace, result, info in rows:
    print(f"== {workload} (trace {trace}) correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={info['fail_frac']} digest={info['digest'][:16]}")
    for name, m in result["metrics"].items():
      print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
  return 0 if all(r[2]["correct"] for r in rows) else 1


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--workload", required=True,
                      choices=[*WORKLOADS, "all"])
  parser.add_argument("--seed", type=int, default=1)
  parser.add_argument("--seconds", type=float, default=5)
  parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
  args = parser.parse_args(argv)

  if sys.flags.optimize:
    # configcalc guards results with assert statements; -O strips them and
    # the numbers would describe a different program.
    sys.stderr.write("refusing to run under python -O: configcalc's asserts "
                     "would be stripped\n")
    return 2
  if not (SRC / "configcalc" / "__init__.py").is_file():
    sys.stderr.write(f"configcalc sources not found under {SRC}\n")
    return 2
  if args.seconds <= 0:
    parser.error("--seconds must be positive")
  sys.path.insert(0, str(SRC))
  if args.workload == "all":
    return run_all(args)

  workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
  try:
    runner, metrics, info = run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         workdir)
  finally:
    shutil.rmtree(workdir, ignore_errors=True)
  info["provenance"] = provenance(args.seed)
  result = {
      "correct": runner.failed == 0,
      "attempted": runner.attempted,
      "failed": runner.failed,
      "metrics": {name: {"value": value, "unit": unit_of(name)}
                  for name, value in metrics.items()},
  }
  for name, m in result["metrics"].items():
    print(f"{name} {m['value']} {m['unit']}")
  print(json.dumps(info, sort_keys=True))
  print(json.dumps(result))
  return 0


if __name__ == "__main__":
  sys.exit(main())
