"""Seeded inputs, timed tasks and exact output checks for each workload.

Each workload function takes the freshly imported ``configcalc`` package, a
seeded ``random.Random`` and a scratch directory.  It generates every input
(cocycles, local-function tables, perturbation cells, CLI manifests) and
returns the task list.  Each task's ``run`` makes the timed call into the
library, always looking functions up on the module objects at call time so
that a tracer that rebinds them sees the call.  ``check`` verifies an output
exactly against the benchmark's own reference computation and raises
``Mismatch`` when it is wrong; ``canon`` returns canonical bytes of the output
(through the library's ``*_to_json`` and ``dump_json``) for the run digest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable


class Mismatch(Exception):
  """A task's output differs from the expected result."""


@dataclass
class Task:
  name: str
  size: str            # size label the per-layer metrics are split by
  run: Callable        # run(ctx) -> output; the timed call
  check: Callable      # check(output) -> None, raises Mismatch
  canon: Callable      # canon(output) -> bytes


def expect(condition, what):
  if not condition:
    raise Mismatch(what)


def rational(rng, top=9):
  """A nonzero rational with numerator and denominator bounded by ``top``."""
  return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def line(cc, n):
  half = n // 2
  return cc.locales.box(cc.locales.Euclidean(1), (-half,), (n - 1 - half,))


def evaluate(fn, assign, base):
  """Value of a LocalFunction at a {vertex: state} map (absent sites at base)."""
  idx = 0
  for v in fn.support:
    idx = idx * fn.n_states + assign.get(v, base)
  return fn.values[idx]


def mixed_radix_table(site_values):
  """Table over all configurations of sum_x site_values[x][state_x]."""
  table = [0]
  for per_state in site_values:
    table = [t + c for t in table for c in per_state]
  return table


def dump(cc, obj) -> bytes:
  return cc.serialize.dump_json(obj).encode()


# ---------------------------------------------------------------------------
# Reference checks shared by several workloads


def check_flux_potential(window, inter, basis, a_column, values, n_components,
                         pins):
  """The potential of build_omega_rho(a) on a line, pinned per component.

  With generator (1,) and domain ((0,),), site x carries tile index x, so the
  flux form is the differential of theta(eta) = sum_x x * sum_i a_i
  basis_i[eta_x].  On a line every quantity fiber of a swap model is one
  component, pinned at its least configuration.
  """
  theta = mixed_radix_table(
      [[x[0] * sum(Fraction(a) * vec[s] for a, vec in zip(a_column, basis))
        for s in range(inter.n_states)] for x in window.vertices])
  radix = window.n_sites + 1
  codes = mixed_radix_table(
      [[sum(vec[s] * radix ** i for i, vec in enumerate(basis))
        for s in range(inter.n_states)] for _ in window.vertices])
  pin_of = {}
  for idx, code in enumerate(codes):
    pin_of.setdefault(code, idx)
  expect(n_components == len(pin_of), "component count")
  expect(sorted(pins) == sorted(pin_of.values()), "component pins")
  expect(len(values) == len(theta), "potential length")
  for idx, value in enumerate(values):
    if value != theta[idx] - theta[pin_of[codes[idx]]]:
      raise Mismatch(f"potential at configuration {idx}")


def check_certificate(certificate, cells=None):
  """Replay a splitting-infeasibility certificate.

  The weighted equations h(a) + h(b) - h(a+b) = cell and h(0) = pin must
  cancel every unknown while their values sum to a nonzero contradiction.
  With ``cells`` given, every cited cell value must also be the table's.
  """
  weight = {}
  total = Fraction(0)
  for eq in certificate["combination"]:
    coef = Fraction(eq["coefficient"])
    value = Fraction(eq["value"])
    total += coef * value
    if "pin" in eq:
      key = tuple(Fraction(x) for x in eq["pin"])
      weight[key] = weight.get(key, 0) + coef
      continue
    a = tuple(Fraction(x) for x in eq["cell"]["a"])
    b = tuple(Fraction(x) for x in eq["cell"]["b"])
    expect(cells is None or cells.get((a, b)) == value,
           "certificate cites a wrong cell value")
    ab = tuple(x + y for x, y in zip(a, b))
    for key, sign in ((a, 1), (b, 1), (ab, -1)):
      weight[key] = weight.get(key, 0) + sign * coef
  expect(all(w == 0 for w in weight.values()), "certificate leaves an unknown")
  contradiction = Fraction(certificate["contradiction"])
  expect(contradiction != 0, "certificate contradiction is zero")
  expect(total == contradiction, "certificate values do not sum up")


def check_split(h, cells):
  for (alpha, beta), value in cells.items():
    ab = tuple(x + y for x, y in zip(alpha, beta))
    if h[alpha] + h[beta] - h[ab] != value:
      raise Mismatch("splitting misses a cell")


def splitting_outcome(cc, table):
  """Run solve_splitting, turning the expected infeasibility into a value."""
  try:
    return ("feasible", cc.cohomology.solve_splitting(table))
  except cc.cohomology.SplittingInfeasible as exc:
    return ("infeasible", exc.certificate)


# ---------------------------------------------------------------------------
# scan: transition-graph scans at |S|^n scale


def scan(cc, rng, workdir):
  ms = cc.interactions.by_name("multispecies:2")
  ex = cc.interactions.by_name("exclusion")
  ms_basis = cc.interactions.conserved_basis(ms)
  ex_basis = cc.interactions.conserved_basis(ex)
  action = cc.decomposition.TranslationAction(cc.locales.Euclidean(1), ((1,),))
  domain = ((0,),)
  w9, w11, w16 = line(cc, 9), line(cc, 11), line(cc, 16)

  a9 = [[rational(rng)] for _ in ms_basis]
  a11 = [[rational(rng)] for _ in ms_basis]
  omega9 = cc.decomposition.build_omega_rho(a9, action, domain, w9, ms, ms_basis)
  omega11 = cc.decomposition.build_omega_rho(a11, action, domain, w11, ms,
                                             ms_basis)
  edge = rng.choice(w9.edges)
  s_u, s_v = rng.sample(range(ms.n_states), 2)
  cell = {edge[0]: s_u, edge[1]: s_v}
  bumped = cc.calculus.perturbed(omega9, w9, ms, edge, cell, rational(rng))

  def fibers_task(name, size, window, inter, basis, n_fibers):
    def check(rep):
      expect(rep["n_configs"] == inter.n_states ** window.n_sites, "n_configs")
      expect(rep["n_fibers"] == n_fibers, "fiber count")
      expect(rep["n_components"] == n_fibers, "component count")
      expect(rep["fibers_connected"] and rep["components_separated"]
             and rep["witness"] is None, "fiber verdict")
    return Task(name, size,
                lambda ctx: cc.configspace.fibers_report(window, inter, basis),
                check, lambda rep: dump(cc, rep))

  def swap_fibers(n):  # (n1, n2) with n1 + n2 <= n
    return (n + 1) * (n + 2) // 2

  def check_closed(rep):
    expect(rep["closed"] and rep["n_components"] == swap_fibers(9),
           "closed verdict")

  def check_witness(rep):
    expect(not rep["closed"], "perturbed form reported closed")
    replay_cycle(ms, w9, bumped, rep["witness"])

  def integrate_task(name, size, form, window, a):
    def check(out):
      f, meta = out
      expect(f.support == window.vertices, "potential support")
      check_flux_potential(window, ms, ms_basis, [row[0] for row in a],
                           f.values, meta["n_components"], meta["pins"])

    def canon(out):
      f, meta = out
      return dump(cc, {"potential": cc.calculus.local_function_to_json(
          f, window.locale), **meta})
    return Task(name, size,
                lambda ctx: cc.calculus.integrate(form, window, ms),
                check, canon)

  return [
      fibers_task("fibers_ms2_line9", "line9", w9, ms, ms_basis, swap_fibers(9)),
      fibers_task("fibers_ms2_line11", "line11", w11, ms, ms_basis,
                  swap_fibers(11)),
      fibers_task("fibers_excl_line16", "line16", w16, ex, ex_basis, 17),
      Task("closed_line9", "line9",
           lambda ctx: cc.calculus.is_closed(omega9, w9, ms),
           check_closed, lambda rep: dump(cc, rep)),
      Task("perturbed_line9", "line9",
           lambda ctx: cc.calculus.is_closed(bumped, w9, ms),
           check_witness, lambda rep: dump(cc, rep)),
      integrate_task("integrate_line9", "line9", omega9, w9, a9),
      integrate_task("integrate_line11", "line11", omega11, w11, a11),
  ]


def replay_cycle(inter, window, form, witness):
  """Walk the witness cycle: each step is one transition along its edge, the
  walk closes, and the form summed along it is the stated nonzero integral."""
  configs = []
  for step in witness["cycle"]:
    digits = [inter.base] * window.n_sites
    for site, state in zip(step["config"]["sites"], step["config"]["states"]):
      digits[window.vertices.index(tuple(site))] = inter.states.index(state)
    configs.append(digits)
  total = Fraction(0)
  for k, step in enumerate(witness["cycle"]):
    u, v = (tuple(x) for x in step["edge"])
    digits = configs[k]
    pu, pv = window.vertices.index(u), window.vertices.index(v)
    moved = list(digits)
    moved[pu], moved[pv] = inter.table[digits[pu]][digits[pv]]
    expect(moved != digits, "cycle step does not move")
    expect(moved == configs[(k + 1) % len(configs)], "cycle is not a walk")
    fn = form.fns.get((u, v))
    if fn is not None:
      total += evaluate(fn, dict(zip(window.vertices, digits)), inter.base)
  expect(total != 0, "witness cycle integrates to zero")
  expect(Fraction(witness["integral"]) == total, "witness integral")


# ---------------------------------------------------------------------------
# algebra: dense local-function algebra and the pairing


def inversion_table(n_sites, low, high):
  vals = []
  for digits in product(range(3), repeat=n_sites):
    count = 0
    lows = 0
    for d in digits:
      if d == low:
        lows += 1
      elif d == high:
        count += lows
    vals.append(Fraction(count))
  return tuple(vals)


def algebra(cc, rng, workdir):
  LocalFunction = cc.calculus.LocalFunction
  ms = cc.interactions.by_name("multispecies:2")
  basis = cc.interactions.conserved_basis(ms)

  def random_table(n_sites, n_states):
    return LocalFunction(tuple((i,) for i in range(n_sites)), n_states, 0,
                         tuple(rational(rng) for _ in range(n_states ** n_sites)))

  bin8 = random_table(8, 2)
  ter7 = random_table(7, 3)

  # Which species counts as "low" in the inversion count is seeded.
  low, high = rng.choice(((1, 2), (2, 1)))
  lines = {}
  for n in (9, 11):
    win = line(cc, n)
    inv = LocalFunction(win.vertices, 3, 0, inversion_table(n, low, high))
    probes = cc.cohomology.default_probes(win, ms, 0, ball_radius=2)
    lines[n] = (win, inv, probes)

  # A seeded quadratic polynomial of the window quantity on a 3x3 window:
  # its pairing is the symmetric bilinear defect P(a+b) - P(a) - P(b), which
  # splits, with more than one quantity direction (so a linear solve).
  grid = cc.locales.box(cc.locales.Euclidean(2), (-1, -1), (1, 1))
  c11, c12, c22, c1, c2 = (rational(rng) for _ in range(5))

  def poly(q):
    return c11 * q[0] * q[0] + c12 * q[0] * q[1] + c22 * q[1] * q[1] \
        + c1 * q[0] + c2 * q[1]

  def quantity(digits):
    return tuple(Fraction(sum(vec[d] for d in digits)) for vec in basis)

  grid_f = LocalFunction(grid.vertices, 3, 0, tuple(
      poly(quantity(d)) for d in product(range(3), repeat=grid.n_sites)))
  left = tuple(v for v in grid.vertices if v[0] == -1)
  right = tuple(v for v in grid.vertices if v[0] == 1)
  block = tuple(v for v in grid.vertices if v[0] <= 0 and v[1] <= 0)
  grid_probes = [(left, right), (right, left), (block, ((1, 1),))]

  def expansion_task(name, f):
    def check(pieces):
      total = cc.calculus.reassemble(pieces, f.support, f.n_states, f.base)
      total = cc.calculus.embed(total, f.support)
      expect(total.values == f.values, "reassembled pieces differ from f")
      for supp, piece in pieces.items():
        expect(piece.support == supp, "piece keyed by a wrong support")
        for digits, value in zip(product(range(f.n_states), repeat=len(supp)),
                                 piece.values):
          if value != 0 and f.base in digits:
            raise Mismatch("piece does not vanish at the base state")

    def canon(pieces):
      return dump(cc, [{"sites": [list(v) for v in supp],
                        "fn": cc.calculus.local_function_to_json(
                            pieces[supp], cc.locales.Euclidean(1))}
                       for supp in sorted(pieces, key=lambda s: (len(s), s))])
    return Task(name, name.split("_")[1],
                lambda ctx: cc.calculus.expansion(f), check, canon)

  w9, inv9, _ = lines[9]

  def check_differential(form):
    flux = {(high, low): Fraction(1), (low, high): Fraction(-1)}
    expect(sorted(form.fns) == sorted(w9.edges), "differential edge set")
    for (u, v), fn in form.fns.items():
      expect(fn.support == tuple(sorted((u, v))), "differential support")
      expect(list(fn.values) == [flux.get(ab, Fraction(0))
                                 for ab in product(range(3), repeat=2)],
             "differential values")

  tasks = [
      expansion_task("expand_bin8", bin8),
      expansion_task("expand_ter7", ter7),
      Task("differential_line9", "line9",
           lambda ctx: cc.calculus.differential(inv9, w9, ms),
           check_differential,
           lambda form: dump(cc, cc.calculus.form_to_json(form, w9))),
  ]

  def inversion_cell(alpha, beta):
    return alpha[low - 1] * beta[high - 1]

  for n, (win, inv, probes) in lines.items():
    tasks += pairing_tasks(cc, f"line{n}", win, ms, basis, inv, probes,
                           inversion_cell, feasible=False)

  def grid_cell(alpha, beta):
    ab = tuple(x + y for x, y in zip(alpha, beta))
    return poly(ab) - poly(alpha) - poly(beta)

  tasks += pairing_tasks(cc, "grid", grid, ms, basis, grid_f, grid_probes,
                         grid_cell, feasible=True)

  def check_uniformize(res):
    expect(res["split_method"] == "linear-solve", "uniformize split method")
    expect(res["uniform"]["uniform"] and res["criterion_ok"],
           "uniformized function is not uniform")
    check_split(res["h"], res["table"].cells)
    g = res["g"]
    for digits, value in zip(product(range(3), repeat=len(g.support)),
                             g.values):
      q = quantity(digits)
      expect(value == poly(q) + res["h"][q], "uniformized values")

  def canon_uniformize(res):
    locale = grid.locale
    return dump(cc, {
        "g": cc.calculus.local_function_to_json(res["g"], locale),
        "splitting": cc.cohomology.splitting_to_json(
            {"method": res["split_method"], "h": res["h"]}),
        "pairing": cc.cohomology.pairing_table_to_json(res["table"]),
        "uniform": res["uniform"], "criterion_ok": res["criterion_ok"],
        "scope": res["scope"]})

  tasks.append(Task(
      "uniformize_grid", "grid",
      lambda ctx: cc.cohomology.uniformize(grid_f, grid, ms, basis, 0,
                                           grid_probes),
      check_uniformize, canon_uniformize))
  return tasks


def pairing_tasks(cc, size, win, inter, basis, f, probes, cell_value,
                  feasible):
  """compute_pairing, check_pairing_laws and solve_splitting on one table."""
  key = f"table_{size}"

  def counts(k):  # quantity vectors of k sites of a two-species swap model
    return [(Fraction(a), Fraction(b))
            for a in range(k + 1) for b in range(k + 1 - a)]

  expected_cells = {}
  for first, second in probes:
    for alpha in counts(len(first)):
      for beta in counts(len(second)):
        expected_cells[(alpha, beta)] = cell_value(alpha, beta)

  def run_pairing(ctx):
    ctx[key] = cc.cohomology.compute_pairing(f, win, inter, basis, 0, probes)
    return ctx[key]

  def check_pairing(table):
    expect(table.cells == expected_cells, "pairing cells")

  def check_laws(laws):
    cells = expected_cells
    cocycle = 0
    for (alpha, beta) in cells:
      for (beta2, gamma) in cells:
        if beta2 == beta:
          ab = tuple(x + y for x, y in zip(alpha, beta))
          bg = tuple(x + y for x, y in zip(beta, gamma))
          cocycle += (ab, gamma) in cells and (alpha, bg) in cells
    mirrored = [(a, b) for (a, b) in cells if (b, a) in cells]
    asymmetric = sum(cells[(a, b)] != cells[(b, a)] for a, b in mirrored)
    expect(laws["cocycle"]["ok"] and laws["cocycle"]["checked"] == cocycle,
           "cocycle law")
    expect(laws["symmetry"]["checked"] == len(mirrored)
           and laws["symmetry"]["ok"] == (asymmetric == 0), "symmetry law")

  def check_splitting(out):
    kind, value = out
    if feasible:
      expect(kind == "feasible" and value["method"] == "linear-solve",
             "splitting should be a linear solve")
      check_split(value["h"], expected_cells)
    else:
      expect(kind == "infeasible", "splitting should be infeasible")
      check_certificate(value, expected_cells)

  def canon_splitting(out):
    kind, value = out
    if kind == "feasible":
      return dump(cc, cc.cohomology.splitting_to_json(value))
    return dump(cc, {"certificate": value})

  return [
      Task(f"pairing_{size}", size, run_pairing, check_pairing,
           lambda t: dump(cc, cc.cohomology.pairing_table_to_json(t))),
      Task(f"laws_{size}", size,
           lambda ctx: cc.cohomology.check_pairing_laws(ctx[key]),
           check_laws, lambda laws: dump(cc, laws)),
      Task(f"split_{size}", size,
           lambda ctx: splitting_outcome(cc, ctx[key]),
           check_splitting, canon_splitting),
  ]


# ---------------------------------------------------------------------------
# pipeline: the CLI end to end, in process


def pipeline(cc, rng, workdir):
  def manifest(name, dim, model, side, form="synthesized"):
    n_states = 3 if model.startswith("multispecies") else 2
    n_quantities = n_states - 1
    values = [Fraction(0)] + [rational(rng, 6) for _ in range(n_states ** 2 - 1)]
    a = [[rational(rng) for _ in range(dim)] for _ in range(n_quantities)]
    man = {
        "locale": {"kind": "euclidean", "d": dim},
        "interaction": model,
        "window": {"kind": "box", "lo": [-(side // 2)] * dim,
                   "hi": [side - 1 - side // 2] * dim},
        "function": {"support": [[0] * dim, [1] + [0] * (dim - 1)],
                     "values": [str(v) for v in values]},
        "form": {"builtin": form},
        "cocycle": {"a": [[str(x) for x in row] for row in a]},
        "action": {"generators": [[int(i == j) for j in range(dim)]
                                  for i in range(dim)]},
        "domain": [[0] * dim],
    }
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
      json.dump(man, fh)
    return path, a

  def cli_task(name, size, argv, check):
    out = os.path.join(workdir, f"{name}.out.json")

    def run(ctx):
      code = cc.cli.main([*argv, "--out", out])
      with open(out, "rb") as fh:
        return code, fh.read()

    def checked(result):
      code, text = result
      report = json.loads(text)
      expect(code == 0 and report["exit_code"] == 0,
             f"exit code {code}: {report.get('error')}")
      check(report)
    return Task(name, size, run, checked, lambda result: result[1])

  def check_cocycle(a):
    def check(report):
      got = [[Fraction(x) for x in row] for row in report["cocycle"]["a"]]
      expect(got == a, "recovered cocycle")
    return check

  def check_decompose(a):
    def check(report):
      check_cocycle(a)(report)
      expect(report["residual"]["ok"]
             and report["residual"]["max_abs_residual"] == "0", "residual")
    return check

  tasks = []
  for dim, model, side in ((1, "multispecies:2", 9), (2, "exclusion", 7),
                           (2, "multispecies:2", 7), (2, "exclusion", 9),
                           (2, "multispecies:2", 9)):
    name = f"decompose_{model.replace(':', '')}_{dim}d{side}"
    path, a = manifest(name, dim, model, side)
    tasks.append(cli_task(name, f"{dim}d",
                          ["decompose", "--manifest", path],
                          check_decompose(a)))
    if dim == 1:
      tasks.append(cli_task("delta_1d9", "1d", ["delta", "--manifest", path],
                            check_cocycle(a)))

  path, a = manifest("integrate_1d9", 1, "multispecies:2", 9, form="omega-rho")
  ms = cc.interactions.by_name("multispecies:2")
  basis = cc.interactions.conserved_basis(ms)
  w9 = line(cc, 9)

  def check_integrate(report):
    values = [Fraction(x) for x in report["potential"]["values"]]
    check_flux_potential(w9, ms, basis, [row[0] for row in a], values,
                         report["n_components"], report["pins"])

  tasks.append(cli_task("integrate_1d9", "1d",
                        ["integrate", "--manifest", path], check_integrate))

  def check_counterexample(report):
    rep = report["counterexample"]
    expect(rep["form_axioms_ok"] and rep["closed"]
           and rep["is_differential_of_inversions"] and rep["shift_invariant"],
           "counterexample form checks")
    expect(rep["asymmetry"] == {"low_left_high_right": "1",
                                "high_left_low_right": "0"}, "asymmetry")
    expect(rep["decomposition_refused"], "decomposition was not refused")
    cells = {(tuple(Fraction(x) for x in c["a"]),
              tuple(Fraction(x) for x in c["b"])): Fraction(c["v"])
             for c in rep["pairing"]["cells"]}
    check_certificate(rep["splitting_certificate"], cells)
    # The decomposition splits the pairing of a sub-window potential, whose
    # cells the report does not carry.
    check_certificate(rep["decomposition_error"]["splitting_infeasible"])

  tasks.append(cli_task("counterexample_1d9", "1d", ["counterexample"],
                        check_counterexample))
  return tasks


WORKLOADS = {"scan": scan, "algebra": algebra, "pipeline": pipeline}
