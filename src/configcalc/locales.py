"""Vertex geometries: locally finite symmetric graphs that carry configurations.

A locale is an infinite (or finite, for user-supplied probe graphs) simple
graph, locally finite and connected, with every edge present in both
directions.  Concrete families:

* ``Euclidean(d)`` -- the lattice Z^d with nearest-neighbour edges.
* ``NNeighbor(d, n)`` -- Z^d with an edge whenever 0 < |x-y|_1 <= n.
* ``Triangular()`` -- Z^2 with the six-neighbour (triangular) adjacency.
* ``Hexagonal()`` -- honeycomb lattice; vertices are (i, j, s), s in {0,1}.
* ``FreeGroupCayley(rank)`` -- Cayley graph of the free group, vertices are
  reduced words over letters {+-1, ..., +-rank}.
* ``ProductLocale(factors)`` -- box product: one factor moves along one of
  its edges, the others stay put.
* ``Cross()``, ``HalfPlane()`` -- connected sublocales of Z^2 used by the
  transfer classifier.
* ``FiniteGraph(vertices, edges)`` -- explicit finite graph for probes.

Vertices are hashable tuples (or ints for ``FiniteGraph``) and are encoded in
JSON as nested lists of ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .serialize import InputError, manifest_int

#: the farthest graph distance the breadth-first ``Locale.distance`` searches
DISTANCE_CAP = 64


def _layers(neighbors, start):
  """Breadth-first search from ``start``, one whole layer at a time.

  Lazily yields ``(layer, parent)`` for distances 0, 1, ... until a layer is
  empty.  ``parent`` maps every vertex reached so far to the vertex that first
  reached it, in ``neighbors`` order (``start`` to None); it grows in place.
  """
  parent = {start: None}
  layer = [start]
  while layer:
    yield layer, parent
    nxt = []
    for u in layer:
      for v in neighbors(u):
        if v not in parent:
          parent[v] = u
          nxt.append(v)
    layer = nxt


class Locale:
  """Base class; subclasses implement ``neighbors`` and ``__contains__``."""

  name = "locale"

  def neighbors(self, x):
    raise NotImplementedError

  def __contains__(self, x) -> bool:
    raise NotImplementedError

  # -- metric ---------------------------------------------------------------

  def distance(self, x, y) -> int:
    """Graph distance via a breadth-first search from each end.

    Each step grows one end by a layer: the end whose last layer is
    smaller, the shallower one on a tie.  The first new layer that meets
    the other end's reached vertices gives the distance.  Raises
    ``InputError`` when the distance exceeds ``DISTANCE_CAP`` or one end
    runs out of vertices first.
    """
    if x == y:
      return 0
    ends = [_layers(self.neighbors, x), _layers(self.neighbors, y)]
    last = [next(end) for end in ends]  # (layer, parent) of each end
    depth = [0, 0]
    for dist in range(1, DISTANCE_CAP + 1):
      k = (len(last[0][0]), depth[0]) > (len(last[1][0]), depth[1])
      grown = next(ends[k], None)
      if grown is None:
        break
      last[k] = grown
      depth[k] += 1
      if any(v in last[1 - k][1] for v in grown[0]):
        return dist
    else:
      raise InputError(f"distance({x}, {y}) exceeds cap {DISTANCE_CAP}")
    raise InputError(f"{x} and {y} are not connected within cap {DISTANCE_CAP}")

  def ball(self, center, radius: int) -> tuple:
    """Sorted tuple of vertices within graph distance ``radius`` of center."""
    if center not in self:
      raise InputError(f"ball center {center!r} not in locale {self.name}")
    for dist, (_, parent) in enumerate(_layers(self.neighbors, center)):
      if dist >= radius:
        break
    return tuple(sorted(parent))

  # -- JSON vertex codecs ----------------------------------------------------

  def encode_vertex(self, x):
    return list(x)

  def decode_vertex(self, obj):
    if not isinstance(obj, list):
      raise InputError(f"bad vertex encoding {obj!r}")
    x = tuple(manifest_int(c, "vertex coordinate") for c in obj)
    if x not in self:
      raise InputError(f"{obj!r} is not a vertex of locale {self.name}")
    return x


class LatticeLocale(Locale):
  """Common behaviour for locales whose vertices carry integer coordinates.

  ``coord(x)`` exposes the part of the vertex that translations act on;
  ``with_coord(x, c)`` rebuilds a vertex from a translated coordinate.
  """

  def coord(self, x):
    return x

  def with_coord(self, x, c):
    return tuple(c)

  def translate(self, x, shift):
    c = self.coord(x)
    return self.with_coord(x, tuple(a + b for a, b in zip(c, shift)))

  def coord_dim(self) -> int:
    raise NotImplementedError

  def __contains__(self, x):
    return (isinstance(x, tuple) and len(x) == self.coord_dim()
            and all(isinstance(a, int) for a in x))


@dataclass(frozen=True)
class Euclidean(LatticeLocale):
  d: int = 1
  name = "euclidean"

  def __post_init__(self):
    if self.d < 1:
      raise InputError("euclidean locale needs d >= 1")

  def neighbors(self, x):
    out = []
    for i in range(self.d):
      for s in (1, -1):
        y = list(x)
        y[i] += s
        out.append(tuple(y))
    return out

  def distance(self, x, y) -> int:
    return sum(abs(a - b) for a, b in zip(x, y))

  def coord_dim(self):
    return self.d


def _l1_offsets(d: int, n: int):
  """All integer vectors v with |v|_1 <= n, the zero vector included (the
  recursion needs the zero tails; ``NNeighbor.neighbors`` skips it)."""
  if d == 0:
    yield ()
    return
  for head in range(-n, n + 1):
    for tail in _l1_offsets(d - 1, n - abs(head)):
      yield (head,) + tail


@dataclass(frozen=True)
class NNeighbor(LatticeLocale):
  """Z^d with edges between any two points at l1-distance between 1 and n."""

  d: int = 1
  n: int = 2
  name = "n-neighbor"

  def __post_init__(self):
    if self.d < 1 or self.n < 1:
      raise InputError("n-neighbor locale needs d >= 1 and n >= 1")

  def neighbors(self, x):
    out = []
    for off in _l1_offsets(self.d, self.n):
      if any(off):
        out.append(tuple(a + b for a, b in zip(x, off)))
    return out

  def distance(self, x, y) -> int:
    l1 = sum(abs(a - b) for a, b in zip(x, y))
    return -(-l1 // self.n)

  def coord_dim(self):
    return self.d


_TRI_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def _tri_steps(dx: int, dy: int) -> int:
  """Fewest steps +-(1,0), +-(0,1), +-(1,1) adding up to (dx, dy):
  max(|dx|, |dy|) when dx and dy have the same sign, |dx| + |dy| otherwise."""
  return max(abs(dx), abs(dy), abs(dx - dy))


@dataclass(frozen=True)
class Triangular(LatticeLocale):
  name = "triangular"

  def neighbors(self, x):
    return [(x[0] + a, x[1] + b) for a, b in _TRI_OFFSETS]

  def distance(self, x, y) -> int:
    return _tri_steps(y[0] - x[0], y[1] - x[1])

  def coord_dim(self):
    return 2


@dataclass(frozen=True)
class Hexagonal(LatticeLocale):
  """Honeycomb lattice as Z^2 x {0,1}: each cell holds one A and one B site.

  A site (i,j,0) touches (i,j,1), (i-1,j,1) and (i,j-1,1); B sites mirror.
  Every vertex has degree three.  Two steps carry a site to a site of its
  own kind, moved by one of +-(1,0), +-(0,1), +-(1,-1): the steps of the
  triangular lattice with the second coordinate mirrored.
  """

  name = "hexagonal"

  def neighbors(self, x):
    i, j, s = x
    if s == 0:
      return [(i, j, 1), (i - 1, j, 1), (i, j - 1, 1)]
    return [(i, j, 0), (i + 1, j, 0), (i, j + 1, 0)]

  def __contains__(self, x):
    return (isinstance(x, tuple) and len(x) == 3
            and all(isinstance(a, int) for a in x) and x[2] in (0, 1))

  def distance(self, x, y) -> int:
    if x[2] == 1:
      x, y = y, x
    di, dj = y[0] - x[0], y[1] - x[1]
    if x[2] == y[2]:
      return 2 * _tri_steps(di, -dj)
    # A to B: one step onto a B neighbour of x, then pairs of steps.
    return 1 + 2 * min(_tri_steps(di - a, b - dj)
                       for a, b in ((0, 0), (-1, 0), (0, -1)))

  def coord(self, x):
    return x[:2]

  def with_coord(self, x, c):
    return (c[0], c[1], x[2])

  def coord_dim(self):
    return 2


def _reduce_word(word):
  out = []
  for letter in word:
    if out and out[-1] == -letter:
      out.pop()
    else:
      out.append(letter)
  return tuple(out)


@dataclass(frozen=True)
class FreeGroupCayley(Locale):
  """Cayley graph of the free group of given rank, generators and inverses.

  Vertices are reduced words: tuples of nonzero letters in
  {-rank..-1, 1..rank} with no adjacent cancelling pair.  Rank 1 is the line.
  """

  rank: int = 2
  name = "free-group"

  def __post_init__(self):
    if self.rank < 1:
      raise InputError("free group locale needs rank >= 1")

  def neighbors(self, x):
    out = []
    for g in range(1, self.rank + 1):
      for letter in (g, -g):
        out.append(_reduce_word(x + (letter,)))
    return out

  def __contains__(self, x):
    if not isinstance(x, tuple):
      return False
    for a in x:
      if not isinstance(a, int) or a == 0 or abs(a) > self.rank:
        return False
    return _reduce_word(x) == x

  def distance(self, x, y) -> int:
    inv = tuple(-a for a in reversed(x))
    return len(_reduce_word(inv + y))


@dataclass(frozen=True)
class ProductLocale(Locale):
  """Box product: step in exactly one factor along one of its edges."""

  factors: tuple
  name = "product"

  def __post_init__(self):
    if len(self.factors) < 2:
      raise InputError("product locale needs at least two factors")

  def neighbors(self, x):
    out = []
    for i, loc in enumerate(self.factors):
      for yi in loc.neighbors(x[i]):
        y = list(x)
        y[i] = yi
        out.append(tuple(y))
    return out

  def __contains__(self, x):
    return (isinstance(x, tuple) and len(x) == len(self.factors)
            and all(xi in loc for xi, loc in zip(x, self.factors)))

  def distance(self, x, y) -> int:
    return sum(loc.distance(xi, yi) for loc, xi, yi in zip(self.factors, x, y))

  def encode_vertex(self, x):
    return [loc.encode_vertex(xi) for loc, xi in zip(self.factors, x)]

  def decode_vertex(self, obj):
    if not isinstance(obj, list) or len(obj) != len(self.factors):
      raise InputError(f"bad product vertex {obj!r}")
    return tuple(loc.decode_vertex(oi) for loc, oi in zip(self.factors, obj))


class _PredicateSublocale(Locale):
  """Induced subgraph of Z^2 on the vertices satisfying ``member``."""

  ambient = Euclidean(2)

  def member(self, x) -> bool:
    raise NotImplementedError

  def neighbors(self, x):
    return [y for y in self.ambient.neighbors(x) if self.member(y)]

  def __contains__(self, x):
    return x in self.ambient and self.member(x)


@dataclass(frozen=True)
class Cross(_PredicateSublocale):
  """The union of the two coordinate axes in Z^2."""

  name = "cross"

  def member(self, x):
    return x[0] == 0 or x[1] == 0


@dataclass(frozen=True)
class HalfPlane(_PredicateSublocale):
  """The right half-plane {x1 >= 0} together with the full horizontal axis."""

  name = "half-plane"

  def member(self, x):
    return x[0] >= 0 or x[1] == 0


class FiniteGraph(Locale):
  """Explicit symmetric graph; mainly a target for the transfer probe."""

  name = "finite-graph"

  def __init__(self, vertices, edges):
    self._vertices = tuple(sorted(set(vertices)))
    vset = set(self._vertices)
    adj = {v: set() for v in self._vertices}
    for u, v in edges:
      if u not in vset or v not in vset:
        raise InputError(f"edge ({u!r}, {v!r}) leaves the vertex set")
      if u == v:
        raise InputError(f"loop at {u!r}: locales are simple graphs")
      adj[u].add(v)
      adj[v].add(u)
    self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

  @property
  def vertices(self):
    return self._vertices

  def neighbors(self, x):
    return list(self._adj.get(x, ()))

  def __contains__(self, x):
    return x in self._adj

  def encode_vertex(self, x):
    return list(x) if isinstance(x, tuple) else x

  def decode_vertex(self, obj):
    x = tuple(obj) if isinstance(obj, list) else obj
    if x not in self._vertices:  # compares by ==, so unhashable input is fine
      raise InputError(f"{obj!r} is not a vertex of this finite graph")
    return x


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class Window:
  """A finite induced subgraph: sorted vertices plus both edge orientations."""

  locale: Locale
  vertices: tuple
  edges: tuple  # directed pairs (u, v); (v, u) is always present too
  _index: dict = field(default_factory=dict, compare=False, repr=False)

  def __post_init__(self):
    self._index.update({v: i for i, v in enumerate(self.vertices)})

  def position(self, x) -> int:
    try:
      return self._index[x]
    except KeyError:
      raise InputError(f"vertex {x!r} not in window") from None

  def __contains__(self, x):
    return x in self._index

  @property
  def n_sites(self) -> int:
    return len(self.vertices)

  def center(self):
    """The vertex of least eccentricity (its largest distance to another
    window vertex); ties go to the vertex nearest index n // 2 in vertex
    order, the lower index first."""
    mid = len(self.vertices) // 2
    order = sorted(range(len(self.vertices)), key=lambda i: (abs(i - mid), i))
    dist, verts = self.locale.distance, self.vertices
    best = verts[order[0]]
    ecc = max(dist(best, w) for w in verts)
    for v in (verts[i] for i in order[1:]):
      if all(dist(v, w) < ecc for w in verts):  # stops at the first far one
        best, ecc = v, max(dist(v, w) for w in verts)
    return best

  def neighbors_in(self, x):
    return [y for y in self.locale.neighbors(x) if y in self._index]

  def path_between(self, x, y):
    """A shortest vertex path x .. y inside the window: searching breadth
    first from x, each vertex's predecessor is the first vertex that reached
    it in ``neighbors_in`` order."""
    for _, parent in _layers(self.neighbors_in, x):
      if y in parent:
        path = [y]
        while parent[path[-1]] is not None:
          path.append(parent[path[-1]])
        return path[::-1]
    raise InputError(f"no path from {x!r} to {y!r} inside the window")


def window(locale: Locale, vertices) -> Window:
  vertices = tuple(vertices)
  if len(set(vertices)) != len(vertices):
    raise InputError("window vertices repeat")
  verts = tuple(sorted(vertices))
  for v in verts:
    if v not in locale:
      raise InputError(f"vertex {v!r} is not in locale {locale.name}")
  vset = set(verts)
  edges = []
  for u in verts:
    for v in locale.neighbors(u):
      if v in vset:
        edges.append((u, v))
  return Window(locale, verts, tuple(sorted(edges)))


def box(locale: LatticeLocale, lo, hi) -> Window:
  """Window over all vertices whose coordinates lie in [lo, hi] (inclusive)."""
  lo, hi = tuple(lo), tuple(hi)
  d = locale.coord_dim()
  if len(lo) != d or len(hi) != d:
    raise InputError(f"box bounds must have {d} coordinates")
  if any(a > b for a, b in zip(lo, hi)):
    raise InputError("box needs lo <= hi coordinatewise")
  verts = []
  for c in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
    if isinstance(locale, Hexagonal):
      verts.extend([(c[0], c[1], 0), (c[0], c[1], 1)])
    else:
      verts.append(c)
  return window(locale, [v for v in verts if v in locale])


def ball_window(locale: Locale, center, radius: int) -> Window:
  return window(locale, locale.ball(center, radius))


# ---------------------------------------------------------------------------
# Transferability

#: catalog of known classifications; "weak" here always holds, the flag says
#: whether the stronger complement conditions hold as well.
_STRONG, _TRANSFER, _WEAK_ONLY = "strongly", "transferable", "weakly-only"


def _catalog_class(locale: Locale):
  if isinstance(locale, Euclidean):
    return _WEAK_ONLY if locale.d == 1 else _STRONG
  if isinstance(locale, NNeighbor):
    return _WEAK_ONLY if locale.d == 1 else _STRONG
  if isinstance(locale, (Triangular, Hexagonal)):
    return _STRONG
  if isinstance(locale, FreeGroupCayley):
    return _WEAK_ONLY if locale.rank == 1 else _TRANSFER
  if isinstance(locale, Cross):
    return _TRANSFER
  if isinstance(locale, HalfPlane):
    return _TRANSFER
  if isinstance(locale, ProductLocale):
    if all(isinstance(f, Euclidean) for f in locale.factors):
      return _STRONG
  return None


def transferability(locale: Locale, probe_radius: int = 3, probe_margin: int = 4) -> dict:
  """Classify how ball complements decompose.

  Returns a report dict with ``classification`` in {"strongly",
  "transferable", "weakly-only", "not-weakly", "unknown"}, a ``method`` of
  "catalog" or "probe", and raw evidence.  Probe results are evidence only:
  they inspect a bounded region and say "unknown" whenever that region cannot
  settle the question.
  """
  known = _catalog_class(locale)
  if known is not None:
    return {
        "classification": known,
        "transferable": known in (_STRONG, _TRANSFER),
        "method": "catalog",
        "evidence": None,
    }
  return _probe_transferability(locale, probe_radius, probe_margin)


def _probe_transferability(locale: Locale, probe_radius: int, probe_margin: int) -> dict:
  if isinstance(locale, FiniteGraph):
    anchors = locale.vertices[:1]
  else:
    anchors = None
  if not anchors:
    return {"classification": "unknown", "transferable": None,
            "method": "probe", "evidence": {"reason": "no probe anchor"}}
  x0 = anchors[0]
  evidence = []
  saw_finite_component = False
  component_counts = []
  for r in range(1, probe_radius + 1):
    region = set(locale.ball(x0, r + probe_margin))
    ball_r = set(locale.ball(x0, r))
    rest = region - ball_r
    comps = []
    seen = set()
    for start in sorted(rest):
      if start in seen:
        continue
      for _, comp in _layers(lambda u: rest.intersection(locale.neighbors(u)), start):
        pass
      seen.update(comp)
      boundary = any(w not in region for u in comp for w in locale.neighbors(u))
      comps.append({"size": len(comp), "reaches_probe_edge": boundary})
    finite = [c for c in comps if not c["reaches_probe_edge"]]
    saw_finite_component = saw_finite_component or bool(finite)
    component_counts.append(len([c for c in comps if c["reaches_probe_edge"]]))
    evidence.append({"radius": r, "components": comps})
  report = {"method": "probe", "evidence": {"anchor": locale.encode_vertex(x0),
                                            "balls": evidence}}
  if saw_finite_component:
    # A component that never reaches the probed region's edge is genuinely
    # finite, which already contradicts the weak condition.
    report.update({"classification": "not-weakly", "transferable": False})
  else:
    # Everything else is inconclusive on a bounded probe.
    report.update({"classification": "unknown", "transferable": None})
  report["evidence"]["unbounded_component_counts"] = component_counts
  return report


# ---------------------------------------------------------------------------
# JSON descriptors


def locale_from_json(obj) -> Locale:
  if isinstance(obj, str):
    obj = {"kind": obj}
  if not isinstance(obj, dict) or "kind" not in obj:
    raise InputError(f"bad locale descriptor {obj!r}")
  kind = obj["kind"]
  if kind == "euclidean":
    return Euclidean(manifest_int(obj.get("d", 1), "locale d", 1))
  if kind == "n-neighbor":
    return NNeighbor(manifest_int(obj.get("d", 1), "locale d", 1),
                     manifest_int(obj.get("n", 2), "locale n", 1))
  if kind == "triangular":
    return Triangular()
  if kind == "hexagonal":
    return Hexagonal()
  if kind == "free-group":
    return FreeGroupCayley(manifest_int(obj.get("rank", 2), "locale rank", 1))
  if kind == "product":
    factors = obj.get("factors", [])
    if not isinstance(factors, list):
      raise InputError(f"bad product factors {factors!r}")
    return ProductLocale(tuple(locale_from_json(f) for f in factors))
  if kind == "cross":
    return Cross()
  if kind == "half-plane":
    return HalfPlane()
  if kind == "finite-graph":
    verts, edges = obj.get("vertices", []), obj.get("edges", [])
    if not isinstance(verts, list) or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in edges):
      raise InputError(f"bad finite-graph descriptor {obj!r}")
    verts = [tuple(v) if isinstance(v, list) else v for v in verts]
    edges = [(tuple(u) if isinstance(u, list) else u,
              tuple(v) if isinstance(v, list) else v)
             for u, v in edges]
    try:
      return FiniteGraph(verts, edges)
    except TypeError as exc:  # vertices that cannot be hashed or sorted
      raise InputError(f"bad finite-graph vertices: {exc}") from None
  raise InputError(f"unknown locale kind {kind!r}")


def window_from_json(locale: Locale, obj) -> Window:
  if not isinstance(obj, dict):
    raise InputError(f"bad window descriptor {obj!r}")
  kind = obj.get("kind", "box" if "lo" in obj else "explicit")

  def need(key):
    if key not in obj:
      raise InputError(f"{kind} window descriptor is missing '{key}'")
    return obj[key]

  if kind == "box":
    if not isinstance(locale, LatticeLocale):
      raise InputError(f"box windows need a lattice locale, not {locale.name}")
    lo, hi = need("lo"), need("hi")
    if not isinstance(lo, list) or not isinstance(hi, list):
      raise InputError(f"box bounds must be lists, not {lo!r} and {hi!r}")
    return box(locale, *(tuple(manifest_int(c, "box corner coordinate")
                               for c in corner) for corner in (lo, hi)))
  if kind == "ball":
    center = locale.decode_vertex(need("center"))
    return ball_window(locale, center,
                       manifest_int(need("radius"), "window radius", 0))
  if kind == "explicit":
    verts = need("vertices")
    if not isinstance(verts, list):
      raise InputError(f"bad window vertices {verts!r}")
    return window(locale, [locale.decode_vertex(v) for v in verts])
  raise InputError(f"unknown window kind {kind!r}")
