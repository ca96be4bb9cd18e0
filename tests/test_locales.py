from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.locales import (TRANSFER_PROBE_MARGIN, TRANSFER_PROBE_RADIUS,
                                Cross, Euclidean, FiniteGraph,
                                FreeGroupCayley, HalfPlane, Hexagonal, Locale,
                                NNeighbor, ProductLocale, Triangular,
                                ball_window, box, locale_from_json,
                                transferability, window, window_from_json)
from configcalc.serialize import InputError


def test_degrees():
  assert len(Euclidean(1).neighbors((0,))) == 2
  assert len(Euclidean(2).neighbors((0, 0))) == 4
  assert len(Euclidean(3).neighbors((1, -2, 5))) == 6
  assert len(NNeighbor(1, 2).neighbors((0,))) == 4
  assert len(Triangular().neighbors((0, 0))) == 6
  assert len(Hexagonal().neighbors((0, 0, 0))) == 3
  assert len(Hexagonal().neighbors((0, 0, 1))) == 3
  assert len(FreeGroupCayley(2).neighbors(())) == 4
  prod = ProductLocale((Euclidean(1), Euclidean(1)))
  assert len(prod.neighbors(((0,), (0,)))) == 4


def test_ball_sizes():
  assert len(Euclidean(2).ball((0, 0), 2)) == 13
  assert len(Euclidean(1).ball((5,), 3)) == 7
  assert len(Triangular().ball((0, 0), 1)) == 7
  assert len(Hexagonal().ball((0, 0, 0), 1)) == 4
  assert len(NNeighbor(1, 2).ball((0,), 1)) == 5
  # free group: 1 + 4 + 4*3 at radius 2
  assert len(FreeGroupCayley(2).ball((), 2)) == 17


def test_ball_is_sorted_and_contains_center():
  ball = Euclidean(2).ball((1, 1), 2)
  assert ball == tuple(sorted(ball))
  assert (1, 1) in ball


def test_neighbors_symmetric():
  for loc, v in [(Euclidean(2), (0, 0)), (Triangular(), (2, -1)),
                 (Hexagonal(), (0, 0, 1)), (FreeGroupCayley(2), ("a",)),
                 (Cross(), (0, 0)), (HalfPlane(), (-3, 0))]:
    for w in loc.neighbors(v):
      assert v in loc.neighbors(w), (loc.name, v, w)


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_euclidean_distance_is_l1(x, y):
  assert Euclidean(2).distance(x, y) == abs(x[0] - y[0]) + abs(x[1] - y[1])


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 3))
def test_n_neighbor_distance_formula(x, y, n):
  loc = NNeighbor(1, n)
  d = loc.distance((x,), (y,))
  # BFS distance equals ceil(|x-y| / n)
  assert d == -((-abs(x - y)) // n)


def test_triangular_distance_examples():
  tri = Triangular()
  assert tri.distance((0, 0), (1, 1)) == 1      # diagonal generator
  assert tri.distance((0, 0), (1, -1)) == 2
  assert tri.distance((0, 0), (3, 2)) == 3


def test_hexagonal_distance_examples():
  hx = Hexagonal()
  assert hx.distance((0, 0, 0), (0, 0, 1)) == 1
  assert hx.distance((0, 0, 0), (1, 0, 0)) == 2
  assert hx.distance((0, 0, 0), (1, 1, 0)) == 4


coordinate = st.integers(-6, 6)


@settings(max_examples=60)
@given(st.tuples(coordinate, coordinate), st.tuples(coordinate, coordinate),
       st.integers(0, 1), st.integers(0, 1))
def test_closed_form_distances_match_breadth_first_search(x, y, s, t):
  # Locale.distance is the generic breadth-first search from u, which stops
  # once it reaches v.  s and t put a cross point on one axis or the other; a
  # half-plane point left of the vertical axis drops onto the horizontal one
  def on_axis(p, k):
    return (p[0], 0) if k else (0, p[1])

  def in_half(p):
    return p if p[0] >= 0 else (p[0], 0)

  for loc, u, v in ((Triangular(), x, y),
                    (Hexagonal(), x + (s,), y + (t,)),
                    (Cross(), on_axis(x, s), on_axis(y, t)),
                    (HalfPlane(), in_half(x), in_half(y))):
    assert loc.distance(u, v) == Locale.distance(loc, u, v), (loc.name, u, v)


def test_far_lattice_pairs_have_a_distance():
  assert Triangular().distance((0, 0), (200, 0)) == 200
  assert Triangular().distance((0, 0), (100, -100)) == 200
  assert Hexagonal().distance((0, 0, 0), (100, 0, 0)) == 200
  assert Hexagonal().distance((0, 0, 0), (-100, 0, 1)) == 199


def test_far_sublocale_pairs_have_a_distance():
  # 65 steps along the cross's arm; 40 along the half-plane's horizontal axis
  # and 40 up
  assert Cross().distance((0, 0), (65, 0)) == 65
  assert HalfPlane().distance((-40, 0), (0, 40)) == 80
  # a product sums its factors' distances
  prod = ProductLocale((Cross(), Cross()))
  assert prod.distance(((0, 0), (0, 0)), ((40, 0), (0, 40))) == 80
  assert prod.distance(((0, 0), (0, 0)), ((65, 0), (0, -200))) == 265
  apart = FiniteGraph([0, 1, 2], [(0, 1)])
  with pytest.raises(InputError) as cut:
    apart.distance(0, 2)
  assert str(cut.value) == "0 and 2 are not connected"


def test_far_half_plane_and_path_pairs_are_measured():
  half = HalfPlane()
  # left of the vertical axis the half-plane is the horizontal axis alone, so
  # every member pair has a monotone path inside it: the distance is l1
  points = ([(i, j) for i in range(0, 6) for j in range(-4, 5)]
            + [(i, 0) for i in range(-6, 0)])
  pairs = [(x, y) for x in points[::7] for y in points]
  pairs += [((0, 0), (10, 10)), ((-30, 0), (30, 5))]
  for x, y in pairs:
    want = abs(x[0] - y[0]) + abs(x[1] - y[1])
    assert half.distance(x, y) == Locale.distance(half, x, y) == want, (x, y)
  # two components: a path of 70 vertices, |x - y| apart along it, and a
  # triangle, 1 apart within it
  graph = FiniteGraph(range(73), [(k, k + 1) for k in range(69)]
                      + [(70, 71), (71, 72), (70, 72)])
  for x, y, want in ((0, 64, 64), (64, 0, 64), (70, 72, 1), (8, 8, 0),
                     (0, 65, 65), (69, 2, 67), (0, 69, 69)):
    assert graph.distance(x, y) == want, (x, y)
  # a pair in different components is refused from either side
  for x, y in ((3, 71), (72, 5)):
    with pytest.raises(InputError) as cut:
      graph.distance(x, y)
    assert str(cut.value) == f"{x} and {y} are not connected"


def test_free_group_distance_reduced_word_length():
  # letters are signed generator indices; inverses cancel on concatenation
  fg = FreeGroupCayley(2)
  assert fg.distance((), (1, 2)) == 2
  assert fg.distance((1,), ()) == 1
  assert fg.distance((1, 2), (1,)) == 1
  assert fg.distance((1,), (2,)) == 2
  assert fg.distance((1, -2), (1, 1)) == 2
  assert fg.distance((1, -2), (2, 1)) == 4


def test_free_group_vertices_are_reduced_words_of_letters():
  fg = FreeGroupCayley(2)
  assert (1, -2, 2) not in fg and (3,) not in fg and (0,) not in fg
  assert 5 not in fg and [1] not in fg
  assert (1, 2, -1) in fg and () in fg


def test_cross_and_half_plane_membership():
  cr = Cross()
  assert (5, 0) in cr and (0, -7) in cr
  assert (1, 1) not in cr
  hp = HalfPlane()
  assert (3, 4) in hp and (-3, 0) in hp
  assert (-1, 2) not in hp


def test_box_window_shape():
  w = box(Euclidean(2), (0, 0), (2, 2))
  assert w.n_sites == 9
  assert len(w.edges) == 24          # 12 undirected adjacencies, both ways
  assert all(w.path_between(w.vertices[0], v) for v in w.vertices)
  assert w.vertices == tuple(sorted(w.vertices))


def test_hexagonal_box_expands_both_sublattices():
  w = box(Hexagonal(), (0, 0), (1, 1))
  assert w.n_sites == 8
  assert all(v[2] in (0, 1) for v in w.vertices)


def test_window_center_has_least_eccentricity():
  def ecc(w, v):
    return max(w.locale.distance(v, x) for x in w.vertices)

  for w in (box(Euclidean(1), (0,), (8,)), box(Euclidean(1), (0,), (9,)),
            box(Euclidean(2), (0, 0), (6, 6)), box(Euclidean(2), (0, 0), (7, 7)),
            box(Hexagonal(), (0, 0), (3, 3)), ball_window(Triangular(), (0, 0), 2)):
    c = w.center
    least = min(ecc(w, v) for v in w.vertices)
    assert ecc(w, c) == least
    # ties go to the vertex nearest the middle of the vertex order
    mid = w.n_sites // 2
    tied = [i for i, v in enumerate(w.vertices) if ecc(w, v) == least]
    assert w.position(c) == min(tied, key=lambda i: (abs(i - mid), i))
  # the middle of the sorted vertex list, (4, 0), is a corner-side vertex
  assert box(Euclidean(2), (0, 0), (7, 7)).center == (4, 3)
  assert box(Euclidean(1), (0,), (9,)).center == (5,)


def test_window_center_is_searched_once_per_window(monkeypatch):
  calls = []
  distance = Euclidean.distance
  monkeypatch.setattr(Euclidean, "distance",
                      lambda self, x, y: calls.append(x) or distance(self, x, y))
  w = box(Euclidean(2), (0, 0), (5, 5))
  assert w.center == (3, 2)
  searched = len(calls)
  assert searched > 0
  assert w.center == w.center == (3, 2) and len(calls) == searched


def test_ball_window():
  w = ball_window(Euclidean(2), (0, 0), 1)
  assert w.n_sites == 5
  assert len([(u, v) for u, v in w.edges if u <= v]) == 4


def test_window_ball_is_the_locale_ball_cut_to_the_window():
  # in the locale's order, a center outside the window included
  wins = [box(Euclidean(2), (0, 0), (3, 2)), box(Hexagonal(), (0, 0), (1, 2)),
          window(Euclidean(1), [(0,), (2,), (3,), (7,)])]
  for w in wins:
    for center in w.vertices + (w.locale.neighbors(w.vertices[-1])[0],):
      for r in range(4):
        ball = w.locale.ball(center, r)
        assert w.ball(center, r) == tuple(v for v in ball if v in w)
  assert wins[2].ball((1,), 1) == ((0,), (2,))
  assert wins[2].ball((5,), 1) == ()


def test_explicit_window_rejects_duplicates():
  with pytest.raises(InputError):
    window(Euclidean(1), ((0,), (0,), (1,)))


def test_finite_graph_rejects_bad_edges():
  with pytest.raises(InputError):
    FiniteGraph(("a", "b"), (("a", "a"),))
  with pytest.raises(InputError):
    FiniteGraph(("a", "b"), (("a", "c"),))


def test_window_path_between():
  w = box(Euclidean(2), (0, 0), (2, 2))
  path = w.path_between((0, 0), (2, 2))
  assert path[0] == (0, 0) and path[-1] == (2, 2)
  for a, b in zip(path, path[1:]):
    assert (a, b) in set(w.edges)


def test_transferability_catalog():
  expected = {
      "weakly-only": [Euclidean(1), FreeGroupCayley(1), NNeighbor(1, 3)],
      "strongly": [Euclidean(2), Euclidean(3), Triangular(), Hexagonal(),
                   NNeighbor(2, 2),
                   ProductLocale((Euclidean(1), Euclidean(1)))],
      "transferable": [Cross(), HalfPlane(), FreeGroupCayley(2)],
  }
  for cls, locales in expected.items():
    for loc in locales:
      rep = transferability(loc)
      assert rep["classification"] == cls, (loc.name, rep)
      assert rep["method"] == "catalog"
      assert rep["transferable"] == (cls != "weakly-only")


def test_transferability_probe_on_finite_graph():
  path3 = FiniteGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
  rep = transferability(path3)
  assert rep["method"] == "probe"
  assert rep["classification"] == "not-weakly"
  assert rep["evidence"] is not None


def test_locale_json_roundtrip():
  for obj in [{"kind": "euclidean", "d": 2},
              {"kind": "n-neighbor", "d": 1, "n": 2},
              {"kind": "triangular"},
              {"kind": "hexagonal"},
              {"kind": "free-group", "rank": 2},
              {"kind": "cross"},
              {"kind": "half-plane"},
              {"kind": "product",
               "factors": [{"kind": "euclidean", "d": 1},
                           {"kind": "euclidean", "d": 1}]}]:
    loc = locale_from_json(obj)
    assert loc.name == obj["kind"]


def test_window_json_kinds():
  loc = Euclidean(1)
  w1 = window_from_json(loc, {"kind": "box", "lo": [0], "hi": [4]})
  assert w1.n_sites == 5
  w2 = window_from_json(loc, {"kind": "ball", "center": [0], "radius": 2})
  assert w2.n_sites == 5
  w3 = window_from_json(loc, {"kind": "explicit", "vertices": [[0], [1], [2]]})
  assert w3.n_sites == 3


def test_bad_locale_json():
  with pytest.raises(InputError):
    locale_from_json({"kind": "moebius"})
  with pytest.raises(InputError):
    locale_from_json({"kind": "euclidean", "d": 0})


@settings(max_examples=30)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3))
def test_ball_agrees_with_distance(x, y, r):
  loc = Triangular()
  ball = set(loc.ball((x, y), r))
  probe = [(x + dx, y + dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)]
  for v in probe:
    assert (v in ball) == (loc.distance((x, y), v) <= r)


# ---------------------------------------------------------------------------
# Reference walks: the separate breadth-first loops that distance, ball,
# path_between and the transfer probe each had before they shared one
# layered search.  The shared search must reproduce all of them.


def reference_distance(loc, x, y):
  if x == y:
    return 0
  front_a, front_b = {x: 0}, {y: 0}
  seen_a, seen_b = {x: 0}, {y: 0}
  while front_a and front_b:
    if len(front_a) > len(front_b):
      front_a, front_b = front_b, front_a
      seen_a, seen_b = seen_b, seen_a
    nxt = {}
    for u, du in front_a.items():
      for v in loc.neighbors(u):
        if v in seen_b:
          return du + 1 + seen_b[v]
        if v not in seen_a:
          seen_a[v] = du + 1
          nxt[v] = du + 1
    front_a = nxt
  raise InputError(f"{x} and {y} are not connected")


def reference_ball(loc, center, radius):
  seen = {center}
  frontier = [center]
  for _ in range(radius):
    nxt = []
    for u in frontier:
      for v in loc.neighbors(u):
        if v not in seen:
          seen.add(v)
          nxt.append(v)
    frontier = nxt
  return tuple(sorted(seen))


def reference_path_between(w, x, y):
  if x == y:
    return [x]
  prev = {x: None}
  queue = deque([x])
  while queue:
    u = queue.popleft()
    for v in w.neighbors_in(u):
      if v not in prev:
        prev[v] = u
        if v == y:
          path = [y]
          while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
          return path[::-1]
        queue.append(v)
  raise InputError(f"no path from {x!r} to {y!r} inside the window")


def reference_components(loc, x0, r, margin):
  region = set(loc.ball(x0, r + margin))
  rest = region - set(loc.ball(x0, r))
  comps = []
  seen = set()
  for start in sorted(rest):
    if start in seen:
      continue
    comp = {start}
    queue = deque([start])
    while queue:
      u = queue.popleft()
      for v in loc.neighbors(u):
        if v in rest and v not in comp:
          comp.add(v)
          queue.append(v)
    seen |= comp
    boundary = any(w not in region for u in comp for w in loc.neighbors(u))
    comps.append({"size": len(comp), "reaches_probe_edge": boundary})
  return comps


def outcome(fn, *args):
  """fn's result, or the text of the InputError it raises."""
  try:
    return fn(*args)
  except InputError as exc:
    return ("refused", str(exc))


# a 6-cycle with a chord and a pendant path, plus a separate edge
finite = FiniteGraph(range(10), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                                 (1, 4), (5, 6), (6, 7), (8, 9)])


def test_distance_matches_the_bidirectional_reference():
  grid = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
  far = {Cross(): [((0, 0), (65, 0)), ((0, -40), (70, 0))],
         HalfPlane(): [((-40, 0), (0, 40)), ((-30, 0), (30, 5))]}
  for loc, far_pairs in far.items():
    verts = [v for v in grid if v in loc]
    for x, y in [(x, y) for x in verts for y in verts] + far_pairs:
      want = reference_distance(loc, x, y)
      assert loc.distance(x, y) == Locale.distance(loc, x, y) == want, (x, y)
  for x in finite.vertices:
    for y in finite.vertices:
      assert outcome(finite.distance, x, y) == outcome(reference_distance, finite, x, y)
  assert outcome(finite.distance, 7, 9) == ("refused", "7 and 9 are not connected")


def test_ball_matches_the_layered_reference():
  cases = [(Euclidean(2), (1, -1)), (Triangular(), (0, 0)), (Hexagonal(), (0, 0, 1)),
           (FreeGroupCayley(2), (1, -2)), (Cross(), (0, 2)), (HalfPlane(), (-1, 0)),
           (NNeighbor(1, 2), (3,)), (finite, 6)]
  for loc, center in cases:
    for r in range(4):
      assert loc.ball(center, r) == reference_ball(loc, center, r), (loc.name, r)


def test_path_between_matches_the_first_discoverer_reference():
  wins = [box(Euclidean(2), (0, 0), (2, 3)), box(Triangular(), (0, 0), (2, 2)),
          box(Hexagonal(), (0, 0), (1, 2)), ball_window(Cross(), (0, 0), 3),
          window(Euclidean(2), [(0, 0), (0, 1), (1, 1), (3, 0), (3, 1)])]
  for w in wins:
    for x in w.vertices:
      for y in w.vertices:
        assert outcome(w.path_between, x, y) == outcome(reference_path_between, w, x, y)


def test_transfer_probe_components_match_the_reference():
  path12 = FiniteGraph(range(12), [(i, i + 1) for i in range(11)])
  rep = transferability(path12)
  balls = rep["evidence"]["balls"]
  for r, ball in enumerate(balls, 1):
    assert ball == {"radius": r, "components": reference_components(
        path12, 0, r, TRANSFER_PROBE_MARGIN)}
    assert ball["components"] == [{"size": 4, "reaches_probe_edge": True}]
  assert len(balls) == TRANSFER_PROBE_RADIUS == 3
  assert rep["classification"] == "unknown"
