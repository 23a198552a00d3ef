import random

import pytest

from planar_holant import fixtures
from planar_holant.face_kernel import P3emKernel
from planar_holant.plane_graph import (Face, GraphError, NonPlanarEmbedding,
                                       PlaneGraph, build, from_json,
                                       incidence_grid, merge_degree2_left_map,
                                       reach, two_coloring)
from planar_holant.generators import (generate_cubic_bipartite_plane,
                                      generate_cubic_plane)
from planar_holant.signatures import EQ3, SymSignature


def orbit_count(twin, vertex_of, rotation):
    """Independent face-orbit counter for hand checks."""
    def nxt(d):
        t = twin[d]
        rot = rotation[vertex_of[t]]
        return rot[(rot.index(t) + 1) % len(rot)]

    seen, n = set(), 0
    for d0 in twin:
        if d0 in seen:
            continue
        n += 1
        d = d0
        while True:
            seen.add(d)
            d = nxt(d)
            if d == d0:
                break
    return n


def test_k4_valid_four_faces():
    g = fixtures.k4()
    assert len(g.faces()) == 4
    assert all(len(f.boundary) == 3 for f in g.faces())


def test_m23_three_faces_of_length_two():
    g = fixtures.m23()
    assert sorted(len(f.boundary) for f in g.faces()) == [2, 2, 2]


def test_k4_swapped_rotation_is_genus_one():
    g = fixtures.k4()
    rot = {v: list(r) for v, r in g.rotation.items()}
    v0 = g.vertices()[0]
    rot[v0] = list(reversed(rot[v0]))
    # independent orbit count: v - e + f = 4 - 6 + 2 means genus 1
    assert orbit_count(g.twin, g.vertex_of, rot) == 2
    with pytest.raises(NonPlanarEmbedding):
        PlaneGraph(g.twin, g.vertex_of, rot)


def test_single_loop_vertex_two_faces():
    g = PlaneGraph({0: 1, 1: 0}, {0: 5, 1: 5}, {5: (0, 1)})
    assert len(g.faces()) == 2


def test_cube_six_quadrilaterals():
    g = fixtures.cube()
    assert sorted(len(f.boundary) for f in g.faces()) == [4] * 6


def test_cubic_counts():
    for g in (fixtures.cube(), fixtures.k4(), fixtures.dodecahedron()):
        v, e = len(g.vertices()), len(g.edges())
        assert 2 * e == 3 * v
        assert e % 3 == 0


def test_bridges():
    g = fixtures.dumbbell()
    middle = [e for e in g.edges()
              if g.vertex_of[e] != g.vertex_of[g.twin[e]]][0]
    assert g.is_bridge(middle)
    k4 = fixtures.k4()
    assert not any(k4.is_bridge(e) for e in k4.edges())
    br = fixtures.bridge_fixture()
    assert len(br.bridges()) == 1


def test_connected_components():
    g = fixtures.cube()
    assert len(g.connected_components()) == 1
    twin = dict(g.twin)
    vo = dict(g.vertex_of)
    rot = {v: g.rotation[v] for v in g.vertices()}
    g2 = fixtures.relabeled(fixtures.k4(), 100, 1000)
    twin.update(g2.twin)
    vo.update(g2.vertex_of)
    rot.update(g2.rotation)
    both = PlaneGraph(twin, vo, rot)
    assert len(both.connected_components()) == 2
    # validation's component list is handed out as copies
    both.connected_components()[0].append(-1)
    assert both.connected_components() == [g.vertices(), g2.vertices()]


def test_face_boundary_lookup():
    g = fixtures.dodecahedron()
    for f in g.faces():
        assert g.face_boundary(f.id) == f.boundary
    not_an_id = g.faces()[0].boundary[1]   # a face id is its smallest dart
    with pytest.raises(GraphError):
        g.face_boundary(not_an_id)


def test_incidence_grid_counts():
    m = fixtures.m23()
    grid = incidence_grid(m, SymSignature([1, 0, 1]), EQ3)
    assert len(grid.left_nodes()) == 3 and len(grid.right_nodes()) == 2
    k4 = fixtures.k4()
    grid = incidence_grid(k4, SymSignature([1, 0, 1]), EQ3)
    assert len(grid.left_nodes()) == 6 and len(grid.right_nodes()) == 4


def test_incidence_roundtrip_random():
    left = SymSignature([1, 0, 1])
    for seed in range(50):
        g = generate_cubic_plane(6 if seed % 2 else 8, seed)
        grid = incidence_grid(g, left, EQ3)
        back, _ = merge_degree2_left_map(grid)
        assert back.canonical_form() == g.canonical_form()


def test_two_coloring():
    assert two_coloring(fixtures.cube()) is not None
    assert two_coloring(fixtures.k4()) is None


def components_by_union_find(g, edges):
    """Independent reference: the vertex classes that the edges join."""
    parent = {v: v for v in g.vertices()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        u, w = g.edge_ends(e)
        parent[find(u)] = find(w)
    comps = {}
    for v in g.vertices():
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())


@pytest.mark.parametrize("kind", ["closure", "contracted", "unions"])
def test_search_matches_union_find_and_face_parity(kind):
    from test_solvers import disjoint_union, multigraph_family
    rng = random.Random(kind)
    # and bipartite ones, some with parallel pairs, alone and in a union
    evens = [generate_cubic_bipartite_plane(n, s) for n in (8, 20) for s in (0, 1)]
    graphs = multigraph_family(kind) + evens + [disjoint_union(*evens[:2])]
    bipartite = 0
    for g in graphs:
        comps = components_by_union_find(g, g.edges())
        assert g.connected_components() == comps
        # each search enters a vertex along a dart from one seen before it
        for comp in comps:
            entry = reach(g, comp[0])
            assert sorted(entry) == comp
            order = {v: i for i, v in enumerate(entry)}
            assert entry[comp[0]] is None
            assert all(order[g.vertex_of[d]] < order[v]
                       and g.vertex_of[g.twin[d]] == v
                       for v, d in entry.items() if d is not None)
        # banning both darts of some edges leaves the components of the rest
        kept = [e for e in g.edges() if rng.random() < 0.6]
        banned = {d for e in set(g.edges()) - set(kept) for d in (e, g.twin[e])}
        for comp in components_by_union_find(g, kept):
            assert sorted(reach(g, comp[-1], banned)) == comp
        # a plane graph is bipartite exactly when every face walk is even
        coloring = two_coloring(g)
        assert (coloring is None) == any(len(f.boundary) % 2 for f in g.faces())
        if coloring is not None:
            bipartite += 1
            assert sorted(coloring) == g.vertices()
            assert all(coloring[g.vertex_of[d]] != coloring[g.vertex_of[t]]
                       for d, t in g.twin.items())
    assert bipartite and bipartite < len(graphs)


def test_json_roundtrip():
    g = fixtures.cube()
    g2 = from_json(g.to_json())
    assert g2 == g


def test_build_error_reports():
    with pytest.raises(Exception):
        build({"vertices": [{"id": 0, "rotation": [0]}],
               "darts": [{"id": 0, "twin": 0, "vertex": 0}]})


def test_canonical_form_distinguishes():
    names = ["k4", "m23", "dumbbell", "cube", "prism", "dodecahedron"]
    forms = {n: getattr(fixtures, n)().canonical_form() for n in names}
    assert len(set(forms.values())) == len(names)


def test_faces_partition_darts_and_euler():
    for name in ("k4", "cube", "dodecahedron", "base_b", "base_c"):
        g = getattr(fixtures, name)()
        total = sum(len(f.boundary) for f in g.faces())
        assert total == len(g.darts())
        for comp in g.connected_components():
            darts = [d for v in comp for d in g.rotation[v]]
            fids = {g.face_of(d) for d in darts}
            assert len(comp) - len(darts) // 2 + len(fids) == 2


def _canonical_form_reference(g):
    """The earlier canonical form: every start dart traced in full, the
    rotation successor found by rot.index on every step."""
    def rot_next(rotation, d):
        rot = rotation[g.vertex_of[d]]
        return rot[(rot.index(d) + 1) % len(rot)]

    def trace(rotation, start):
        label = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for nxt in (g.twin[d], rot_next(rotation, d)):
                if nxt not in label:
                    label[nxt] = len(order)
                    order.append(nxt)
        return tuple((label[g.twin[d]], label[rot_next(rotation, d)])
                     for d in order)

    flipped = {v: tuple(reversed(r)) for v, r in g.rotation.items()}
    return min(trace(rot, s) for rot in (g.rotation, flipped)
               for s in g.darts())


def test_canonical_form_matches_reference():
    from planar_holant.generators import move_closure
    names = ["k4", "m23", "dumbbell", "cube", "prism", "base_b", "base_c",
             "base_d", "base_e", "base_g", "base_h", "pentagon_wheel",
             "dodecahedron", "bridge_fixture", "chord_fixture",
             "coincident_pentagon_fixture"]
    graphs = move_closure(8) + [getattr(fixtures, n)() for n in names]
    for g in graphs:
        assert g.canonical_form() == _canonical_form_reference(g)


# -- what validation keeps, and kernels cut from it ---------------------------

FIXTURE_NAMES = ["k4", "m23", "dumbbell", "cube", "prism", "base_b", "base_c",
                 "base_d", "base_e", "base_g", "base_h", "pentagon_wheel",
                 "dodecahedron", "bridge_fixture", "chord_fixture",
                 "coincident_pentagon_fixture"]


def _ccw_next_reference(g):
    """Each dart's ccw successor at its vertex, found by rot.index."""
    def succ(d):
        rot = g.rotation[g.vertex_of[d]]
        return rot[(rot.index(d) + 1) % len(rot)]
    return {d: succ(d) for d in g.darts()}


def _faces_reference(g):
    """The lazy face walk: an orbit of the face successor (the ccw
    successor of the twin, by rot.index) from every dart not yet on a
    face, in dart order, named by its smallest dart."""
    succ = _ccw_next_reference(g)
    faces, face_of = [], {}
    for d0 in g.darts():
        if d0 in face_of:
            continue
        orbit = [d0]
        d = succ[g.twin[d0]]
        while d != d0:
            orbit.append(d)
            d = succ[g.twin[d]]
        fid = min(orbit)
        face_of.update(dict.fromkeys(orbit, fid))
        faces.append(Face(fid, tuple(orbit)))
    return sorted(faces, key=lambda f: f.id), face_of


def _union(*parts):
    """The disjoint union of the parts, each part's ids shifted past the
    ids before it."""
    twin, vertex_of, rotation = {}, {}, {}
    for g in parts:
        dd = max(twin, default=-1) + 1
        dv = max(rotation, default=-1) + 1
        twin.update({d + dd: t + dd for d, t in g.twin.items()})
        vertex_of.update({d + dd: v + dv for d, v in g.vertex_of.items()})
        rotation.update({v + dv: tuple(d + dd for d in r)
                         for v, r in g.rotation.items()})
    return PlaneGraph(twin, vertex_of, rotation)


def _graphs_with_components():
    from planar_holant.generators import move_closure
    fx = [getattr(fixtures, name)() for name in FIXTURE_NAMES]
    gen = [generate_cubic_plane(n, s) for n in (30, 100, 300) for s in range(2)]
    unions = [_union(fx[0], fx[3], fx[1]), _union(gen[0], fixtures.dumbbell()),
              _union(fixtures.chord_fixture(), gen[1], fixtures.k4(), gen[2])]
    return move_closure(8) + fx + gen + unions


def test_kept_faces_match_the_lazy_walk():
    for g in _graphs_with_components():
        faces, face_of = _faces_reference(g)
        assert g.faces() == faces
        assert {d: g.face_of(d) for d in g.darts()} == face_of
        for f in faces:
            assert g.face_boundary(f.id) == f.boundary


def test_ccw_next_and_next_dart_match_the_rotations():
    for g in _graphs_with_components():
        succ = _ccw_next_reference(g)
        assert g.ccw_next == succ
        assert {d: g.next_dart(d) for d in g.darts()} == {
            d: succ[g.twin[d]] for d in g.darts()}


def _kernel_state(k):
    """What a P3emKernel keeps, and the first pick of each of its heaps."""
    return (k.twin, k.vertex_of, k.rotation, k.faces(), k.face_of_dart,
            k.ccw_next, k.smallest_loop(), k.smallest_parallel_pair(),
            k.smallest_bridge(), k.smallest_chord(),
            [k.smallest_face(n) for n in (3, 4, 5)])


def test_part_equals_a_kernel_of_a_validated_component():
    unions = 0
    for g in _graphs_with_components():
        comps = g.connected_components()
        unions += len(comps) > 1
        whole = P3emKernel(g)
        for comp in comps + [sorted(v for c in comps[::2] for v in c)]:
            keep = set(comp)
            ref = P3emKernel(PlaneGraph(
                {d: t for d, t in g.twin.items() if g.vertex_of[d] in keep},
                {d: v for d, v in g.vertex_of.items() if v in keep},
                {v: g.rotation[v] for v in comp}))
            want = _kernel_state(ref)
            assert _kernel_state(P3emKernel.part(g, comp)) == want
            assert _kernel_state(P3emKernel.part(whole, comp)) == want
    assert unions >= 3


def test_part_refuses_a_part_of_a_component():
    g = fixtures.cube()
    for src in (g, P3emKernel(g)):
        with pytest.raises(GraphError):
            P3emKernel.part(src, g.vertices()[:3])


def test_non_planar_message_names_the_first_bad_component():
    k4 = fixtures.k4()
    rot = dict(k4.rotation)
    v0 = min(rot)
    rot[v0] = rot[v0][::-1]
    with pytest.raises(NonPlanarEmbedding) as ex:
        PlaneGraph(k4.twin, k4.vertex_of, rot)
    assert str(ex.value) == "component [1, 2, 3, 4]...: V-E+F = 4-6+2 != 2"
    cube = fixtures.cube()
    shifted = {v + 100: tuple(d + 1000 for d in r) for v, r in rot.items()}
    with pytest.raises(NonPlanarEmbedding) as ex:
        PlaneGraph({**cube.twin, **{d + 1000: t + 1000 for d, t in k4.twin.items()}},
                   {**cube.vertex_of,
                    **{d + 1000: v + 100 for d, v in k4.vertex_of.items()}},
                   {**cube.rotation, **shifted})
    assert str(ex.value) == "component [101, 102, 103, 104]...: V-E+F = 4-6+2 != 2"
