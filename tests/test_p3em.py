import hashlib
import inspect
import itertools
import random
import sys

import pytest

from planar_holant import fixtures, p3em_cases
from planar_holant.generators import (generate_cubic_plane, leapfrog,
                                      move_closure, relabel)
from planar_holant.p3em import (ExceptionalGraph, base_case, check_sigma,
                                complete_assignment, exceptional_kind,
                                find_p3em, materialize, place_pool,
                                search_assignment, solve_sigma, triples,
                                verify)
from planar_holant.p3em_cases import solve_kernel, step_reduce
from planar_holant.face_kernel import FaceKernel, P3emKernel
from planar_holant.plane_graph import GraphBuilder, GraphError, PlaneGraph


def test_exceptional_detection():
    assert exceptional_kind(fixtures.k4()) == "K4"
    assert exceptional_kind(fixtures.m23()) == "M23"
    assert exceptional_kind(fixtures.cube()) is None


def test_exceptional_have_no_assignment():
    # independent exhaustive search proves nonexistence
    assert search_assignment(fixtures.k4()) is None
    assert search_assignment(fixtures.m23()) is None


def test_cube_has_assignment_by_search_and_constructor():
    g = fixtures.cube()
    assert search_assignment(g) is not None
    sigma = find_p3em(g)
    rep = verify(g, sigma)
    assert rep.ok
    grp = triples(g, sigma)
    assert len(grp) == 4
    assert sorted(e for t in grp for e in t["edges"]) == g.edges()


def test_dumbbell_single_triple():
    g = fixtures.dumbbell()
    sigma = find_p3em(g)
    assert verify(g, sigma).ok
    grp = triples(g, sigma)
    assert len(grp) == 1 and len(grp[0]["edges"]) == 3


def test_all_base_cases():
    for name in ("dumbbell", "base_b", "base_c", "base_d", "base_e",
                 "prism", "base_g", "base_h"):
        g = getattr(fixtures, name)()
        sigma = base_case(g)
        assert sigma is not None and verify(g, sigma).ok, name


def test_base_case_rejects_others():
    assert base_case(fixtures.cube()) is None
    assert base_case(fixtures.k4()) is None  # exceptional, handled upstream


def test_verify_diagnostics():
    g = fixtures.cube()
    sigma = find_p3em(g)
    e0 = g.edges()[0]
    bad = dict(sigma)
    other = [f.id for f in g.faces() if f.id not in g.edge_faces(e0)][0]
    bad[e0] = other
    rep = verify(g, bad)
    assert not rep.ok and "IncidenceViolation" in rep.reason
    bad2 = dict(sigma)
    f1, f2 = g.edge_faces(e0)
    bad2[e0] = f2 if sigma[e0] == f1 else f1
    rep2 = verify(g, bad2)
    assert not rep2.ok and "Mod3Violation" in rep2.reason
    rep3 = verify(g, {k: v for k, v in sigma.items() if k != e0})
    assert not rep3.ok and "DomainViolation" in rep3.reason
    # over a fragment: only the given edges and faces, with the given counts
    counts = verify(g, sigma).face_counts
    assert verify(g, sigma, counts, list(counts), g.edges()).ok
    assert verify(g, bad, counts, [], []).ok
    assert verify(g, bad, counts, [], [e0]).reason.startswith("IncidenceViolation")
    counts2 = dict(counts)
    counts2[sigma[e0]] -= 1
    counts2[bad2[e0]] += 1
    assert verify(g, bad2, counts2, [], [e0]).ok
    assert verify(g, bad2, counts2, [bad2[e0]], [e0]).reason.startswith(
        "Mod3Violation")
    rep4 = verify(g, {k: v for k, v in sigma.items() if k != e0}, counts, [], [])
    assert rep4.reason == (f"DomainViolation: {len(sigma) - 1} of {len(sigma)}"
                           " edges assigned")


def test_solve_sigma_exhaustive():
    for xp in itertools.product((0, 1), repeat=5):
        for yp3, yp4 in itertools.product((0, 1), repeat=2):
            x, y = solve_sigma(xp, yp3, yp4)
            assert check_sigma(xp, yp3, yp4, x, y)
            assert all(v in (0, 1) for v in x + y)


def test_solve_sigma_constructive_branches():
    # nonzero (y'3, y'4): x copies x', y1 absorbs the slack
    x, y = solve_sigma((0, 1, 1, 0, 1), 1, 0)
    assert x == (0, 1, 1, 0, 1)
    assert y == (0, 1, 0, 1, 0)
    # x'1 = 0 branch
    x, y = solve_sigma((0, 0, 1, 0, 1), 0, 0)
    assert x == (0, 1, 1, 0, 1) and y == (1, 1, 0, 0, 0)
    # (x'1, x'2) = (1, 1) branch
    x, y = solve_sigma((1, 1, 1, 0, 0), 0, 0)
    assert x == (1, 1, 0, 0, 0) and y == (0, 1, 1, 0, 0)


def test_materialize_counts_and_planarity():
    for builder in (fixtures.dumbbell, fixtures.cube, fixtures.dodecahedron):
        g = builder()
        sigma = find_p3em(g)
        m = materialize(g, sigma)  # build() validation happens in freeze
        v, e = len(g.vertices()), len(g.edges())
        assert len(m.vertices()) == v + e + e // 3
        assert m.is_cubic()


def test_materialize_random():
    for seed in range(30):
        g = generate_cubic_plane(random.Random(seed).choice([6, 10, 14]), seed)
        res = find_p3em(g)
        if isinstance(res, ExceptionalGraph):
            continue
        materialize(g, res)


def test_find_p3em_rejects_noncubic():
    g = PlaneGraph({0: 1, 1: 0}, {0: 5, 1: 5}, {5: (0, 1)})
    with pytest.raises(Exception):
        find_p3em(g)


def test_disconnected_reports_exceptional_components():
    g1 = fixtures.cube()
    g2 = fixtures.relabeled(fixtures.k4(), 100, 1000)
    twin = {**g1.twin, **g2.twin}
    vo = {**g1.vertex_of, **g2.vertex_of}
    rot = {**{v: g1.rotation[v] for v in g1.vertices()},
           **{v: g2.rotation[v] for v in g2.vertices()}}
    g = PlaneGraph(twin, vo, rot)
    res = find_p3em(g)
    assert isinstance(res, ExceptionalGraph)
    assert res.kinds == ["K4"]


def test_disconnected_union_assignment():
    g1 = fixtures.cube()
    g2 = fixtures.relabeled(fixtures.dodecahedron(), 100, 1000)
    twin = {**g1.twin, **g2.twin}
    vo = {**g1.vertex_of, **g2.vertex_of}
    rot = {**{v: g1.rotation[v] for v in g1.vertices()},
           **{v: g2.rotation[v] for v in g2.vertices()}}
    g = PlaneGraph(twin, vo, rot)
    sigma = find_p3em(g)
    assert verify(g, sigma).ok


def test_find_p3em_parts_only_a_graph_of_several_components(monkeypatch):
    # a connected graph gets a kernel of its own, with no part cut; each
    # component of a disconnected one is cut out once, and every dart of
    # the graph is copied once over those cuts (the splits of the
    # reduction steps cut parts of kernels, which are not counted)
    calls, copied = [], []
    part = P3emKernel.part

    def spy(src, vertices):
        k = part(src, vertices)
        if isinstance(src, PlaneGraph):
            calls.append(list(vertices))
            copied.extend(k.twin)
        return k

    monkeypatch.setattr(P3emKernel, "part", staticmethod(spy))
    for g in (fixtures.cube(), fixtures.dodecahedron(), fixtures.bridge_fixture(),
              generate_cubic_plane(200, 1)):
        assert verify(g, find_p3em(g)).ok
    assert calls == [] and copied == []
    g1 = fixtures.cube()
    g2 = fixtures.relabeled(fixtures.dodecahedron(), 100, 1000)
    g3 = fixtures.relabeled(fixtures.bridge_fixture(), 200, 2000)
    g = PlaneGraph({**g1.twin, **g2.twin, **g3.twin},
                   {**g1.vertex_of, **g2.vertex_of, **g3.vertex_of},
                   {**g1.rotation, **g2.rotation, **g3.rotation})
    assert verify(g, find_p3em(g)).ok
    assert calls == g.connected_components() and len(calls) == 3
    assert sorted(copied) == g.darts()


CASE_FIXTURES = {
    "pentagon": fixtures.dodecahedron,
    "bridge": fixtures.bridge_fixture,
    "chord": fixtures.chord_fixture,
}


def _one_step(k):
    """step_reduce on kernel k, its children solved and the lift checked on
    the frozen parent; returns the step and the frozen children."""
    g = k.freeze()
    step = step_reduce(k)
    children = [c.freeze() for c in step.children]
    cert = step.lift([solve_kernel(c) for c in step.children])
    parent = k.freeze()
    assert parent == g
    assert verify(parent, cert.sigma).ok
    return step, children


@pytest.mark.parametrize("label", sorted(CASE_FIXTURES))
def test_step_reduce_labels(label):
    g = CASE_FIXTURES[label]()
    step, children = _one_step(P3emKernel(g))
    assert step.label == label
    total_v = sum(len(c.vertices()) for c in children)
    assert total_v <= len(g.vertices()) + 2  # split cases add two helper vertices
    assert all(len(c.vertices()) < len(g.vertices()) for c in children)


def _coincidence_step(g):
    """The pentagon-coincidence step on the first pentagon of g that has one."""
    from planar_holant.p3em_cases import (_case_b_coincidence,
                                          _find_b_coincidence,
                                          _face_labels, _rotate_labels)
    k = P3emKernel(g)
    for f in k.faces():
        if len(f.boundary) != 5:
            continue
        lab = _face_labels(k, f)
        if (all(b not in lab.a for b in lab.b)
                and _find_b_coincidence(lab) is not None):
            return k, _case_b_coincidence(
                k, _rotate_labels(lab, _find_b_coincidence(lab)))
    raise AssertionError("no pentagon with coinciding spoke ends")


def test_coincident_pentagon_case_direct():
    g = fixtures.coincident_pentagon_fixture()
    k, step = _coincidence_step(g)
    assert step.label == "pentagon_coincident"
    assert len(step.children) == 2
    cert = step.lift([solve_kernel(c) for c in step.children])
    assert k.freeze() == g and verify(g, cert.sigma).ok


def test_reduction_cases_on_small_library():
    # every graph in the small closure reduces with a verifying lift chain
    from planar_holant.generators import move_closure
    seen_labels = set()
    for g in move_closure(8):
        if exceptional_kind(g) is not None or base_case(g) is not None:
            continue
        step, _ = _one_step(P3emKernel(g))
        seen_labels.add(step.label)
    assert {"self_loop", "double_edge", "triangle"} <= seen_labels


def test_pipeline_500_random():
    rng = random.Random(12321)
    done = 0
    while done < 500:
        n = rng.choice([4, 6, 8, 10, 12, 16])
        g = generate_cubic_plane(n, rng.randint(0, 10 ** 6))
        res = find_p3em(g)
        if isinstance(res, ExceptionalGraph):
            assert exceptional_kind(g) is not None
            continue
        assert verify(g, res).ok
        done += 1


def test_totality_closure_ten():
    # module invariant: every connected cubic plane multigraph reachable in
    # the move closure up to ten vertices has a certificate, except exactly
    # the two impossible graphs
    from planar_holant.generators import move_closure
    exceptional = 0
    for g in move_closure(10):
        res = find_p3em(g)
        if isinstance(res, ExceptionalGraph):
            exceptional += 1
            assert exceptional_kind(g) is not None
        else:
            assert verify(g, res).ok
    assert exceptional == 2


def test_long_reduction_chain_needs_no_recursion():
    # the reduction chain of a 400-vertex graph is about 190 steps long
    g = generate_cubic_plane(400, 3)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 80)
    try:
        res = find_p3em(g)
    finally:
        sys.setrecursionlimit(old)
    assert verify(g, res).ok


# -- references: the earlier, independent versions of the P3EM helpers ------

def _find_chord_reference(g):
    """Every edge of the graph against every face, O(F·E)."""
    ends = [(e, g.edge_ends(e)) for e in g.edges()]
    for f in g.faces():
        on_cycle = {g.vertex_of[d] for d in f.boundary}
        cyc_edges = {g.edge_of(d) for d in f.boundary}
        for e, (u, w) in ends:
            if e not in cyc_edges and u in on_cycle and w in on_cycle:
                return f, e
    return None


def _bridges_reference(g):
    """Bridges by a lowpoint DFS over darts; it skips exactly one reverse
    dart per tree edge, so parallel edges count as back edges and are never
    bridges."""
    disc, low = {}, {}
    out = set()
    time = [0]
    for root in g.vertices():
        if root in disc:
            continue
        disc[root] = low[root] = time[0]
        time[0] += 1
        stack = [(root, None, iter(g.rotation[root]))]
        while stack:
            v, back_dart, it = stack[-1]
            pushed = False
            for d in it:
                if d == back_dart:
                    continue
                w = g.vertex_of[g.twin[d]]
                if w == v:
                    continue  # self-loop
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = time[0]
                    time[0] += 1
                    stack.append((w, g.twin[d], iter(g.rotation[w])))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        out.add(g.edge_of(back_dart))
    return out


def _fullerene(levels, seed):
    """The dodecahedron leapfrogged `levels` times, under random ids."""
    g = fixtures.dodecahedron()
    for _ in range(levels):
        g = leapfrog(g)
    return relabel(g, random.Random(seed))


def _triangle_corners_reference(g, face):
    out = []
    k = len(face.boundary)
    for i, d in enumerate(face.boundary):
        v = g.vertex_of[d]
        prev_d = face.boundary[(i - 1) % k]
        spoke = next(x for x in g.rotation[v]
                     if x != d and x != g.twin[prev_d])
        out.append({"v": v, "edge_next": g.edge_of(d), "spoke": spoke,
                    "spoke_edge": g.edge_of(spoke),
                    "nbr": g.vertex_of[g.twin[spoke]]})
    return out


def _search_assignment_reference(g):
    edges = g.edges()
    choices = [tuple(dict.fromkeys(g.edge_faces(e))) for e in edges]
    counts = {f.id: 0 for f in g.faces()}
    sigma = {}

    def rec(i):
        if i == len(edges):
            return all(c % 3 == 0 for c in counts.values())
        for fid in choices[i]:
            counts[fid] += 1
            sigma[edges[i]] = fid
            if rec(i + 1):
                return True
            counts[fid] -= 1
        sigma.pop(edges[i], None)
        return False

    return dict(sigma) if rec(0) else None


def _first_completion(g, sigma, pool):
    """The first verifying completion in lexicographic edge/face order."""
    pool = sorted(pool)
    options = [dict.fromkeys(g.edge_faces(e)) for e in pool]
    for choice in itertools.product(*options):
        out = {**sigma, **dict(zip(pool, choice))}
        if verify(g, out).ok:
            return out
    return None


def _shuffled(g, rng):
    """Isomorphic copy of g under random dart and vertex ids."""
    dm = dict(zip(g.darts(), rng.sample(range(3 * len(g.twin)), len(g.twin))))
    vm = dict(zip(g.vertices(),
                  rng.sample(range(3 * len(g.rotation)), len(g.rotation))))
    return PlaneGraph({dm[d]: dm[t] for d, t in g.twin.items()},
                      {dm[d]: vm[v] for d, v in g.vertex_of.items()},
                      {vm[v]: tuple(dm[d] for d in r)
                       for v, r in g.rotation.items()})


def _reduction_tree(g):
    """g and every graph below it in its reduction tree."""
    out, stack = [], [g]
    while stack:
        h = stack.pop()
        out.append(h)
        if exceptional_kind(h) is None and base_case(h) is None:
            stack.extend(c.freeze()
                         for c in step_reduce(P3emKernel(h)).children)
    return out


def _find_loop_reference(g):
    for d in g.darts():
        if g.vertex_of[d] == g.vertex_of[g.twin[d]]:
            return min(d, g.twin[d])
    return None


def _find_parallel_reference(g):
    seen = {}
    for e in g.edges():
        u, v = g.edge_ends(e)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            return (seen[key], e)
        seen[key] = e
    return None


def _find_face_of_len_reference(g, k):
    for f in g.faces():
        if len(f.boundary) == k:
            return f
    return None


def _at_chord_stage(g):
    return (_find_loop_reference(g) is None
            and _find_parallel_reference(g) is None
            and all(len(f.boundary) > 4 for f in g.faces())
            and not _bridges_reference(g))


def test_face_helpers_match_references():
    # random cubic plane graphs never reach the chord stage of a reduction
    # chain, so random relabellings of the girth-5 fixtures stand in for
    # them; every graph of each reduction tree is compared, and the chord
    # scans agree off the chord stage too (smallest edge off a face's
    # boundary with both ends on it)
    rng = random.Random(7)
    roots = [fixtures.chord_fixture(), fixtures.dodecahedron(),
             fixtures.pentagon_wheel(), fixtures.coincident_pentagon_fixture()]
    roots += [_shuffled(g, rng) for g in roots[:2] for _ in range(4)]
    roots += [generate_cubic_plane(n, s) for n in (16, 40) for s in range(3)]
    graphs = [h for g in roots for h in _reduction_tree(g)] + move_closure(8)
    chords = [_find_chord_reference(g) for g in graphs if _at_chord_stage(g)]
    assert any(chords) and not all(chords)
    triangles = 0
    for g in graphs:
        assert P3emKernel(g).smallest_chord() == _find_chord_reference(g)
        if (_find_loop_reference(g) is not None
                or _find_parallel_reference(g) is not None):
            continue
        for f in g.faces():
            if len(f.boundary) != 3:
                continue
            triangles += 1
            corners = _triangle_corners_reference(g, f)
            for r in range(3):
                lab = p3em_cases._rotate_labels(
                    p3em_cases._face_labels(g, f), r)
                assert [{"v": lab.a[i], "edge_next": lab.pe[i],
                         "spoke": lab.spokes[i], "spoke_edge": lab.se[i],
                         "nbr": lab.b[i]} for i in range(3)] == (
                    corners[r:] + corners[:r])
    assert triangles > 50


def test_bridges_match_reference():
    # the facial test (a non-loop edge whose two darts share a face)
    # against the lowpoint DFS
    graphs = move_closure(8)
    graphs += [generate_cubic_plane(n, s) for n in (20, 50, 100, 200)
               for s in range(4)]
    graphs += [_fullerene(levels, 5) for levels in range(3)]
    found = 0
    for g in graphs:
        assert g.bridges() == _bridges_reference(g)
        found += len(g.bridges())
    assert found > 100


def _case_chord_reference(k, outer, chord):
    """The chord step as a search: commit the four cyclic arrangements at
    E' and F' in turn, and keep the first that changes V - E + F by 2 and
    puts eF and fE on triangles."""
    other = p3em_cases._other_darts
    qA, qB = chord, k.twin[chord]
    A, B = k.vertex_of[qA], k.vertex_of[qB]
    boundary2 = set(k.face_boundary(k.face_of(qB)))

    def cyc_split(v, q):
        d1, d2 = other(k, v, (q,))
        if d1 in boundary2 or k.twin[d1] in boundary2:
            return d2, d1
        return d1, d2

    dAC, dAE = cyc_split(A, qA)
    dBD, dBF = cyc_split(B, qB)
    xE, xF = k.twin[dAE], k.twin[dBF]
    Ev = k.vertex_of[xE]
    pool = {chord, k.edge_of(dAE), k.edge_of(dBF)}
    nd = k.fresh_dart()
    eA, eB, eF = nd, nd + 1, nd + 2
    fA, fB, fE = nd + 3, nd + 4, nd + 5
    Ep = max(k.rotation) + 1
    for e_rot in ([eA, eB, eF], [eA, eF, eB]):
        for f_rot in ([fA, fB, fE], [fA, fE, fB]):
            for d1, d2 in ((qA, eA), (qB, eB), (dAE, fA), (dBF, fB),
                           (eF, fE), (xE, xF)):
                k.retwin(d1, d2)
            k.add_vertex(Ep, e_rot)
            k.add_vertex(Ep + 1, f_rot)
            s = k.commit()
            if (s.euler == 2 and len(k.face_boundary(k.face_of(eF))) == 3
                    and len(k.face_boundary(k.face_of(fE))) == 3):
                return p3em_cases._split(k, "chord", pool, s, (A, Ev))
            k.undo(s)
    raise AssertionError("no planar completion for the chord fragment")


def _mirrored(g):
    """g with every rotation reversed: the mirror-image embedding."""
    return PlaneGraph(g.twin, g.vertex_of,
                      {v: r[::-1] for v, r in g.rotation.items()})


def test_chord_fixture_is_pinned():
    # the fixture writes down the rotations at A and B that a search over
    # their four pairs, keeping the first graph whose first step is the
    # chord, used to pick
    text = fixtures.chord_fixture().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9e01a9b1ca78be5eba404e74e525cc7a6840fc4ef0c1494eca1055fa9d322984")


def test_chord_rule_matches_search():
    # the chord step builds one arrangement at E' and F', read off the
    # rotations at A and B; on every chord step of these reduction trees it
    # must build what the search built, under both orientations of the
    # embedding (the mirror images reverse every rotation)
    rng = random.Random(20)
    roots = [fixtures.chord_fixture()]
    roots += [relabel(roots[0], rng) for _ in range(40)]
    roots += [_mirrored(g) for g in roots]
    steps = 0
    for g in roots:
        for h in _reduction_tree(g):
            k = P3emKernel(h)
            step = step_reduce(k)
            if step.label != "chord":
                continue
            steps += 1
            ref_k = P3emKernel(h)
            ref = _case_chord_reference(ref_k, *ref_k.smallest_chord())
            assert ([c.freeze() for c in step.children]
                    == [c.freeze() for c in ref.children])
            Ep = max(h.rotation) + 1
            assert k.rotation[Ep] == ref_k.rotation[Ep]
            assert k.rotation[Ep + 1] == ref_k.rotation[Ep + 1]
            got = step.lift([solve_kernel(c) for c in step.children])
            want = ref.lift([solve_kernel(c) for c in ref.children])
            assert got.sigma == want.sigma
    assert steps > 80


def test_completion_search_matches_references(monkeypatch):
    small = [g for g in move_closure(8) if len(g.edges()) <= 12]
    for g in small:
        assert search_assignment(g) == _search_assignment_reference(g)
    # partial certificates, some broken on a face no pool edge touches
    rng = random.Random(11)
    found = {True: 0, False: 0}
    for g in [fixtures.cube(), fixtures.dodecahedron()] + [
            generate_cubic_plane(12, s) for s in range(4)]:
        sigma = find_p3em(g)
        for _ in range(12):
            pool = rng.sample(g.edges(), rng.randint(1, 8))
            partial = {e: f for e, f in sigma.items() if e not in pool}
            if rng.random() < 0.5:
                e = rng.choice(sorted(partial))
                partial[e] = sum(g.edge_faces(e)) - partial[e]
            out = complete_assignment(g, partial, pool)
            assert out == _first_completion(g, partial, pool)
            found[out is not None] += 1
    assert min(found.values()) > 5
    # the pools of real lifts, against the first choice in product order
    def checked(options, counts):
        touched = {f for opts in options for f in opts}
        want = next((c for c in itertools.product(*options)
                     if all((counts[f] + c.count(f)) % 3 == 0 for f in touched)),
                    None)
        got = place_pool(options, counts)
        assert want == (None if got is None else tuple(got))
        return got

    monkeypatch.setattr(p3em_cases, "place_pool", checked)
    for g in small + [fixtures.chord_fixture(),
                      fixtures.coincident_pentagon_fixture()]:
        if exceptional_kind(g) is None:
            assert verify(g, find_p3em(g)).ok


def _place_pool_reference(options, counts):
    """The leaf-only search: every face count is tested once all options
    are chosen."""
    touched = {fid for opts in options for fid in opts}
    choice = [0] * len(options)

    def rec(i):
        if i == len(options):
            return all(counts[f] % 3 == 0 for f in touched)
        for fid in options[i]:
            counts[fid] += 1
            choice[i] = fid
            if rec(i + 1):
                return True
            counts[fid] -= 1
        return False

    return choice if rec(0) else None


def test_pruned_pool_search_matches_leaf_search(monkeypatch):
    rng = random.Random(16)
    found = {True: 0, False: 0}
    for _ in range(3000):
        faces = rng.randint(1, 7)
        options = [tuple(rng.sample(range(faces), min(faces, rng.randint(1, 2))))
                   for _ in range(rng.randint(0, 9))]
        counts = {f: rng.randrange(6) for f in range(faces)}
        want_counts = dict(counts)
        want = _place_pool_reference(options, want_counts)
        assert place_pool(options, counts) == want
        assert counts == want_counts
        found[want is not None] += 1
    assert min(found.values()) > 300
    # the pools of real lifts
    lifts = []

    def checked(options, counts):
        want_counts = dict(counts)
        want = _place_pool_reference(options, want_counts)
        got = place_pool(options, counts)
        assert got == want and counts == want_counts
        lifts.append(len(options))
        return got

    monkeypatch.setattr(p3em_cases, "place_pool", checked)
    for g in [g for g in move_closure(8) if len(g.edges()) <= 12] + [
            fixtures.chord_fixture(), fixtures.coincident_pentagon_fixture()]:
        if exceptional_kind(g) is None:
            assert verify(g, find_p3em(g)).ok
    assert len(lifts) > 100 and max(lifts) >= 5


# -- the kernel, step by step, against full rebuilds ------------------------

def _frozen_checked(k, heaps=True):
    """k frozen with full validation; its face map and (unless heaps is
    False, as after an undo, which pushes nothing) its short-face heaps
    must equal what the frozen graph computes from scratch."""
    g = k.freeze()
    assert {fid: f.boundary for fid, f in k.face.items()} == {
        f.id: f.boundary for f in g.faces()}
    assert k.face_of_dart == {d: g.face_of(d) for d in g.darts()}
    for n, heap in k._short.items():
        assert not heaps or {f for f in heap if f in k.face
                             and len(k.face[f].boundary) == n} == {
            f.id for f in g.faces() if len(f.boundary) == n}
    return g


def _dart_map_reference(parent, children, assignments, pool):
    """The lift's first half as a scan of every parent edge: an edge whose
    dart pair survives in a child inherits the parent face of its darts on
    the child's face; missing and ambiguous edges join the pool."""
    sigma = {}
    pool = set(pool)
    for e in parent.edges():
        if e in pool:
            continue
        t = parent.twin[e]
        hit = [(c, sub) for c, sub in zip(children, assignments)
               if c.twin.get(e) == t]
        if not hit:
            pool.add(e)
            continue
        child, sub = hit[0]
        pfaces = {parent.face_of(d) for d in (e, t)
                  if child.face_of(d) == sub[e]}
        if len(pfaces) == 1:
            sigma[e] = pfaces.pop()
        else:
            pool.add(e)
    return sigma, pool


def _heap_lengths(k):
    return ([len(h) for h in k._short.values()],
            [len(h) for h in (k._loops, k._pairs, k._bridges, k._chords)])


def _checked_step(reduce, k, labels, ambiguous, fragments):
    """One step with every pick compared to the global scans of the frozen
    graph, every child and every lift checked against full rebuilds and
    against the reference lift: the dart map, the pentagon's own placement
    of its fragment, and the first completion of the rest.  fragments
    receives the fragment edges each lift hands to p3em_cases._remap."""
    g = _frozen_checked(k)
    assert k.smallest_loop() == _find_loop_reference(g)
    assert k.smallest_parallel_pair() == _find_parallel_reference(g)
    for n in (3, 4, 5):
        want = _find_face_of_len_reference(g, n)
        assert k.smallest_face(n) == want
    assert k.smallest_bridge() == min(_bridges_reference(g), default=None)
    assert k.smallest_chord() == _find_chord_reference(g)
    step = reduce(k)
    labels.append(step.label)
    children = [_frozen_checked(child) for child in step.children]
    lift = step.lift

    def checked_lift(certs):
        subs = [dict(c.sigma) for c in certs]
        seen = len(fragments)
        heaps = _heap_lengths(k)
        cert = lift(certs)
        assert _heap_lengths(k) == heaps     # no pick follows an undo
        (fragment,) = fragments[seen:]
        parent = _frozen_checked(k, heaps=False)
        assert parent == g
        assert verify(parent, cert.sigma).ok
        assert cert.counts == verify(parent, cert.sigma).face_counts
        sigma, pool = _dart_map_reference(g, children, subs, fragment)
        if step.label == "pentagon":
            sigma.update((e, cert.sigma[e]) for e in fragment)
            pool -= fragment
        assert cert.sigma == complete_assignment(g, sigma, pool)
        ambiguous.extend(e for e in pool - fragment
                         if any(c.twin.get(e) == g.twin[e] for c in children))
        return cert

    step.lift = checked_lift
    return step


def test_kernel_steps_match_full_rebuilds(monkeypatch):
    rng = random.Random(3)
    roots = [fixtures.chord_fixture(), fixtures.dodecahedron(),
             fixtures.pentagon_wheel(), fixtures.coincident_pentagon_fixture()]
    roots += [_shuffled(g, rng) for g in roots for _ in range(2)]
    # the 400-vertex graph has a square step whose child has a bridge, so
    # an edge of its lift has one child face and two parent faces
    roots += [generate_cubic_plane(n, s) for n in (20, 60, 200) for s in range(3)]
    roots += [generate_cubic_plane(400, 0)]
    # long girth-5 chains of pentagon and square steps; each pentagon step
    # is picked only after the chord pick finds no chord
    roots += [_fullerene(1, 1), _fullerene(2, 2)]
    roots += [g for g in move_closure(8) if exceptional_kind(g) is None]
    labels, ambiguous, fragments = [], [], []
    reduce, remap = p3em_cases.step_reduce, p3em_cases._remap

    def recorded_remap(k, s, pool, cert):
        fragments.append(set(pool))
        return remap(k, s, pool, cert)

    monkeypatch.setattr(p3em_cases, "_remap", recorded_remap)
    monkeypatch.setattr(p3em_cases, "step_reduce",
                        lambda k: _checked_step(reduce, k, labels, ambiguous,
                                                fragments))
    for g in roots:
        assert verify(g, find_p3em(g)).ok
    # the coincidence case, which no reduction chain here reaches
    for g in (fixtures.coincident_pentagon_fixture(),
              _shuffled(fixtures.coincident_pentagon_fixture(), rng)):
        k, step = _coincidence_step(g)
        for child in step.children:
            _frozen_checked(child)
        certs = [solve_kernel(c) for c in step.children]
        heaps = _heap_lengths(k)
        cert = step.lift(certs)
        assert _heap_lengths(k) == heaps
        assert _frozen_checked(k, heaps=False) == g and verify(g, cert.sigma).ok
    assert set(labels) == {"self_loop", "double_edge", "triangle",
                           "triangle_shared", "bridge", "square", "chord",
                           "pentagon"}
    assert ambiguous


def test_kernel_picks_after_retwin_surgery():
    # an edge switch (two retwins, no rotation changed) gives chords to
    # faces that hold none of its four darts but pass its vertices; the
    # kernel re-walks them, since a retwin logs the rotations of its vertices
    far_chords = 0
    for g in (fixtures.cube(), fixtures.dodecahedron()):
        for e1, e2 in itertools.combinations(g.edges(), 2):
            for x2, y2 in ((e2, g.twin[e2]), (g.twin[e2], e2)):
                k = P3emKernel(g)
                assert k.smallest_chord() is None and k.smallest_bridge() is None
                k.retwin(e1, x2)
                k.retwin(g.twin[e1], y2)
                k.commit()
                try:
                    h = k.freeze()
                except GraphError:
                    continue          # the switch crossed itself
                want = _find_chord_reference(h)
                far_chords += bool(want) and not {
                    e1, g.twin[e1], e2, g.twin[e2]} & set(want[0].boundary)
                assert k.smallest_chord() == want
                assert k.smallest_bridge() == min(_bridges_reference(h),
                                                  default=None)
    assert far_chords > 10


def test_kernel_logs_subdivide():
    # subdivide is written with add_vertex and retwin, so the kernel logs
    # it without an override of its own: commit re-walks the two faces of
    # the edge, and undo gives the graph back
    for g in (fixtures.dumbbell(), fixtures.m23(), fixtures.cube(),
              generate_cubic_plane(40, 1)):
        for e in g.edges():
            for dart in (e, g.twin[e]):
                k = P3emKernel(g)
                v, d = max(g.rotation) + 1, k.fresh_dart()
                assert k.subdivide(dart, v, d) == (d, d + 1)
                s = k.commit()
                b = GraphBuilder(g)
                b.subdivide(dart, v, d)
                assert _frozen_checked(k) == b.freeze() and s.euler == 0
                k.undo(s)
                assert _frozen_checked(k) == g


def test_remap_pools_an_edge_from_two_parent_faces(monkeypatch):
    # an edge assigned to a face the step created moves to the parent face
    # its darts on that face came from; when its two darts came from two
    # parent faces, it leaves the certificate for the pool
    remap, ambiguous = p3em_cases._remap, []

    def checked(k, s, pool, cert):
        before = dict(cert.sigma)
        parent_face = {d: f.id for f in s.dead for d in f.boundary}
        out, moved = remap(k, s, pool, cert)
        for e in moved:
            on_face = k.face[before[e]].boundary
            origins = {parent_face[d] for d in (e, k.twin[e]) if d in on_face}
            if len(origins) == 2:
                ambiguous.append(e)
                assert e in out and e not in cert.sigma
            else:
                assert e not in out and {cert.sigma[e]} == origins
        return out, moved

    monkeypatch.setattr(p3em_cases, "_remap", checked)
    for g in [generate_cubic_plane(400, 0)] + [generate_cubic_plane(200, s)
                                              for s in range(3)]:
        assert verify(g, find_p3em(g)).ok
    assert ambiguous


def _orbit_faces(k):
    """The faces of k's rotation system walked from scratch, as k.face
    holds them: id -> boundary from its smallest dart.  No planarity is
    asked, so a commit that a case then undoes is walked too."""
    faces, seen = {}, set()
    for d0 in sorted(k.twin):
        if d0 in seen:
            continue
        orbit, d = [], d0
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            t = k.twin[d]
            rot = k.rotation[k.vertex_of[t]]
            d = rot[(rot.index(t) + 1) % len(rot)]
        faces[d0] = tuple(orbit)
    return faces


def _gaining_chord_steps():
    """Hand-built steps that keep a face's dart cycle and give it a chord:
    (graph, the face, the surgery on a P3emKernel of the graph).  An edge
    switch joins the spokes at corners 0 and 1 of a dodecahedron pentagon
    into an edge parallel to the face's edge a0-a1; a contraction merges
    the spoke end that corners i and i + 2 of a pentagon of the
    coincidence fixture share into corner i."""
    from planar_holant.p3em_cases import _face_labels, _find_b_coincidence
    out = []
    g = fixtures.dodecahedron()
    f = next(f for f in g.faces() if len(f.boundary) == 5)
    lab = _face_labels(g, f)

    def switch(k, s0=lab.spokes[0], s1=lab.spokes[1]):
        t0, t1 = k.twin[s0], k.twin[s1]
        k.retwin(s0, s1)
        k.retwin(t0, t1)
    out.append((g, f, switch))
    g = fixtures.coincident_pentagon_fixture()
    for f in g.faces():
        lab = _face_labels(g, f) if len(f.boundary) == 5 else None
        if lab and all(b not in lab.a for b in lab.b) and _find_b_coincidence(lab) is not None:
            i = _find_b_coincidence(lab)
            out.append((g, f, lambda k, s=lab.spokes[i], a=lab.a[i]:
                        k.contract_edge(s, new_vertex=a)))
    return out


def test_commit_keeps_a_face_that_gains_a_chord():
    steps = _gaining_chord_steps()
    assert len(steps) >= 2

    def has_chord(h, f):
        on = {h.vertex_of[d] for d in f.boundary}
        return any(u in on and w in on and not {e, h.twin[e]} & set(f.boundary)
                   for e in h.edges() for u, w in [h.edge_ends(e)])

    for g, f, surgery in steps:
        k = P3emKernel(g)
        assert not has_chord(g, f)
        assert k.smallest_chord() == _find_chord_reference(g)
        surgery(k)
        s = k.commit()
        assert f.id not in {x.id for x in s.dead} and f.id not in s.created
        assert k.face[f.id] is f
        h = k.freeze()
        assert has_chord(h, f)
        assert k.smallest_chord() == _find_chord_reference(h)


def test_commit_change_sets_are_exact(monkeypatch):
    # every commit of the P3EM steps and of the generators' moves: no face
    # the step destroyed comes back unchanged, and the face map is the one
    # a walk from scratch gives; most commits keep a face through a vertex
    # they touched
    commit = FaceKernel.commit
    counts = {"commits": 0, "kept": 0}

    def checked_commit(k):
        s = commit(k)
        assert not {k.face[f] for f in s.created} & set(s.dead)
        want = _orbit_faces(k)
        assert {fid: f.boundary for fid, f in k.face.items()} == want
        assert k.face_of_dart == {d: fid for fid, b in want.items() for d in b}
        counts["commits"] += 1
        counts["kept"] += any(k.face_of_dart[d] not in s.created
                              for v in s.old_rot for d in k.rotation.get(v, ()))
        return s

    monkeypatch.setattr(FaceKernel, "commit", checked_commit)
    graphs = [getattr(fixtures, name)() for name in (
        "k4", "m23", "dumbbell", "cube", "prism", "base_b", "base_c", "base_d",
        "base_e", "base_g", "base_h", "pentagon_wheel", "dodecahedron",
        "bridge_fixture", "chord_fixture", "coincident_pentagon_fixture")]
    graphs += [generate_cubic_plane(n, s) for n in (4, 10, 20, 60, 200)
               for s in range(3)]
    graphs += move_closure(8)
    for g in graphs:
        res = find_p3em(g)
        assert isinstance(res, ExceptionalGraph) or verify(g, res).ok
    assert counts["commits"] > 1000 and counts["kept"] > counts["commits"] // 2


def test_commit_bounds_a_face_walk_that_cycles():
    # a stale ccw successor at a vertex the step did not log makes the
    # walk of a face it re-walks circle without meeting its seed; commit
    # raises once the walk is longer than the graph has darts
    g = fixtures.cube()
    e = g.edges()[0]
    u, w = g.edge_ends(e)
    dead = sorted({g.face_of(e), g.face_of(g.twin[e])})
    merged = [d for fid in dead for d in g.face_boundary(fid)
              if d not in (e, g.twin[e])]
    # commit walks from merged[0] first; x is a later dart of that walk
    # whose twin sits at a vertex the step does not log
    x = next(d for d in merged[1:] if g.vertex_of[g.twin[d]] not in (u, w))
    k = P3emKernel(g)
    k.delete_edge(e)
    k.ccw_next[g.twin[x]] = x     # the walk reaches x and stays there
    with pytest.raises(GraphError, match="did not close"):
        k.commit()
