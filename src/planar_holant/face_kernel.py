"""A mutable rotation system that keeps its faces up to date locally.

FaceKernel is the one graph-surgery kernel: a GraphBuilder whose steps
re-walk only the faces whose dart cycle they change and can be undone
exactly.  It keeps the face map and nothing else.  Two subclasses add
what their users read:

* P3emKernel, here, keeps the candidate heaps from which the matching
  construction (see p3em_cases) picks its reduction steps; its part()
  cuts every kernel of a component out of a graph or a kernel;
* generators.GrowthKernel keeps the sorted lists and id counters from
  which the expansion moves draw.

So neither pays for the other's upkeep.  The kernel lives apart from
plane_graph, whose GraphBuilder the one-off constructions (matchgate
decorations, materialize, the grid conversions) use with a single full
freeze() of the graph they return.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .plane_graph import (DartMissingFromRotation, Face, GraphBuilder,
                          GraphError, NonInvolutionTwin, PlaneGraph)


@dataclass
class Surgery:
    """One committed step of a FaceKernel: enough to undo it."""
    old_dart: Dict[int, Tuple[Optional[int], Optional[int]]]  # (twin, vertex) before
    old_rot: Dict[int, Optional[Tuple[int, ...]]]             # rotation before
    dead: List[Face]        # faces of the graph before the step that it destroyed
    created: List[int]      # ids of the faces the step created
    euler: int              # change of V - E + F


class FaceKernel(GraphBuilder):
    """A GraphBuilder that keeps its faces through local surgery.

    Every mutation logs the old twin and vertex of each dart and the old
    rotation of each vertex it touches.  commit() ends a step: it checks
    twin involution and rotation membership on the logged darts, re-walks
    the faces whose dart cycle changed and returns a Surgery; undo()
    restores the graph and faces of before the step.  Faces carry the ids
    and boundaries PlaneGraph.faces() gives them.

    A dart's face successor is the ccw successor (ccw_next, copied from
    the graph's and kept for every dart) of its twin, so it changes only
    when its twin changes or its twin's ccw successor does.  commit reads
    each logged rotation once, into a map from its darts to their ccw
    successors now, which checks it and then updates ccw_next.  It marks
    a logged dart whose twin changed, and the old twin of each dart of a
    logged old rotation that the map lacks or gives another ccw successor.
    The old faces of the marked darts die; every other face keeps its Face
    object and id, also through a logged vertex.  The new faces are walked
    on ccw_next, and a walk that does not close within as many steps as
    there are darts raises; undo puts back the successors of the rotations
    it restores.
    """

    def __init__(self, g: PlaneGraph):
        super().__init__(g)
        self._start(g.faces(), dict(g.ccw_next))

    def _start(self, faces: Iterable[Face], ccw_next: Dict[int, int]) -> None:
        self.face: Dict[int, Face] = {}
        self.face_of_dart: Dict[int, int] = {}
        self.face_of = self.face_of_dart.__getitem__   # a dart's face id
        self._old_dart: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self._old_rot: Dict[int, Optional[Tuple[int, ...]]] = {}
        self.ccw_next = ccw_next    # dart -> next dart ccw at its vertex
        for f in faces:
            self._add_face(f)

    # -- queries, as on PlaneGraph ----------------------------------------

    vertices = PlaneGraph.vertices
    edge_of = PlaneGraph.edge_of
    edge_ends = PlaneGraph.edge_ends
    edge_faces = PlaneGraph.edge_faces

    def faces(self) -> List[Face]:
        return [self.face[f] for f in sorted(self.face)]

    def face_boundary(self, fid: int) -> Tuple[int, ...]:
        return self.face[fid].boundary

    def _add_face(self, f: Face) -> None:
        self.face[f.id] = f
        for d in f.boundary:
            self.face_of_dart[d] = f.id

    def _drop_face(self, fid: int) -> Face:
        f = self.face.pop(fid)
        for d in f.boundary:
            del self.face_of_dart[d]
        return f

    # -- logged surgery -----------------------------------------------------

    def _save(self, darts: Iterable[Optional[int]], verts: Iterable[int] = ()) -> None:
        for d in darts:
            if d is not None and d not in self._old_dart:
                self._old_dart[d] = (self.twin.get(d), self.vertex_of.get(d))
        for v in verts:
            if v not in self._old_rot:
                r = self.rotation.get(v)
                self._old_rot[v] = None if r is None else tuple(r)

    def add_vertex(self, v: int, darts: Sequence[int]) -> None:
        self._save(darts, (v,))
        super().add_vertex(v, darts)

    def retwin(self, d1: int, d2: int) -> None:
        darts = (d1, d2, self.twin.get(d1), self.twin.get(d2))
        self._save(darts, {self.vertex_of[d] for d in darts if d in self.vertex_of})
        super().retwin(d1, d2)

    def remove_vertex(self, v: int) -> None:
        self._save([x for d in self.rotation[v] for x in (d, self.twin.get(d))], (v,))
        super().remove_vertex(v)

    def drop_dart(self, d: int) -> None:
        self._save((d, self.twin.get(d)), (self.vertex_of[d],))
        super().drop_dart(d)

    def contract_edge(self, e_dart: int, new_vertex: int) -> int:
        u, w = self.vertex_of[e_dart], self.vertex_of[self.twin[e_dart]]
        self._save(self.rotation[u] + self.rotation[w], (u, w, new_vertex))
        return super().contract_edge(e_dart, new_vertex)

    def commit(self) -> Surgery:
        """Close the logged step: check it, re-walk its faces, report it."""
        old_dart, old_rot = self._old_dart, self._old_rot
        self._old_dart, self._old_rot = {}, {}
        twin, vertex_of, rotation = self.twin, self.vertex_of, self.rotation
        succ = {}           # dart at a logged vertex -> its ccw successor now
        dv = dd = 0         # changes of V and of the number of darts
        for v, r in old_rot.items():
            now = rotation.get(v, ())
            dv += (v in rotation) - (r is not None)
            for i, d in enumerate(now):
                if d in succ or vertex_of.get(d) != v:
                    raise DartMissingFromRotation(f"rotation of vertex {v}")
                succ[d] = now[i + 1 - len(now)]
        marked = set()      # darts of the old graph whose face successor changed
        for v, r in old_rot.items():
            if r and tuple(rotation.get(v, ())) != r:
                for i, t in enumerate(r):   # t's old ccw successor is r[i + 1]
                    if succ.get(t) != r[i + 1 - len(r)]:
                        marked.add(old_dart[t][0] if t in old_dart else twin[t])
        for d, (t, _) in old_dart.items():
            now = twin.get(d)
            dd += (now is not None) - (t is not None)
            if t is not None and now != t:
                marked.add(d)
            if now is None:
                if d in vertex_of:
                    raise DartMissingFromRotation(f"dart {d} has no twin")
            elif now == d or twin.get(now) != d:
                raise NonInvolutionTwin(f"dart {d}")
            elif d not in succ and d not in rotation.get(vertex_of.get(d), ()):
                raise DartMissingFromRotation(f"dart {d} at vertex {vertex_of.get(d)}")
        dead = [self._drop_face(f)
                for f in sorted({self.face_of_dart[d] for d in marked})]
        seeds = [d for f in dead for d in f.boundary if d in twin]
        seeds += [d for d, (t, _) in old_dart.items() if t is None and d in twin]
        ccw_next = self.ccw_next
        ccw_next.update(succ)
        created = []
        face_of_dart = self.face_of_dart
        steps = range(len(twin))    # no face has more darts
        for d0 in seeds:
            if d0 in face_of_dart:
                continue
            orbit = [d0]
            d = d0
            for _ in steps:
                d = ccw_next[twin[d]]   # next_dart(d)
                if d == d0:
                    break
                if d in face_of_dart:
                    raise GraphError(f"face walk from dart {d0} ran into "
                                     f"face {face_of_dart[d]}, which the step kept")
                orbit.append(d)
            else:
                raise GraphError(f"face walk from dart {d0} did not close "
                                 f"in {len(twin)} steps")
            i = orbit.index(min(orbit))
            f = Face(orbit[i], tuple(orbit[i:] + orbit[:i]))
            self._add_face(f)
            created.append(f.id)
        return Surgery(old_dart, old_rot, dead, created,
                       dv - dd // 2 + len(created) - len(dead))

    def undo(self, s: Surgery) -> None:
        """Put back the graph and faces of before the committed step s; the
        kernel must hold what s left.  A subclass's _add_face is not run."""
        for fid in s.created:
            self._drop_face(fid)
        for f in s.dead:
            FaceKernel._add_face(self, f)
        for d, (t, v) in s.old_dart.items():
            if t is None:
                self.twin.pop(d, None)
                self.vertex_of.pop(d, None)
            else:
                self.twin[d] = t
                self.vertex_of[d] = v
        ccw_next = self.ccw_next
        for v, r in s.old_rot.items():
            if r is None:
                self.rotation.pop(v, None)
            else:       # a rotation before a step is never empty
                self.rotation[v] = list(r)
                prev = r[-1]
                for d in r:
                    ccw_next[prev] = d
                    prev = d


class P3emKernel(FaceKernel):
    """A FaceKernel that also keeps the candidates of the matching
    construction's reduction steps.

    Loops, parallel pairs, bridges, faces of length 3, 4 and 5 and faces
    with a chord are kept as heaps of candidates that are checked when
    picked, so each pick is the smallest a full scan would find.  commit
    pushes the candidates at the touched vertices and faces; undo pushes
    nothing, since no pick is made on a kernel after an undo.  A face
    that a step keeps keeps its bridges (non-loop edges whose two darts it
    holds), so the created faces hold every new bridge.  It can gain a
    chord (an edge off its boundary with both ends on it), when a vertex
    on it merges or a dart at one of its vertices is retwinned; so commit
    also pushes, once each, the kept faces with a dart at a logged vertex.
    """

    def _start(self, faces: Iterable[Face], ccw_next: Dict[int, int]) -> None:
        self._short: Dict[int, List[int]] = {3: [], 4: [], 5: []}
        self._loops: List[int] = []
        self._pairs: List[Tuple[int, int]] = []
        self._bridges: List[int] = []    # edges with both darts on one face
        self._chords: List[int] = []     # ids of faces that may have a chord
        super()._start(faces, ccw_next)
        self._push_bridges(self.face)
        self._scan(self.rotation)

    @staticmethod
    def part(src, vertices: Iterable[int]) -> "P3emKernel":
        """A kernel of its own for the union of components of src (a
        PlaneGraph or a FaceKernel) on vertices, with src's ccw successors
        and faces copied; a vertex set that a twin leaves raises."""
        k = P3emKernel.__new__(P3emKernel)
        GraphBuilder.__init__(k)
        for v in sorted(vertices):
            k.rotation[v] = list(src.rotation[v])
            for d in src.rotation[v]:
                k.twin[d] = src.twin[d]
                k.vertex_of[d] = v
        if k.twin.keys() != set(k.twin.values()):
            raise NonInvolutionTwin("a twin leaves the part")
        fids = sorted({src.face_of(d) for d in k.twin})
        k._start([Face(f, src.face_boundary(f)) for f in fids],
                 {d: src.ccw_next[d] for d in k.twin})
        return k

    def commit(self) -> Surgery:
        s = super().commit()
        self._push_bridges(s.created)
        kept = {self.face_of_dart[d] for v in s.old_rot
                for d in self.rotation.get(v, ())}
        for fid in kept.difference(s.created):
            heapq.heappush(self._chords, fid)
        self._scan(s.old_rot)   # a step that commits left no logged dart elsewhere
        return s

    # -- detection: the smallest of each kind, as a full scan finds it -------

    def smallest_loop(self) -> Optional[int]:
        while self._loops:
            e = self._loops[0]
            t = self.twin.get(e)
            if t is not None and e < t and self.vertex_of[e] == self.vertex_of[t]:
                return e
            heapq.heappop(self._loops)
        return None

    def smallest_parallel_pair(self) -> Optional[Tuple[int, int]]:
        """The pair (e1, e2) of the two smallest edges joining two vertices,
        over the vertex pairs, the one with the smallest e2."""
        while self._pairs:
            e2, e1 = self._pairs[0]
            if (e1 in self.twin and e1 < self.twin[e1]
                    and self._parallel_at(self.vertex_of[e1],
                                          self.vertex_of[self.twin[e1]])[:2] == [e1, e2]):
                return e1, e2
            heapq.heappop(self._pairs)
        return None

    def smallest_bridge(self) -> Optional[int]:
        """The smallest non-loop edge whose two darts lie on one face."""
        while self._bridges:
            e = self._bridges[0]
            t = self.twin.get(e)
            if (t is not None and e < t and self.vertex_of[e] != self.vertex_of[t]
                    and self.face_of_dart[e] == self.face_of_dart[t]):
                return e
            heapq.heappop(self._bridges)
        return None

    def smallest_chord(self) -> Optional[Tuple[Face, int]]:
        """(face, smallest chord) for the smallest face with a chord, an
        edge off its boundary with both ends on it."""
        while self._chords:
            f = self.face.get(self._chords[0])
            if f is not None:
                twin, vertex_of = self.twin, self.vertex_of
                on_cycle = {vertex_of[d] for d in f.boundary}
                cyc = {*f.boundary, *(twin[d] for d in f.boundary)}
                chords = [min(d, twin[d]) for v in on_cycle for d in self.rotation[v]
                          if d not in cyc and vertex_of[twin[d]] in on_cycle]
                if chords:
                    return f, min(chords)
            heapq.heappop(self._chords)
        return None

    def smallest_face(self, length: int) -> Optional[Face]:
        heap = self._short[length]
        while heap:
            f = self.face.get(heap[0])
            if f is not None and len(f.boundary) == length:
                return f
            heapq.heappop(heap)
        return None

    def _parallel_at(self, v: int, w: int) -> List[int]:
        """Sorted ids of the edges from v to a different vertex w."""
        if v == w:
            return []
        return sorted(self.edge_of(d) for d in self.rotation[v]
                      if self.vertex_of[self.twin[d]] == w)

    def _scan(self, vertices: Iterable[int]) -> None:
        for v in vertices:
            rot = self.rotation.get(v)
            if rot is None:
                continue
            far = [self.vertex_of[self.twin[d]] for d in rot]
            for d, w in zip(rot, far):
                if w == v:
                    heapq.heappush(self._loops, self.edge_of(d))
                elif far.count(w) > 1:
                    es = self._parallel_at(v, w)
                    heapq.heappush(self._pairs, (es[1], es[0]))

    def _add_face(self, f: Face) -> None:
        # the base's two lines, written out: a super() call on every face
        # a step creates costs P3EM about 1.5%
        self.face[f.id] = f
        for d in f.boundary:
            self.face_of_dart[d] = f.id
        heapq.heappush(self._chords, f.id)
        if len(f.boundary) in self._short:
            heapq.heappush(self._short[len(f.boundary)], f.id)

    def _push_bridges(self, fids: Iterable[int]) -> None:
        """Push the edges whose two darts lie on one of the faces fids."""
        twin, face_of_dart = self.twin, self.face_of_dart
        for fid in fids:
            for d in self.face[fid].boundary:
                if d < twin[d] and face_of_dart[twin[d]] == fid:
                    heapq.heappush(self._bridges, d)
