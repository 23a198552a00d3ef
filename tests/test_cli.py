import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import pytest


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "planar_holant", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return json.loads(proc.stdout) if proc.stdout.strip() else {}


def cli_input_error(*args, env=None):
    """Run a command that must end in exit 2 without a traceback; return
    its stderr."""
    proc = subprocess.run([sys.executable, "-m", "planar_holant", *args],
                          capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


def write_grid(tmp_path, nodes, edges):
    spec = {"nodes": [{"id": i, "side": side,
                       "slots": [{"side": s} for s in slots], "symmetric": sym}
                      for i, side, slots, sym in nodes],
            "edges": edges}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    return str(path)


def data_path(name):
    return str(resources.files("planar_holant").joinpath("data", name))


def test_classify_case5():
    out = run_cli("classify", "--sig", "[1,0,-1,2]")
    assert out["planar"] == "FP" and out["case"] == 5
    assert out["a"] == "1/2" and out["b"] == "-1/2"


def test_classify_hard_exit_code():
    out = run_cli("classify", "--sig", "[0,1,0,0]", expect=3)
    assert out["planar"] == "#P-hard"


def test_eval_running_example():
    out = run_cli("eval", data_path("cover_example_grid.json"))
    assert out["value"] == "9"


def test_solve_running_example():
    out = run_cli("solve", data_path("cover_example_grid.json"))
    assert out["value"] == "9"


def test_pm_running_example_graph():
    out = run_cli("pm", data_path("cover_example_graph.json"))
    assert out["value"] == "9"


def test_p3em_find_k4_exception():
    out = run_cli("p3em", "find", data_path("k4.json"))
    assert out["exception"] == ["K4"]


def test_p3em_roundtrip(tmp_path):
    out = run_cli("p3em", "find", data_path("cover_example_graph.json"))
    assert "assignment" in out
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(out))
    chk = run_cli("p3em", "verify", data_path("cover_example_graph.json"), str(path))
    assert chk["ok"]
    mat = run_cli("p3em", "materialize", data_path("cover_example_graph.json"), str(path))
    assert len(mat["graph"]["vertices"]) == 8 + 12 + 4


def test_p3em_on_the_empty_graph(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": [], "darts": []}))
    assign = tmp_path / "a.json"
    assign.write_text(json.dumps({"assignment": {}}))
    assert run_cli("p3em", "find", str(graph))["assignment"] == {}
    assert run_cli("p3em", "verify", str(graph), str(assign))["ok"]
    mat = run_cli("p3em", "materialize", str(graph), str(assign))
    assert mat["graph"] == {"vertices": [], "darts": []}


def test_graph_validate_and_faces():
    out = run_cli("graph", "validate", data_path("cover_example_graph.json"))
    assert out["valid"] and out["faces"] == 6
    out = run_cli("graph", "faces", data_path("m23.json"))
    assert len(out["faces"]) == 3


def test_graph_gen_requires_seed():
    run_cli("graph", "gen", "--n", "6", expect=2)


def test_graph_gen_roundtrip(tmp_path):
    out = run_cli("graph", "gen", "--n", "8", "--bipartite", "--seed", "5")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(out["graph"]))
    chk = run_cli("graph", "validate", str(path))
    assert chk["valid"] and chk["vertices"] == 8


def test_gadget_verbs():
    out = run_cli("gadget", "g2", "--sig", "[1,-1,0,2]")
    assert out["matrix"] == [["1", "1"], ["-1", "4"]]
    out = run_cli("gadget", "g4", "--sig", "[1,2,1,2]")
    assert out["z"] == "3/2"
    out = run_cli("gadget", "nonlin", "--sig", "[1,2,3,5]", "--unary", "7")
    assert out["signature"] == ["70", "19"]


@pytest.mark.parametrize("kind, sig", [
    ("g1", "[1,2]"), ("g2", "[1,2]"), ("g3", "[1,2]"), ("nonlin", "[1,2]"),
    ("g4", "[1,2]"), ("g1", "[1,2,3,4,5]")])
def test_gadget_wants_a_ternary_signature(kind, sig):
    err = cli_input_error("gadget", kind, "--sig", sig)
    assert err == "error: ternary signature expected\n"


def test_reduce_gadget_p():
    out = run_cli("reduce", "gadget-p")
    assert out["support_ok"] and out["uniqueness_ok"]


def test_json_parse_emit_fixed_point():
    out = run_cli("graph", "gen", "--n", "6", "--seed", "3")
    text1 = json.dumps(out["graph"], sort_keys=True)
    # re-parse through the library and emit again
    from planar_holant.plane_graph import build
    g = build(out["graph"])
    text2 = json.dumps(g.to_json_dict(), sort_keys=True)
    assert text1 == text2


def test_reduce_planarize_and_interpolate(tmp_path):
    # K33-style grid over [1,2,1,2] with one listed crossing
    from planar_holant.holant_core import GridNode, SignatureGrid
    from planar_holant.signatures import EQ3, SymSignature
    f = SymSignature([1, 2, 1, 2])
    nodes = {}
    for i in range(3):
        nodes[i] = GridNode(i, "left", ("L",) * 3, sym=f)
        nodes[3 + i] = GridNode(3 + i, "right", ("R",) * 3, sym=EQ3)
    edges = [(i, j, 3 + j, i) for i in range(3) for j in range(3)]
    grid = SignatureGrid(nodes, edges, [])
    gpath = tmp_path / "grid.json"
    gpath.write_text(grid.to_json())
    cpath = tmp_path / "cross.json"
    cpath.write_text(json.dumps([{"edge_a": 2, "edge_b": 3}]))
    out = run_cli("reduce", "planarize", str(gpath), "--crossings", str(cpath))
    ppath = tmp_path / "planar.json"
    ppath.write_text(json.dumps(out["grid"]))
    val = run_cli("eval", str(ppath))
    direct = run_cli("eval", str(gpath))
    assert val["value"] == direct["value"] == "36"
    run_out = run_cli("reduce", "interpolate", str(ppath), "--sig", "[1,2,1,2]")
    assert run_out["recovered"] == "36"


def test_reduce_absorb(tmp_path):
    from planar_holant.fixtures import dumbbell
    from planar_holant.plane_graph import incidence_grid
    from planar_holant.signatures import (EQ3, StraddledMatrix, SymSignature,
                                          connect_unary, eigen2)
    from planar_holant.scalars import format_scalar
    f = SymSignature([1, 1, 2, 1])
    e = eigen2(StraddledMatrix([[1, 2], [1, 1]]))
    fb = connect_unary(f, SymSignature([1, e.x]))
    grid = incidence_grid(dumbbell(), fb, EQ3)
    gpath = tmp_path / "inc.json"
    gpath.write_text(grid.to_json())

    def arg(v):
        enc = format_scalar(v)
        return enc if isinstance(enc, str) else json.dumps(enc)

    out = run_cli("reduce", "absorb", str(gpath), "--sig", "[1,1,2,1]",
                  "--x", arg(e.x), "--y", arg(e.y))
    assert "factor" in out and "grid" in out


def test_solve_force_case():
    out = run_cli("solve", data_path("cover_example_grid.json"),
                  "--force-case", "5")
    assert out["value"] == "9"


@pytest.mark.parametrize("command", [["solve"], ["solve", "--force-case", "5"],
                                     ["eval"]])
@pytest.mark.parametrize("order", [None, [0, 1, 7]],
                         ids=["node_missing", "slot_past_arity"])
def test_bad_embedding_is_an_input_error(tmp_path, command, order):
    # the solvers build their plane graph from the embedding, so it must
    # list every node, and each node's slots exactly once
    with open(data_path("cover_example_grid.json")) as fh:
        spec = json.load(fh)
    if order is None:
        del spec["embedding"]["0"]
    else:
        spec["embedding"]["0"] = order
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    err = cli_input_error(command[0], str(path), *command[1:])
    assert "embedding" in err


def test_non_planar_embedding_is_an_input_error(tmp_path):
    # an embedding of the right shape whose rotation system is not plane:
    # the cube with node 0's slot order reversed
    from planar_holant.fixtures import cube
    from planar_holant.plane_graph import (grid_from_cubic_bipartite,
                                           incidence_grid)
    from planar_holant.signatures import (EQ3, StraddledMatrix, SymSignature,
                                          connect_unary, eigen2)
    from planar_holant.scalars import format_scalar
    grid = grid_from_cubic_bipartite(cube(), SymSignature([1, 2, 2, 1]))
    grid.embedding[0] = (0, 2, 1)
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    for args in (["solve"], ["solve", "--force-case", "4"]):
        # named by grid nodes, not by vertices of the decorated graph
        err = cli_input_error(args[0], str(path), *args[1:])
        assert "component [0, 1, 2, 3]...: V-E+F = 8-12+4 != 2" in err
    f = SymSignature([1, 1, 2, 1])
    e = eigen2(StraddledMatrix([[1, 2], [1, 1]]))
    grid = incidence_grid(cube(), connect_unary(f, SymSignature([1, e.x])), EQ3)
    grid.embedding[0] = (0, 2, 1)
    path.write_text(grid.to_json())

    def arg(v):
        enc = format_scalar(v)
        return enc if isinstance(enc, str) else json.dumps(enc)

    assert "V-E+F" in cli_input_error("reduce", "absorb", str(path), "--sig",
                                      "[1,1,2,1]", "--x", arg(e.x),
                                      "--y", arg(e.y))


def test_values_over_the_digit_cap_print_and_parse(tmp_path, capsys):
    # the degenerate grid [1,t]^(x)3 with t = 10^20 on 100 right nodes has
    # value (1 + 10^60)^100, 6,001 digits: past Python's default int <-> str
    # cap of 4,300, which the CLI lifts while a verb runs
    from math import comb
    from planar_holant import cli
    from planar_holant.generators import generate_cubic_bipartite_plane
    from planar_holant.plane_graph import grid_from_cubic_bipartite
    from planar_holant.signatures import SymSignature
    t = 10 ** 20
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(200, 1),
                                     SymSignature([1, t, t ** 2, t ** 3]))
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    # C(100, k) < 10^60, so the binomial terms' digits do not overlap
    want = "1" + "".join(str(comb(100, k)).zfill(60) for k in range(99, -1, -1))
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for verb in ("solve", "eval"):
        assert cli.main([verb, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == want
    assert cli.main(["classify", "--sig", json.dumps([want, 0, 0, 1])]) == 0
    params = json.loads(capsys.readouterr().out)["cases"][0]["params"]
    assert params["a"] == want
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_running_example_demo_prints_nine():
    # the demo reaches eval_collapsed, solve_case5 and count_pm from a
    # script, outside the package
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "running_example_demo.py")],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": src if not path else src + os.pathsep + path})
    assert proc.returncode == 0, proc.stderr
    values = [line.split(":", 1)[1].strip()
              for line in proc.stdout.splitlines()[1:]]
    assert values == ["9"] * 4


def test_eval_rejects_slot_facing_the_wrong_side(tmp_path):
    # two right =2 nodes chained through an L-facing slot: evaluated
    # anyway, the eq-eq edge would drop one equality (6 instead of 3)
    path = write_grid(tmp_path,
                      [(0, "left", "L", ["1", "1"]),
                       (1, "right", "RL", ["1", "0", "1"]),
                       (2, "right", "RL", ["1", "0", "1"]),
                       (3, "left", "R", ["1", "2"])],
                      [[0, 0, 1, 0], [1, 1, 2, 0], [2, 1, 3, 0]])
    assert "right node 1 has a L-facing slot" in cli_input_error("eval", path)


def test_eval_rejects_edge_to_unknown_node(tmp_path):
    path = write_grid(tmp_path, [(0, "left", "L", ["1", "1"]),
                                 (1, "right", "R", ["1", "1"])],
                      [[0, 0, 99, 0]])
    assert "no slot (99, 0)" in cli_input_error("eval", path)


def test_eval_rejects_slot_past_arity(tmp_path):
    path = write_grid(tmp_path, [(0, "left", "L", ["1", "1"]),
                                 (1, "right", "R", ["1", "1"])],
                      [[0, 0, 1, 1]])
    assert "no slot (1, 1)" in cli_input_error("eval", path)


def test_eval_rejects_non_integer_cap():
    err = cli_input_error("eval", data_path("cover_example_grid.json"),
                          env={"HOLANT_MAX_EDGES": "lots"})
    assert "HOLANT_MAX_EDGES" in err


def test_eval_rejects_signature_arity_mismatch(tmp_path):
    # a unary signature on a node with two slots
    path = write_grid(tmp_path, [(0, "left", "LL", ["1", "2"]),
                                 (1, "right", "RR", ["1", "0", "1"])],
                      [[0, 0, 1, 0], [0, 1, 1, 1]])
    assert "signature arity mismatch" in cli_input_error("eval", path)


def write_cubic_grid(tmp_path, sig):
    from planar_holant.generators import generate_cubic_bipartite_plane
    from planar_holant.plane_graph import grid_from_cubic_bipartite
    from planar_holant.signatures import SymSignature
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(8, 1),
                                     SymSignature(sig))
    path = tmp_path / "cubic.json"
    path.write_text(grid.to_json())
    return str(path)


def test_solve_hard_signature_is_an_input_error(tmp_path):
    path = write_cubic_grid(tmp_path, [0, 1, 0, 0])
    assert "#P-hard" in cli_input_error("solve", path)


@pytest.mark.parametrize("sig", ["[1,1,1,1]", "[2,0,0,3]", "[1,0,1,0]",
                                 "[3,1,1,3]", "[1,0,-1,2]"])
def test_solve_rejects_dangling_slots(tmp_path, sig):
    # one signature per tractable case, on the cube with one edge cut
    from planar_holant import fixtures
    from planar_holant.plane_graph import grid_from_cubic_bipartite
    from planar_holant.signatures import SymSignature
    grid = grid_from_cubic_bipartite(fixtures.cube(),
                                     SymSignature(json.loads(sig)))
    na, sa, nb, sb = grid.edges.pop()
    grid.dangling.extend([(na, sa), (nb, sb)])
    path = tmp_path / "cut.json"
    path.write_text(grid.to_json())
    assert "grid has dangling slots" in cli_input_error("solve", str(path))


@pytest.mark.parametrize("breakage", ["orientation", "decoration"])
def test_solver_invariant_failure_exits_4(tmp_path, monkeypatch, capsys, breakage):
    from planar_holant import cli, solvers
    from planar_holant.signatures import SymSignature
    if breakage == "orientation":
        monkeypatch.setattr(solvers.KasteleynOrientation, "verify",
                            lambda self: False)
        argv = ["pm", data_path("cover_example_graph.json")]
        message = "Kasteleyn verification failed"
    else:
        monkeypatch.setattr(solvers, "pm_fragment_signature",
                            lambda kind, w=1: SymSignature([0, 0, 0, 0]))
        argv = ["solve", write_cubic_grid(tmp_path, [3, 1, 1, 3])]
        message = "decoration even realizes"
    assert cli.main(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: " + message)
    assert err.count("\n") == 1


def test_p3em_construction_failure_exits_4(monkeypatch, capsys):
    from planar_holant import cli, p3em_cases
    reduce = p3em_cases.step_reduce

    def broken(k):
        step = reduce(k)
        step.lift = lambda subs: p3em_cases.Certificate({}, {})
        return step

    monkeypatch.setattr(p3em_cases, "step_reduce", broken)
    argv = ["p3em", "find", data_path("cover_example_graph.json")]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: square: lift failed verify: "
                          "DomainViolation: 0 of 9 edges assigned")
    assert err.count("\n") == 1


def test_p3em_bad_assignment_is_an_input_error(tmp_path):
    graph = data_path("cover_example_graph.json")
    out = run_cli("p3em", "find", graph)
    out["assignment"].pop(min(out["assignment"]))
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(out))
    chk = run_cli("p3em", "verify", graph, str(path), expect=2)
    assert not chk["ok"] and "DomainViolation" in chk["reason"]
    assert "DomainViolation" in cli_input_error("p3em", "materialize", graph,
                                                str(path))


BAD_GRAPHS = {
    "not_an_object": [1, 2],
    "no_darts": {"x": 1},
    "darts_not_a_list": {"darts": 3, "vertices": []},
    "dart_field_missing": {"darts": [{"id": 0, "twin": 1}], "vertices": []},
    "dart_id_not_an_integer": {"darts": [{"id": [0], "twin": 1, "vertex": 0}],
                               "vertices": []},
    "rotation_not_a_list": {"darts": [{"id": 0, "twin": 1, "vertex": 0},
                                      {"id": 1, "twin": 0, "vertex": 0}],
                            "vertices": [{"id": 0, "rotation": 5}]},
}
LOOP_DARTS = [{"id": 0, "twin": 1, "vertex": 0}, {"id": 1, "twin": 0, "vertex": 0}]
LOOP_VERTEX = [{"id": 0, "rotation": [0, 1]}]
DART_MESSAGE = ("error: each record of 'darts' must be an object with integer "
                "fields id, twin, vertex: ")
VERTEX_MESSAGE = ("error: each record of 'vertices' must be an object with an "
                  "integer id and a list rotation of dart ids: ")
# shape -> (graph JSON, stderr); a boolean is not an integer
BAD_GRAPH_RECORDS = {
    "dart_id_a_boolean": (
        {"darts": [{"id": True, "twin": 1, "vertex": 0}, LOOP_DARTS[1]],
         "vertices": LOOP_VERTEX},
        DART_MESSAGE + "{'id': True, 'twin': 1, 'vertex': 0}"),
    "dart_twin_a_boolean": (
        {"darts": [{"id": 0, "twin": True, "vertex": 0}, LOOP_DARTS[1]],
         "vertices": LOOP_VERTEX},
        DART_MESSAGE + "{'id': 0, 'twin': True, 'vertex': 0}"),
    "dart_vertex_a_boolean": (
        {"darts": [{"id": 0, "twin": 1, "vertex": False}, LOOP_DARTS[1]],
         "vertices": LOOP_VERTEX},
        DART_MESSAGE + "{'id': 0, 'twin': 1, 'vertex': False}"),
    "float_in_rotation": (
        {"darts": LOOP_DARTS, "vertices": [{"id": 0, "rotation": [0, 1.0]}]},
        VERTEX_MESSAGE + "{'id': 0, 'rotation': [0, 1.0]}"),
    "nested_list_in_rotation": (
        {"darts": LOOP_DARTS, "vertices": [{"id": 0, "rotation": [0, [1]]}]},
        VERTEX_MESSAGE + "{'id': 0, 'rotation': [0, [1]]}"),
}
BAD_GRAPHS.update({k: spec for k, (spec, _) in BAD_GRAPH_RECORDS.items()})


@pytest.mark.parametrize("verb", ["graph validate", "p3em find", "p3em verify"])
@pytest.mark.parametrize("shape", sorted(BAD_GRAPHS))
def test_malformed_graph_json_is_an_input_error(tmp_path, capsys, verb, shape):
    from planar_holant import cli
    path = tmp_path / "g.json"
    path.write_text(json.dumps(BAD_GRAPHS[shape]))
    argv = verb.split() + [str(path)]
    if verb == "p3em verify":
        argv.append(data_path("cover_example_graph.json"))
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verb", ["graph validate", "p3em find"])
@pytest.mark.parametrize("shape", sorted(BAD_GRAPH_RECORDS))
def test_malformed_graph_record_is_named(tmp_path, capsys, verb, shape):
    from planar_holant import cli
    spec, message = BAD_GRAPH_RECORDS[shape]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    assert cli.main(verb.split() + [str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == message + "\n"


# sha256 of `p3em find` stdout on generate_cubic_plane(n, seed)
P3EM_FIND_DIGESTS = {
    (200, 0): "c8b99d8086a5917c9bf6eeb8e8d893fb7f9ad67eff7a781991e5518ecf69fb73",
    (200, 1): "6e296f0e9f4f818317e64f49bf709f453fcb5e32b071bba55d077e198f738bb3",
    (800, 0): "c9f9669e7593c6a3d9547775050d807858570bea2c65b0faaaaa0452bfe98c74",
    (800, 1): "cd029bcfaaabaefd43f143dbef06416f998f2a7be1f0382bd55805c87a49eb79",
}


@pytest.mark.parametrize("n, seed", sorted(P3EM_FIND_DIGESTS))
def test_p3em_find_output_pinned(tmp_path, capsys, n, seed):
    from planar_holant import cli
    from planar_holant.generators import generate_cubic_plane
    path = tmp_path / "g.json"
    path.write_text(generate_cubic_plane(n, seed).to_json())
    assert cli.main(["p3em", "find", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == P3EM_FIND_DIGESTS[n, seed]


BAD_ASSIGNMENTS = {
    "no_assignment": {"x": 1},
    "assignment_not_an_object": {"assignment": [1, 2]},
    "face_not_an_integer": {"assignment": {"0": [1]}},
    "face_null": {"assignment": {"0": None}},
}


@pytest.mark.parametrize("verb", ["verify", "materialize"])
@pytest.mark.parametrize("shape", sorted(BAD_ASSIGNMENTS))
def test_malformed_assignment_json_is_an_input_error(tmp_path, capsys, verb,
                                                     shape):
    from planar_holant import cli
    path = tmp_path / "a.json"
    path.write_text(json.dumps(BAD_ASSIGNMENTS[shape]))
    argv = ["p3em", verb, data_path("cover_example_graph.json"), str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: assignment file needs")


@pytest.mark.parametrize("sig, message", [
    ('[{"a":1},0,0,1]', "needs the keys a, b and d"),
    ('[true,0,0,1]', "cannot be a boolean"),
    ('[{"a":"0","b":"1","d":"-3"},2,2,2]', "sqrt(-3)"),
    ('[{"a":"0","b":"1","d":"3/2"},0,0,1]', "integer d"),
])
def test_malformed_scalar_is_an_input_error(sig, message):
    assert message in cli_input_error("classify", "--sig", sig)


def test_object_scalar_in_options_and_grid_json(tmp_path):
    assert "needs the keys" in cli_input_error(
        "reduce", "absorb", data_path("cover_example_grid.json"),
        "--sig", "[1,1,2,1]", "--x", '{"a":3}', "--y", "-1")
    out = run_cli("gadget", "nonlin", "--sig", "[1,2,3,5]",
                  "--unary", '{"a":"5","b":"1","d":"4"}')
    assert out["signature"] == ["70", "19"]     # 5 + sqrt(4) = 7
    with open(data_path("cover_example_grid.json")) as fh:
        spec = json.load(fh)
    spec["nodes"][0]["symmetric"][0] = {"a": 0}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    assert "needs the keys" in cli_input_error("eval", str(path))


def test_object_scalar_radicand_is_made_square_free():
    # sqrt(4) = 2, so this is [2,2,2,2]: degenerate, case 1
    out = run_cli("classify", "--sig", '[{"a":"0","b":"1","d":"4"},2,2,2]')
    assert out["planar"] == "FP" and out["cases"][0]["case"] == 1
    out = run_cli("classify", "--sig", '[{"a":"0","b":"1","d":"12"},0,0,1]')
    assert out["cases"][0]["params"]["a"] == {"a": "0", "b": "2", "d": "3"}


BAD_GRIDS = {
    "no_nodes": {"edges": []},
    "node_without_slots": {"nodes": [{"id": 0, "side": "left",
                                      "symmetric": ["1", "0", "0", "1"]}],
                           "edges": []},
    "not_an_object": [1, 2],
}


@pytest.mark.parametrize("verb", ["eval", "solve", "reduce planarize",
                                  "reduce interpolate", "reduce absorb"])
@pytest.mark.parametrize("shape", sorted(BAD_GRIDS))
def test_malformed_grid_json_is_an_input_error(tmp_path, capsys, verb, shape):
    from planar_holant import cli
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(BAD_GRIDS[shape]))
    crossings = tmp_path / "crossings.json"
    crossings.write_text("[]")
    argv = verb.split() + [str(path), "--crossings", str(crossings),
                           "--sig", "[1,1,2,1]", "--x", "3", "--y", "-1"]
    if verb in ("eval", "solve"):
        argv = argv[:2]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: grid JSON needs") or \
        err.startswith("error: each record of 'nodes'")
    assert err.count("\n") == 1
