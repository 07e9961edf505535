"""Static checks over the library source."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import aqpath

PROCESS_MODULES = {"multiprocessing", "subprocess", "concurrent"}


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_library_starts_no_process():
    sources = sorted(Path(aqpath.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        for name in imported_modules(path):
            assert name.split(".")[0] not in PROCESS_MODULES, (path.name, name)


# modules that cost a cold start several milliseconds and that the library
# has no use for: dataclasses pulls in inspect, ast, dis and tokenize
COLD_START_MODULES = {"dataclasses", "inspect"}

# run in a fresh interpreter: import the checkout's library and its command
# line, and print every module the imports added
COLD_START_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import aqpath, aqpath.cli
print(aqpath.__file__)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_no_library_module_imports_dataclasses():
    for path in sorted(Path(aqpath.__file__).parent.glob("*.py")):
        for name in imported_modules(path):
            assert name.split(".")[0] != "dataclasses", (path.name, name)


def test_a_cold_import_loads_no_dataclasses_or_inspect():
    src = Path(aqpath.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-I", "-c", COLD_START_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    origin, added = proc.stdout.splitlines()
    assert Path(origin).parent == Path(aqpath.__file__).parent
    added = set(added.split())
    assert {"aqpath", "aqpath.cli"} <= added
    assert added.isdisjoint(COLD_START_MODULES), added & COLD_START_MODULES


def listed_views(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "vertices"]


def parse_module(name: str):
    path = Path(aqpath.__file__).parent / name
    return ast.parse(path.read_text(encoding="utf-8"))


def test_the_packing_search_lists_no_view():
    # the packing engine reads only the region its searches explore, so
    # no call there may list a view's vertices
    assert listed_views(parse_module("packing.py")) == []


def imported_names(tree, module: str):
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module in (module, f"aqpath.{module}")
            for alias in node.names]


def test_the_constructor_runs_no_whole_cube_search():
    # every triple is built by its dispatch case or raises, so the
    # constructor needs nothing from the oracle or the packing search
    # (within the package, only the cube, the flows and the verifier) and
    # lists no view
    tree = parse_module("construct.py")
    assert {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level} == {"cube", "flow", "verify"}
    assert listed_views(tree) == []


def test_the_constructor_reads_one_view_kind_and_fails_one_way():
    # the cases route on the cube's own sub-cube views, passing what a
    # route must avoid as blocked vertices, and a case that cannot be
    # built raises the flows' ``Insufficient``, so construct wraps one
    # signal and needs no view class and no exception of its own but the
    # error it raises
    tree = parse_module("construct.py")
    assert sorted(imported_names(tree, "cube")) == ["AugmentedCube", "ResourceGuard",
                                                    "check_triple"]
    module = importlib.import_module("aqpath.construct")
    assert [name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__] == ["ConstructionError"]


def test_one_cube_per_construct_call_and_its_views_from_the_cube_module():
    # every level and sub-cube a case reads is a prefix view of the cube
    # ``construct`` builds, taken by the views' own decomposition methods
    assert calls_by_function(parse_module("construct.py"), "AugmentedCube") == ["construct"]
    assert {path.name for path in Path(aqpath.__file__).parent.glob("*.py")
            if calls_by_function(parse_module(path.name), "PrefixView")} == {"cube.py"}


def test_the_packing_engine_takes_symmetry_from_the_cube_alone():
    # ``cube.symmetries`` alone decides which views have symmetries and
    # leaves out the identity, so the packing search needs nothing else
    # from the cube than the maps it applies, the triple check every
    # entry point shares and the distance tables the flows share too
    tree = parse_module("packing.py")
    assert sorted(imported_names(tree, "cube")) == ["check_triple", "map_vertex",
                                                     "sink_distances", "symmetries"]


def test_every_public_name_of_the_cube_has_a_reader():
    # a name ``AugmentedCube`` defines that neither the library (outside the
    # class) nor the benchmark reads is one only tests read: it goes
    perfbench = Path(__file__).parent.parent / "perfbench"
    sources = [*Path(aqpath.__file__).parent.glob("*.py"), *perfbench.glob("*.py")]
    assert len(sources) > len(list(perfbench.glob("*.py"))) > 0
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    cube, = (node for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "AugmentedCube")
    defined = {node.name for node in cube.body if isinstance(node, ast.FunctionDef)}
    defined |= {node.attr for node in ast.walk(cube)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    public = {name for name in defined if not name.startswith("_")}
    inside = {id(node) for node in ast.walk(cube)}  # the trees keep every id live
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside}
    assert {"bits", "words", "mask_words", "mask_label"} <= public
    assert public <= read, public - read


def test_the_cube_alone_owns_the_distance_tables_and_the_triple_check():
    # ``cube.sink_distances`` is the one reader of a view's tables, and
    # ``cube.check_triple`` the one check of a terminal triple: a second
    # copy of either elsewhere would drift
    for path in Path(aqpath.__file__).parent.glob("*.py"):
        tree = parse_module(path.name)
        touched = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "to_sink"]
        assert path.name == "cube.py" or not touched, (path.name, touched)
    for name in ("construct.py", "oracle.py", "packing.py"):
        assert calls_by_function(parse_module(name), "check_triple"), name


def test_the_referee_imports_no_library_module():
    # the referee asks only the view (``is_walk``, ``is_adjacent``), never a
    # cube or flow helper, so it stays independent of what it referees
    tree = parse_module("verify.py")
    assert not any(isinstance(node, ast.ImportFrom) and node.level
                   for node in ast.walk(tree))
    assert all(name.split(".")[0] != "aqpath" for name in imported_modules(
        Path(aqpath.__file__).parent / "verify.py"))


def test_the_referee_accepts_a_family_in_one_place():
    # each check of ``check_family`` decides once, so the union count is
    # its only accept; a second ``return None`` would be a second verdict
    # path that a bug could hide behind
    [fn] = [node for node in ast.walk(parse_module("verify.py"))
            if isinstance(node, ast.FunctionDef) and node.name == "check_family"]
    accepts = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Return)
               and (node.value is None or (isinstance(node.value, ast.Constant)
                                           and node.value.value is None))]
    assert len(accepts) == 1, accepts


def calls_by_function(tree, name, keep=lambda call: True):
    """The qualified names of the functions that call ``name``, counting
    only the calls ``keep`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)
                    ) and keep(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_router_the_repair_and_the_packer_build_a_net():
    # every path system walks before it flows (``flow.route``); a net built
    # anywhere else would be a second bundle, fan or pair router
    built = {(path.name, fn) for path in Path(aqpath.__file__).parent.glob("*.py")
             for fn in calls_by_function(parse_module(path.name), "UnitFlowNet")}
    assert built == {("flow.py", "route"), ("flow.py", "UnitFlowNet.amended"),
                     ("packing.py", "_saturate")}


def test_only_the_router_and_the_relaxations_seed_a_net():
    # ``route`` seeds its walks and ``packing._saturate`` its direct edges
    # and wedges; every other flow starts from the source
    seeded = {(path.name, fn) for path in Path(aqpath.__file__).parent.glob("*.py")
              for fn in calls_by_function(parse_module(path.name), "seed")}
    assert seeded == {("flow.py", "route"), ("packing.py", "_saturate")}


def stored_attributes(tree, cls, owners=("self", "net")):
    """The attribute names the class ``cls`` stores on ``owners``."""
    node, = (node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == cls)
    return {child.attr for child in ast.walk(node)
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store)
            and isinstance(child.value, ast.Name) and child.value.id in owners}


def test_the_search_engines_keep_no_second_copy_of_their_state():
    # a flow net's aim is the first sink in ``_live`` and its distance
    # table that sink's shared one, and the packing search's blocked set is
    # the root's (the terminals and the presolve's wedges) and its
    # commitments: a stored copy of either would have to be kept in step
    # by hand
    assert stored_attributes(parse_module("flow.py"), "UnitFlowNet") == {
        "view", "sources", "sinks", "blocked", "cap", "_pending", "_live"}
    assert "blocked" not in stored_attributes(parse_module("packing.py"), "_PackSearch")


def test_each_packing_node_is_decided_by_its_leaf_alone():
    # a repair only blocks more vertices, and the search caches the leaf's
    # verdicts and spare sets and nothing of a relaxation asking the
    # segments still owed besides
    flow = importlib.import_module("aqpath.flow")
    assert list(inspect.signature(flow.UnitFlowNet.amended).parameters) == [
        "self", "blocked"]
    assert stored_attributes(parse_module("packing.py"), "_PackSearch") == {
        "view", "budget", "branch", "leaf", "chosen", "leaf_found", "fixed",
        "leaf_ok", "avoid", "trip", "maps"}


def test_the_presolve_keys_its_pairs_by_index_and_the_maps_wait_for_a_segment():
    # the presolve reads each pair as 0 = x-y, 1 = y-z, 2 = x-z, with no
    # frozenset built per call, and a search lists the maps fixing the
    # terminals only when it first checks a segment: a pair or a wedge,
    # and any search that lists no segment, never asks for them
    tree = parse_module("packing.py")
    presolve, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_presolve")
    assert not calls_by_function(presolve, "frozenset")
    assert calls_by_function(tree, "symmetries") == ["_PackSearch.dominated"]


def test_the_packer_runs_one_sequence_after_the_presolve():
    # every call the presolve leaves open goes through the orientation
    # relaxations (``_classify``) and the branch-and-bound, whose split of
    # a zero count is a pair's or a wedge's one leaf flow; a leaf flow run
    # by ``pack_segments`` itself, or by a new helper it calls, would be a
    # second path around them
    tree = parse_module("packing.py")
    for helper in ("_saturate", "_split_for_search"):
        assert "pack_segments" not in calls_by_function(tree, helper), helper
    assert calls_by_function(tree, "_saturate") == [
        "_classify", "_PackSearch.rec", "_PackSearch.rec", "_PackSearch.rec"]


LADDER_BUILDERS = ["_even_pair_sibling_mated", "_even_pair_sibling_generic",
                   "_even_cross_half", "_odd_cross_half"]


def test_the_ladder_cases_share_one_assembler():
    # ``construct._ladder`` builds the backbones, z's fan and the rungs of
    # every ladder, so a builder that asks for either itself holds a second
    # copy of the recipe
    tree = parse_module("construct.py")
    assert sorted(calls_by_function(tree, "_ladder")) == sorted(LADDER_BUILDERS)
    for helper in ("_backbones", "_fan_map"):
        assert not set(calls_by_function(tree, helper)) & set(LADDER_BUILDERS), helper


def test_the_constructor_asks_the_flow_layer_for_bundles_fans_and_routed_pairs():
    # a fourth name would be a second way to the same paths
    imported = {alias.name for node in ast.walk(parse_module("construct.py"))
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "flow" for alias in node.names}
    assert imported == {"Insufficient", "disjoint_paths", "fan", "route"}


def test_every_prescribed_pair_is_routed_as_given():
    # E1.1, E1.2, E2.2 and O1 route their pairs through one router, and no
    # case lets a flow pick its pairing
    assert set(calls_by_function(parse_module("construct.py"), "_route_pairs")) == {
        "_even_one_quadrant_mated", "_even_one_quadrant_generic",
        "_even_pair_sibling_generic", "_odd_same_half"}


def test_only_the_vertex_check_and_the_referee_test_for_a_bool():
    # ``cube.check_vertices`` is the one vertex check of every entry point;
    # the referee keeps its own, so a second copy elsewhere would drift
    def of_bool(call):
        return any(isinstance(node, ast.Name) and node.id == "bool"
                   for node in ast.walk(call.args[1]))

    found = {(path.name, fn) for path in Path(aqpath.__file__).parent.glob("*.py")
             for fn in calls_by_function(parse_module(path.name), "isinstance", of_bool)}
    assert {(name, fn) for name, fn in found if name != "verify.py"} == {
        ("cube.py", "check_vertices")}


# the gate needs an interpreter with pytest and nothing else
TEST_IMPORT_ROOTS = set(sys.stdlib_module_names) | {"pytest", "aqpath"}


def test_the_tests_import_only_the_standard_library_pytest_and_aqpath():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(tests) >= 10
    for path in tests:
        for name in imported_modules(path):
            assert name.split(".")[0] in TEST_IMPORT_ROOTS, (path.name, name)


def test_every_exported_name_resolves_once():
    assert len(aqpath.__all__) == len(set(aqpath.__all__))
    for name in aqpath.__all__:
        assert hasattr(aqpath, name), name


# the names the benchmark's span tracer (perfbench/tracer.py) wraps where
# callers look them up, by module
TRACED_NAMES = {
    "aqpath.construct": ("construct", "disjoint_paths", "fan", "check_family"),
    "aqpath.oracle": ("max_dpaths", "pack_segments"),
}


def test_the_traced_boundaries_stay_bound():
    for module, names in TRACED_NAMES.items():
        owner = importlib.import_module(module)
        for name in names:
            assert callable(getattr(owner, name, None)), f"{module}.{name}"
    flow = importlib.import_module("aqpath.flow")
    assert callable(getattr(flow.UnitFlowNet, "max_flow", None))


def test_the_packing_budget_stays_the_fourth_parameter():
    # the tracer reads a packing's ticks from its ``budget`` keyword or its
    # fourth positional argument; anywhere else it would count 0 ticks
    packing = importlib.import_module("aqpath.packing")
    params = list(inspect.signature(packing.pack_segments).parameters)
    assert params[3:] == ["budget"]


def test_the_report_sweeps_every_criterion_once_in_order():
    # ``run_all`` names each ``criterion_<k>`` the module defines, k = 1..N
    # with no gap, so a removed or renumbered one cannot drop out unseen
    tree = parse_module("report.py")
    defined = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("criterion_")]
    run_all, = (node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "run_all")
    swept = [node.id for node in ast.walk(run_all)
             if isinstance(node, ast.Name) and node.id.startswith("criterion_")]
    want = [f"criterion_{k}" for k in range(1, len(defined) + 1)]
    assert sorted(defined) == sorted(want)
    assert swept == want
