"""Module layering of the package, read from the source with ``ast``; nothing is imported."""
import ast
import graphlib
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "swapnet"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
FACTORING = {"Factorization", "_passes_miller_rabin", "_rho_split", "_check_prime",
             "TRIAL_LIMIT", "MR_BASES", "MR_LIMIT", "RHO_STEPS"}
OUTPUT = {"print", "json.dumps", "sys.stdout"}
RENDERERS = {"to_dict", "describe", "scan_csv"}


def _module_level(tree):
    """The nodes that run when the module is imported: all but function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def _imports(tree, walk=ast.walk):
    """(package modules, other top-level modules) that one module imports, at any depth."""
    own, other = set(), set()
    for node in walk(tree):
        if isinstance(node, ast.Import):
            targets = [(a.name, ()) for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # the package imports itself relatively
            module = ("swapnet." if node.level else "") + (node.module or "")
            targets = [(module.rstrip("."), node.names)]
        else:
            continue
        for module, names in targets:
            parts = module.split(".")
            if parts[0] != "swapnet":
                other.add(parts[0])
            elif len(parts) > 1:
                own.add(parts[1])
            else:  # "from . import ring" names modules
                own.update(a.name for a in names)
    return own, other


def _defined(tree):
    """Names that one module defines, at any depth: functions, classes and assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _output_routes(tree):
    """Which of print, json.dumps and sys.stdout one module names, imported by name or not."""
    routes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            routes.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            routes.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "sys"):
            routes.update(f"{node.module}.{a.name}" for a in node.names)
    return routes & OUTPUT


def _imported_names(tree):
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names}


def test_every_module_is_parsed():
    assert {"factor", "seqcore", "cycles", "network", "ring", "errors"} <= set(TREES)


def test_import_graph_is_acyclic():
    graph = {name: _imports(tree)[0] for name, tree in TREES.items()}
    for name, deps in graph.items():
        assert deps <= set(TREES), (name, deps - set(TREES))
    # raises CycleError naming the cycle
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("factor") < order.index("seqcore") < order.index("cycles")


def test_factor_imports_only_errors_and_the_standard_library():
    own, other = _imports(TREES["factor"])
    assert own == {"errors"}
    assert other <= set(sys.stdlib_module_names), other - set(sys.stdlib_module_names)


def test_only_factor_defines_factoring():
    assert FACTORING <= _defined(TREES["factor"])
    for name, tree in TREES.items():
        if name != "factor":
            assert not FACTORING & _defined(tree), (name, FACTORING & _defined(tree))


def test_only_errors_defines_the_integer_rule():
    # one function decides what counts as an integer argument; a second copy would drift from it
    assert "_check_int" in _defined(TREES["errors"])
    for name, tree in TREES.items():
        assert "_check_order" not in _defined(tree), name
        if name != "errors":
            assert "_check_int" not in _defined(tree), name


def test_only_cli_formats_output():
    # the library returns data; each verb's text, CSV and JSON are written next to it in cli
    assert {"print", "json.dumps"} <= _output_routes(TREES["cli"])
    for name, tree in TREES.items():
        if name != "cli":
            assert not _output_routes(tree), (name, _output_routes(tree))
        assert not RENDERERS & _defined(tree), (name, RENDERERS & _defined(tree))


def test_seqcore_holds_no_factoring():
    # seqcore checks primes through factor._check_prime and re-exports nothing else of it
    assert not (FACTORING - {"_check_prime"}) & _imported_names(TREES["seqcore"])


def test_cycles_and_seqcore_import_factor_directly():
    for name in ("cycles", "seqcore"):
        assert "factor" in _imports(TREES[name])[0], name
    assert "factor" not in _imports(TREES["network"])[0]  # the cycle report names the kind


def test_light_modules_load_neither_numpy_nor_a_process_pool():
    # an import inside a function body waits for its call, so only module-level ones count
    graph = {name: _imports(tree, _module_level) for name, tree in TREES.items()}
    for root in ("__init__", "cli", "seqcore", "factor", "errors"):
        reached, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(graph[name][0])
        other = set().union(*(graph[name][1] for name in reached))
        assert not {"numpy", "concurrent"} & other, (root, sorted(reached))


def test_no_module_imports_concurrent_or_multiprocessing():
    # at any depth, function bodies included: scan runs every dimension in this process
    for name, tree in TREES.items():
        assert not {"concurrent", "multiprocessing"} & _imports(tree)[1], name


def test_no_assert_in_the_package():
    # python -O strips assert statements; every check in the package must raise instead
    asserts = [(name, node.lineno) for name, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []
