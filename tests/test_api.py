import ast
import inspect
from pathlib import Path

import nclp
from nclp import selfcheck

# Each module imports only from the layers below its own.
LAYERS = [
    {"matcore"},
    {"cpmap"},
    {"embed"},
    {"normest", "qubitfamily", "tensor"},
    {"cli", "selfcheck"},
    {"__init__", "__main__"},
]
# cli imports selfcheck inside the verify command only.
DEFERRED = {("cli", "selfcheck")}


def test_all_names_resolve_once():
    assert len(nclp.__all__) == len(set(nclp.__all__))
    missing = [name for name in nclp.__all__ if not hasattr(nclp, name)]
    assert missing == []


# The public surface: adding or dropping a name edits this list, and
# CHANGES.md says which name and why.
PUBLIC_NAMES = [
    "CompatibilityReport",
    "EmbeddedMap",
    "NormEstimate",
    "QubitWitness",
    "Source",
    "State",
    "Status",
    "SuperOperator",
    "Thresholds",
    "alpha",
    "alpha1",
    "build_embedded",
    "classify_region",
    "compatibility",
    "dual_element",
    "estimate_norm",
    "exact_norm_p2",
    "family_max",
    "family_witness",
    "find_counterexample",
    "is_completely_positive",
    "kron_state",
    "kron_superop",
    "qubit_map",
    "qubit_state",
    "schatten_norm",
    "theta_thresholds",
    "upper_bound",
]


def test_public_names_are_the_pinned_list():
    assert sorted(nclp.__all__) == PUBLIC_NAMES


def test_every_check_is_registered_once():
    # each check reports under one name of its own, read from its source so
    # that no check has to run
    names = []
    for fn in selfcheck.ALL_CHECKS:
        own = {
            node.args[0].value
            for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
        }
        assert len(own) == 1, (fn.__name__, own)
        names.extend(own)
    assert len(names) == len(set(names))


def _package_imports(tree: ast.AST):
    """The nclp modules that a module's source imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("nclp"):
                continue
            parts = (node.module or "").split(".")[1 - node.level:]
            if parts and parts[0]:
                yield parts[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("nclp."):
                    yield alias.name.split(".")[1]


def test_modules_import_only_lower_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    sources = sorted(Path(nclp.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} == set(rank)
    upward = [
        (path.stem, target)
        for path in sources
        for target in _package_imports(ast.parse(path.read_text()))
        if rank[target] >= rank[path.stem] and (path.stem, target) not in DEFERRED
    ]
    assert upward == []
