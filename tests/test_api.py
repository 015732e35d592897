import ast
import inspect

import nclp
from nclp import selfcheck


def test_all_names_resolve_once():
    assert len(nclp.__all__) == len(set(nclp.__all__))
    missing = [name for name in nclp.__all__ if not hasattr(nclp, name)]
    assert missing == []


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
