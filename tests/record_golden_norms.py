"""Record the golden lower bounds of ``tests/golden_norms.json``.

Each case is a seeded ``(T, Gamma, p, theta)``: T is a random Kraus CP map,
a random unital CP map or a non-CP Ginibre action on M_n, Gamma a random
faithful state, and the recorded value is ``estimate_norm(U, p).value`` of
the embedded action at the default ``restarts`` and ``seed``.  The file is a
floor for every later estimator: ``tests/test_golden.py`` requires each
value to stay at least the recorded one.  Never re-record it to make a case
pass.

    PYTHONPATH=src python tests/record_golden_norms.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from nclp.cpmap import SuperOperator
from nclp.embed import build_embedded
from nclp.normest import estimate_norm
from nclp.selfcheck import _ginibre, _random_cp_map, _random_state, _random_unital_cp_map

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_norms.json")
GOLDEN_SEED = 20260401
DIMS = (2, 3, 4, 5, 6, 7, 8)
KINDS = ("cp", "unital_cp", "non_cp")
PS = (1.0, 1.25, 1.5, 2.0, 3.0)
THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
CASES = 60


def _random_map(rng, n: int, kind: str) -> SuperOperator:
    if kind == "non_cp":
        return SuperOperator(_ginibre(rng, n * n) / n)
    if kind == "unital_cp":
        return _random_unital_cp_map(rng, n)
    return _random_cp_map(rng, n)


def embedded_action(case: dict) -> SuperOperator:
    """The weighted action U of one case, rebuilt from its index and kind."""
    rng = np.random.default_rng([GOLDEN_SEED, case["index"]])
    n = case["n"]
    t = _random_map(rng, n, case["kind"])
    return build_embedded(t, _random_state(rng, n), case["p"], case["theta"]).u_action


def case_list() -> list[dict]:
    # i mod 7, 3 and 5 pick n, kind and p, so the 60 cases hold 60 distinct
    # (n, kind, p) triples; (i // 3) mod 5 pairs every kind with every theta.
    return [
        {
            "index": i,
            "n": DIMS[i % len(DIMS)],
            "kind": KINDS[i % len(KINDS)],
            "p": PS[i % len(PS)],
            "theta": THETAS[(i // len(KINDS)) % len(THETAS)],
        }
        for i in range(CASES)
    ]


def main() -> None:
    cases = case_list()
    for case in cases:
        case["value"] = estimate_norm(embedded_action(case), case["p"]).value
    GOLDEN_PATH.write_text(json.dumps({"seed": GOLDEN_SEED, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
