import json

import pytest

from nclp.matcore import schatten_norm
from nclp.normest import estimate_norm
from record_golden_norms import GOLDEN_PATH, embedded_action

CASES = json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['index']}-n{c['n']}-{c['kind']}")
def test_lower_bound_stays_above_golden(case):
    # a higher value is still a certified bound; a lower one is a regression
    u, p = embedded_action(case), case["p"]
    est = estimate_norm(u, p)
    assert est.value >= case["value"] * (1.0 - 1e-12)
    assert abs(schatten_norm(est.witness, p) - 1.0) <= 1e-12
    assert abs(schatten_norm(u(est.witness), p) - est.value) <= 1e-12 * est.value
