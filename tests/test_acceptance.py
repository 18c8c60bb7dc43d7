"""End-to-end acceptance gate.

Each test runs one named check from nvdeer.selftest and prints its
pass/fail line, so ``pytest tests/test_acceptance.py -s`` mirrors the
table printed by ``nvdeer selftest``.  Every check also carries a
runtime ceiling; the heavy numeric checks get minutes, the formula
chains get a second.
"""

import pytest

from nvdeer import selftest

EXPECTED_ORDER = (
    "sigma",
    "photophysics",
    "detection-limit",
    "diffusion",
    "eseem",
    "spectrum-agreement",
    "rabi-oracle",
    "round-trip",
    "properties",
)

BUDGET_S = {
    "sigma": 1.0,
    "photophysics": 5.0,
    "detection-limit": 1.0,
    "diffusion": 1.0,
    "eseem": 1.0,
    "spectrum-agreement": 30.0,
    "rabi-oracle": 5.0,
    "round-trip": 5.0,
    "properties": 120.0,
}


def test_suite_is_complete():
    assert tuple(n for n, _ in selftest.ALL_CHECKS) == EXPECTED_ORDER


@pytest.mark.parametrize("name,check", selftest.ALL_CHECKS,
                         ids=[n for n, _ in selftest.ALL_CHECKS])
def test_acceptance(name, check):
    res = check()
    print(res.line())
    assert res.passed, res.line()
    assert res.runtime_s < BUDGET_S[name], (
        f"{name} took {res.runtime_s:.1f} s, budget {BUDGET_S[name]:.0f} s")
