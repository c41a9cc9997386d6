"""Acceptance gate: one test per shipped criterion, at the pinned tolerances.

Each test prints the underlying check rows, so a failure report carries
the measured numbers, and then asserts that every row passed.  The
tolerances live in the acceptance module itself; these tests do not
loosen or restate them.
"""

import time

import pytest

from phasenu import acceptance, nu


def run_criterion(name):
    start = time.perf_counter()
    rows = acceptance.CRITERIA[name]()
    elapsed = time.perf_counter() - start
    assert rows, f"criterion {name} produced no rows"
    for row in rows:
        assert row.criterion == name
        status = "PASS" if row.passed else "FAIL"
        print(f"{status}  {row.criterion}  {row.detail}  [{row.measure}]")
    print(f"({name}: {len(rows)} rows in {elapsed:.2f} s)")
    return rows


def assert_all_passed(rows):
    failed = [r for r in rows if not r.passed]
    assert not failed, "; ".join(f"{r.detail} -> {r.measure}" for r in failed)


def test_deep_branch_spectrum():
    assert_all_passed(run_criterion("deep-branch-spectrum"))


def test_configuration_limit():
    """Shallow-branch spectrum against both the closed form and the grid oracle.

    The L=0 comparison on the stated default grid was once a known red
    row: a hard wall at r = 1e-3 shifted every level by about
    (u'(0))^2 * 1e-3 / 2, 4e-3 relative, which no grid spacing could
    reduce.  The oracle now puts its inner wall at the origin, where
    u = r*R vanishes, and extrapolates over two spacings, so the row
    passes at the unchanged r_max, point count and tolerance.  The
    criterion reports the measured gap either way.
    """
    assert_all_passed(run_criterion("configuration-limit"))


def test_ground_state_chain():
    assert_all_passed(run_criterion("ground-state-chain"))


def test_residual_detector():
    assert_all_passed(run_criterion("residual-detector"))


def test_rodrigues_laguerre():
    assert_all_passed(run_criterion("rodrigues-laguerre"))


def test_transform_algebra():
    assert_all_passed(run_criterion("transform-algebra"))


def test_manifold_invariants():
    assert_all_passed(run_criterion("manifold-invariants"))


def test_recovery_rule(monkeypatch):
    """The rule reads beta and gamma off each point, so it solves nothing."""
    calls = []
    monkeypatch.setattr(nu, "solve_state", lambda *args: calls.append(args))
    assert_all_passed(run_criterion("recovery-rule"))
    assert calls == []


def test_registry_and_suites_are_consistent():
    assert set(acceptance.SUITES["all"]) == set(acceptance.CRITERIA)
    for suite, names in acceptance.SUITES.items():
        for name in names:
            assert name in acceptance.CRITERIA, (suite, name)
    with pytest.raises(ValueError):
        acceptance.run_suite("everything")
