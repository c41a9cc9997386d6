"""Acceptance gate: one test per shipped criterion, at the pinned tolerances.

Each test prints the underlying check rows, so a failure report carries
the measured numbers, and then asserts that every row passed.  The
tolerances live in the acceptance module itself; these tests do not
loosen or restate them.
"""

import random
import time

import pytest

from phasenu import acceptance, nu, opspace


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
    reduce.  The oracle now solves for w in u = r^(L+1) w, so u vanishes
    at the origin exactly, on cells graded toward it, and extrapolates
    over N and N/2 cells, so the row passes at the unchanged tolerance
    on `oracle.DEFAULT_GRID`.  The criterion reports the measured gap
    either way.
    """
    assert_all_passed(run_criterion("configuration-limit"))


def test_ground_state_chain():
    assert_all_passed(run_criterion("ground-state-chain"))


def count_rodrigues_y(monkeypatch):
    """Record each nu.rodrigues_y call, and still make it."""
    calls = []
    original = nu.rodrigues_y

    def counted(branch, n):
        calls.append(n)
        return original(branch, n)

    monkeypatch.setattr(nu, "rodrigues_y", counted)
    return calls


def test_residual_detector(monkeypatch):
    """The residual reads the branch only: no y is built."""
    calls = count_rodrigues_y(monkeypatch)
    assert_all_passed(run_criterion("residual-detector"))
    assert calls == []


def test_rodrigues_laguerre(monkeypatch):
    """y is built once per state, not once per sample point."""
    calls = count_rodrigues_y(monkeypatch)
    assert_all_passed(run_criterion("rodrigues-laguerre"))
    assert calls == [n for n in range(9) for _ in range(3)]


def test_transform_algebra():
    assert_all_passed(run_criterion("transform-algebra"))


def test_transform_algebra_draws_its_cases_in_order(monkeypatch):
    """The 1,000 random cases are those that ``randint`` draws from seed
    4251 in this order: four diagonal entries, the group, one count per
    slot of the group, then a and b."""
    records = []
    original = opspace.compose

    def spy(g0, applications):
        if len(applications) == 2 and applications[0][0] is applications[1][0]:
            (comp, a), (_, b) = applications
            records.append((g0.diag, comp.diag, a, b))
        return original(g0, applications)

    monkeypatch.setattr(opspace, "compose", spy)
    assert_all_passed(run_criterion("transform-algebra"))
    rng = random.Random(4251)
    want = []
    for _ in range(1000):
        diag = tuple(rng.randint(-5, 5) for _ in range(4))
        cd = [0, 0, 0, 0]
        for slot in rng.choice(((0, 1), (2, 3))):
            cd[slot] = rng.randint(-3, 3)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        want.append((diag, tuple(cd), a, b))
    assert records == want


def transform_rows(monkeypatch, name, mutant):
    """transform-algebra's pass or fail per row, with ``opspace.<name>``
    replaced by ``mutant``."""
    monkeypatch.setattr(opspace, name, mutant)
    return {row.detail: row.passed for row in acceptance.CRITERIA["transform-algebra"]()}


def test_transform_algebra_catches_a_wrong_complement(monkeypatch):
    """1 + d in the last slot: applied twice it gives d + 2, not d.  (A
    swap of two slots would be its own inverse and pass the row.)"""

    def mutant(g):
        a, b, c, d = g.diag
        return opspace.GEta((1 - a, 1 - b, 1 - c, 1 + d))

    rows = transform_rows(monkeypatch, "complement", mutant)
    assert rows["complement involution, 1000 random diagonals"] is False


def test_transform_algebra_catches_a_dropped_application(monkeypatch):
    """compose checks every application's group but adds only the first."""
    original = opspace.compose

    def mutant(g0, applications):
        original(g0, applications)
        return original(g0, applications[:1])

    rows = transform_rows(monkeypatch, "compose", mutant)
    assert rows["composition additivity and inverses, 1000 random cases"] is False


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
