"""Acceptance gate: one test per shipped criterion, at the pinned tolerances.

Each test prints the underlying check rows, so a failure report carries
the measured numbers, and then asserts that every row passed.  The
tolerances live in the acceptance module itself; these tests do not
loosen or restate them.
"""

import math
import time

import pytest

from phasenu import acceptance, cli, hydrogen, nu, opspace, oracle


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
    """The additivity row composes exactly 450 cases, in this order: the
    25 diagonals (a, b, a, b) with a, b in -2..2, which are every 26th
    diagonal with entries in -2..2, each of six one-group complements and
    each of three count pairs."""
    records = []
    original = opspace.compose

    def spy(g0, applications):
        if len(applications) == 2 and applications[0][0] is applications[1][0]:
            (comp, a), (_, b) = applications
            records.append((g0.diag, comp.diag, a, b))
        return original(g0, applications)

    monkeypatch.setattr(opspace, "compose", spy)
    assert_all_passed(run_criterion("transform-algebra"))
    diags = [(a, b, a, b) for a in range(-2, 3) for b in range(-2, 3)]
    comps = [(1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 2, -1)]
    counts = [(1, 1), (2, -1), (-3, 2)]
    assert records == [(d, c, a, b) for d in diags for c in comps for a, b in counts]


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
    assert rows["complement involution, all 625 diagonals with entries in -2..2"] is False


def test_transform_algebra_catches_a_dropped_application(monkeypatch):
    """compose checks every application's group but adds only the first."""
    original = opspace.compose

    def mutant(g0, applications):
        original(g0, applications)
        return original(g0, applications[:1])

    rows = transform_rows(monkeypatch, "compose", mutant)
    detail = ("composition additivity and inverses, 25 diagonals x 6 one-group "
              "complements x 3 count pairs, 450 cases")
    assert rows[detail] is False


def test_manifold_invariants():
    assert_all_passed(run_criterion("manifold-invariants"))


def test_recovery_rule(monkeypatch):
    """The rule reads beta and gamma off each point, so it solves nothing."""
    calls = []
    monkeypatch.setattr(nu, "solve_state", lambda *args: calls.append(args))
    assert_all_passed(run_criterion("recovery-rule"))
    assert calls == []


def nan_where(original, hit):
    """``original``, but NaN for the calls whose arguments ``hit`` accepts."""
    return lambda *args: math.nan if hit(*args) else original(*args)


def detuned_at(alphadelta, n, L):
    """Whether ``ode_residual``'s state is residual-detector's detuned level
    (n, L) on the branch of alphadelta."""
    family = hydrogen.build_radial_family(hydrogen.PhysicalParams(angular_momentum=L), alphadelta)
    kappa = 1.1 * nu.solve_state(family, n).kappa
    return lambda state: state == nu.assemble(family, kappa, n)


def nan_second_level(original):
    return lambda *args: [x if i != 1 else math.nan for i, x in enumerate(original(*args))]


def nan_pi1(original):
    def solved_state(*args):
        state = original(*args)
        return state._replace(branch=state.branch._replace(pi1=math.nan))
    return solved_state


@pytest.mark.parametrize(
    "name, target, attr, fault, failing",
    [
        ("deep-branch-spectrum", hydrogen, "solve_energy",
         lambda f: nan_where(f, lambda params, n, ad: (n, params.angular_momentum) == (2, 1)),
         [0]),
        ("configuration-limit", oracle, "fd_spectrum", nan_second_level, [1, 2]),
        ("ground-state-chain", acceptance, "_solved_state", nan_pi1, [2]),
        ("residual-detector", hydrogen, "ode_residual",
         lambda f: nan_where(f, detuned_at(-1.0, 2, 1)), [1]),
        ("rodrigues-laguerre", oracle, "laguerre",
         lambda f: nan_where(f, lambda n, a, x: n == 4), [0]),
        ("manifold-invariants", opspace, "commutator_coefficient",
         lambda f: lambda p: math.nan, [0, 2]),
    ],
    ids=["solve_energy", "fd_spectrum", "pi1", "ode_residual", "laguerre",
         "commutator_coefficient"],
)
def test_a_nan_measure_fails_its_row(monkeypatch, name, target, attr, fault, failing):
    """A NaN in what a row measures makes the row FAIL and print ``nan``,
    however many finite values come before or after it."""
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    rows = acceptance.CRITERIA[name]()
    for i in failing:
        assert not rows[i].passed, rows[i]
        assert "nan" in rows[i].measure, rows[i]


@pytest.mark.parametrize(
    "fault, measure",
    [
        (lambda f: nan_where(f, detuned_at(-1.0, 2, 1)),
         "min residual nan at ('alphadelta=-1', 2, 1) (floor 1e-4)"),
        (lambda f: lambda state: 1e-12,
         "min residual 1.000e-12 at ('alphadelta=-3', 0, 0) (floor 1e-4)"),
    ],
    ids=["nan", "at_the_root"],
)
def test_the_detuned_row_fails_on_its_weakest_residual(monkeypatch, fault, measure):
    """The detuned row names the first NaN residual, wherever it falls,
    and fails when a detuned residual reads as small as a solved one: the
    detector then detects nothing.  The solved row passes either way."""
    monkeypatch.setattr(hydrogen, "ode_residual", fault(hydrogen.ode_residual))
    solved, detuned = acceptance.CRITERIA["residual-detector"]()
    assert solved.passed
    assert not detuned.passed
    assert detuned.measure == measure


def test_a_commutator_row_without_an_off_manifold_point_fails(monkeypatch):
    """The finite-difference commutator row must see a point off the
    surface; when every point reads as on it, the row fails."""
    monkeypatch.setattr(opspace, "is_on_manifold", lambda p: True)
    rows = acceptance.CRITERIA["manifold-invariants"]()
    assert [row.passed for row in rows] == [True, True, False]
    assert "(0 off-manifold)" in rows[2].detail


def test_a_criterion_that_raises_is_one_failed_row(monkeypatch, capsys):
    """verify prints every other row as a sound run does, one FAIL row
    naming the raised class in place of the faulty criterion's rows, and
    exits 1."""
    assert cli.main(["verify", "--suite", "all"]) == 0
    sound = capsys.readouterr().out.splitlines()[:-1]

    def faulty():
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(acceptance.CRITERIA, "ground-state-chain", faulty)
    assert cli.main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    width = max(len(name) for name in acceptance.CRITERIA)
    raised = (f"FAIL  {'ground-state-chain':<{width}}  raised  "
              "[ZeroDivisionError: float division by zero]")
    kept = [line for line in sound if "  ground-state-chain  " not in line]
    at = next(i for i, line in enumerate(sound) if "  ground-state-chain  " in line)
    assert lines[:-1] == kept[:at] + [raised] + kept[at:]
    assert lines[-1] == f"{len(kept)}/{len(kept) + 1} checks passed"


def test_registry_and_suites_are_consistent():
    assert set(acceptance.SUITES["all"]) == set(acceptance.CRITERIA)
    for suite, names in acceptance.SUITES.items():
        for name in names:
            assert name in acceptance.CRITERIA, (suite, name)
    with pytest.raises(ValueError):
        acceptance.run_suite("everything")
