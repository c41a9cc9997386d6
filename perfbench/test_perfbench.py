"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((Path(__file__).parent / "baseline.json").read_text(encoding="utf-8"))

#: Counts that must repeat exactly between two runs with one seed.
EXACT_COUNTS = (
    "nu.eigen_residual_calls_per_state",
    "nu.select_branch_calls_per_state",
    "numeric.poly_ops_per_state",
    "oracle.fd_spectrum_calls",
)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    env, seconds = run.set_up(tmp_path_factory.mktemp("set-up"))
    assert seconds > 0
    return env


def _cli(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_decks_repeat_for_a_seed_and_change_with_it(env):
    for workload in workloads.WORKLOADS.values():
        assert workload.deck(1, env) == workload.deck(1, env)
    for name in ("solve-mix", "tabulate"):
        workload = workloads.WORKLOADS[name]
        assert workload.deck(1, env) != workload.deck(2, env)


def test_decks_hold_the_stated_mix(env):
    solve = workloads.WORKLOADS["solve-mix"].deck(5, env)
    assert len(solve) == 192
    assert sum(op.config == "muonic" for op in solve) * 16 == len(solve)
    assert {op.n for op in solve} == set(range(41))
    assert {(op.branch, op.L) for op in solve} == {(b, L) for b in (-3.0, -1.0) for L in range(6)}
    tab = workloads.WORKLOADS["tabulate"].deck(5, env)
    assert len(tab) == 36 and {op.n for op in tab} <= set(range(20, 41))
    assert sum(op.branch == -3.0 and op.pbar == 0 for op in tab) == 6
    assert workloads.WORKLOADS["verify"].deck(5, env) == list(env.acceptance.CRITERIA)


def test_failing_inputs_and_pass_counts_do_not_change_with_the_seed(env):
    # the muonic states are the ones that fail; the same set for every seed
    solve = workloads.WORKLOADS["solve-mix"]
    muonic = [{op for op in solve.deck(seed, env) if op.config == "muonic"} for seed in (1, 2)]
    assert muonic[0] == muonic[1] and len(muonic[0]) == 12
    # the pass count, and so every count in the result line, follows from
    # --seconds alone, never from how fast the host ran
    assert run.pass_count(solve, 1) == 3
    assert run.pass_count(solve, 10 * solve.pass_seconds) == 10


def test_reference_speed_scales_by_the_references_around_each_op():
    nominal = run.REF_NOMINAL_S
    assert run.at_reference_speed([1.0, 2.0], [nominal] * 3) == pytest.approx([1.0, 2.0])
    # a host at half speed doubles the wall time and the reference alike
    assert run.at_reference_speed([2.0, 4.0], [2 * nominal] * 3) == pytest.approx([1.0, 2.0])
    # the scale is the geometric mean of the references before and after
    assert run.at_reference_speed([1.0], [nominal, 4 * nominal]) == pytest.approx([0.5])
    assert run.reference() > 0


def _traced_counts(env, name: str, deck: list) -> dict[str, float]:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, run.TIMED)
    try:
        p = run.run_pass(workloads.WORKLOADS[name], env, deck, tracer)
    finally:
        restore()
    assert all(o.expected for o in p.outcomes)
    return run._pass_layer_metrics(tracer, p)


@pytest.mark.parametrize(
    "name, size", [("solve-mix", 16), ("tabulate", 2), ("verify", 2)]
)
def test_counts_repeat_exactly(env, name, size):
    deck = workloads.WORKLOADS[name].deck(BASELINE["seeds"]["default"], env)[:size]
    first = _traced_counts(env, name, deck)
    second = _traced_counts(env, name, deck)
    for count in EXACT_COUNTS:
        assert first[count] == second[count], count
    if name == "verify":
        assert first["oracle.fd_spectrum_calls"] == 2  # configuration-limit, L = 0 and 1
    else:
        assert 40 <= first["nu.eigen_residual_calls_per_state"] <= 80


def test_install_reaches_cross_module_bindings_and_restore_undoes_it(env):
    originals = (env.nu.solve_kappa, env.hydrogen.is_on_manifold,
                 env.acceptance.CRITERIA["recovery-rule"], env.numeric.Poly.__add__)
    restore = tracing.install(tracing.Tracer())
    try:
        assert env.nu.solve_kappa.__wrapped__ is originals[0]
        assert env.hydrogen.is_on_manifold.__wrapped__ is originals[1]
        assert env.acceptance.CRITERIA["recovery-rule"].__wrapped__ is originals[2]
        assert env.numeric.Poly.__add__.__wrapped__ is originals[3]
    finally:
        restore()
    assert (env.nu.solve_kappa, env.hydrogen.is_on_manifold,
            env.acceptance.CRITERIA["recovery-rule"], env.numeric.Poly.__add__) == originals


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    op, nu, numeric = (tracer.name_id(n, n.split(".")[0]) for n in ("bench.op", "nu.f", "numeric.g"))
    # bench [0, 10] > nu [1, 9] > numeric [2, 5] and [6, 7]
    for name, parent, start, end in ((op, -1, 0, 10), (nu, 0, 1, 9), (numeric, 1, 2, 5), (numeric, 1, 6, 7)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    assert tracer.self_times(0, 4) == {"bench": 2.0, "nu": 4.0, "numeric": 4.0}


def test_spans_open_at_layer_crossings_and_on_timed_functions():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: None, "nu.leaf", "nu")
    timed_leaf = tracer.wrap(lambda: None, "nu.timed", "nu", timed=True)

    def body():
        leaf()
        timed_leaf()

    outer = tracer.wrap(body, "nu.outer", "nu")
    with tracer.span("bench.op"):
        outer()
        outer()
    names = [tracer.names[k] for k in tracer.span_name]
    assert names == ["bench.op", "nu.outer", "nu.timed", "nu.outer", "nu.timed"]
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["nu.leaf"] == 2 and calls["nu.timed"] == 2
    assert list(tracer.span_parent) == [-1, 0, 1, 0, 3]


def _solve_output(energy: float, residual: float) -> tuple[int, str, str]:
    return 0, json.dumps({"energy": energy, "residual": residual}), ""


def test_checks_fail_wrong_outputs_and_tag_only_the_known_defects():
    solve = workloads.WORKLOADS["solve-mix"]
    atomic = workloads.SolveOp(-3.0, 0, 0, "atomic")
    assert solve.check(atomic, _solve_output(-0.125, 1e-12), None).ok
    wrong = solve.check(atomic, _solve_output(-0.125 * (1 + 1e-9), 1e-12), None)
    assert not wrong.ok and not wrong.expected
    assert not solve.check(atomic, (3, "", "NoBranch: x"), None).expected
    muonic = workloads.SolveOp(-1.0, 30, 3, "muonic")
    assert solve.check(muonic, (3, "", "NoBranch: x"), None).defect == workloads.NOBRANCH_HEAVY
    heavy_energy = workloads.closed_form_energy(workloads.CONFIGS["muonic"], -1.0, 30, 3)
    assert solve.check(muonic, _solve_output(heavy_energy, 1.0), None).defect == workloads.RESIDUAL_HEAVY
    assert not solve.check(atomic, _solve_output(-0.125, 1e-6), None).expected

    class BranchPointError(Exception):
        pass

    tab = workloads.WORKLOADS["tabulate"]
    at_origin = workloads.TabulateOp(-3.0, 20, 0, 0j)
    assert tab.check(at_origin, None, BranchPointError("z = 0")).defect == workloads.BRANCH_POINT
    assert not tab.check(workloads.TabulateOp(-3.0, 20, 0, 0.5j), None, BranchPointError("z")).expected
    assert not tab.check(at_origin, None, ValueError("z")).expected


def test_verify_check_allows_only_the_red_row_to_fail():
    class Row:
        def __init__(self, detail: str, passed: bool) -> None:
            self.detail, self.passed, self.measure = detail, passed, ""

    verify = workloads.WORKLOADS["verify"]
    red = "finite-difference oracle vs solver, 3 lowest states, L=0"
    rows = [Row("spectrum", True), Row(red, False), Row(red.replace("L=0", "L=1"), True)]
    assert verify.check("configuration-limit", rows, None).defect == workloads.FD_RED_ROW
    rows[1].passed = True
    assert verify.check("configuration-limit", rows, None).ok
    rows[2].passed = False
    assert not verify.check("configuration-limit", rows, None).expected
    assert not verify.check("configuration-limit", rows[:2], None).expected


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(BASELINE["moves"]) == {m["name"] for m in SPEC["per_layer"]}


def test_run_prints_every_metric_by_name_and_unit():
    for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
        done = _cli("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] >= 1
        assert list(doc["metrics"]) == [m["name"] for m in SPEC[listed]]
        assert all(doc["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[listed])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "solve-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
