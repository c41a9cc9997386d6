"""The package surface the benchmark in ``perfbench/`` relies on.

One seed-1 pass of each workload's deck runs through the workload's own
``deck``, ``run`` and ``check``, on the modules imported here.  A renamed
function, a changed signature or a changed acceptance row count (the
verify workload pins the rows of every criterion) then fails here, not
only in a benchmark run.  ``perfbench/run.py`` is not used: its set-up
re-imports the package.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from phasenu import acceptance, cli, hydrogen

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def env(workloads, tmp_path_factory):
    config_dir = tmp_path_factory.mktemp("configs")
    paths = {}
    for name, config in workloads.CONFIGS.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        paths[name] = str(path)
    return SimpleNamespace(
        config_paths=paths, cli=cli, hydrogen=hydrogen, acceptance=acceptance
    )


@pytest.fixture(scope="module")
def outcomes(workloads, env):
    """Each workload's seed-1 deck as (op, outcome) pairs, run once."""
    done = {}

    def run(name):
        if name not in done:
            workload = workloads.WORKLOADS[name]
            done[name] = []
            for op in workload.deck(1, env):
                try:
                    result, error = workload.run(env, op), None
                except Exception as exc:  # a raising op is checked like any other
                    result, error = None, exc
                done[name].append((op, workload.check(op, result, error)))
        return done[name]

    return run


@pytest.mark.parametrize("name", ["solve-mix", "tabulate", "verify"])
def test_one_pass_has_only_expected_outcomes(outcomes, name):
    unexpected = [(op, out.detail) for op, out in outcomes(name) if not out.expected]
    assert unexpected == []


def test_heavy_solves_find_their_branch(outcomes):
    """Every solve-mix op of the pass succeeds, the muonic states included:
    none fails with NoBranch at the kappa floor, and the residual, sampled
    on each state's own support, passes at every mass."""
    failed = [(op, out.defect, out.detail) for op, out in outcomes("solve-mix") if not out.ok]
    assert failed == []
