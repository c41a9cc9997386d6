"""Benchmark of phasenu, run from the root of a source checkout.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``solve-mix``: ``phasenu solve`` in process, one state per op.
* ``tabulate``: one wavefunction assembled and evaluated on 16,000 points.
* ``verify``: the acceptance suite, one criterion per op.

One process, one caller, no threads: a closed loop that sends the next op
when the previous one returns.  The package is imported from ``src/`` of
the checkout; without it the benchmark exits with status 2 before
measuring anything.

The deck is replayed in whole passes.  Their number follows from
``--seconds`` and the workload's nominal pass time alone, so a seed gives
the same ops, and the same failed ops, in every run.  Before each pass the
package is set up afresh (import, config files, one warm-up solve); the
median of those set-ups is ``setup_s``.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics.  With ``--trace 1`` a
third of the passes run untraced, the same number is then run traced, and
the per-layer metrics come from the traced passes; their spans are written
to ``.perfbench/`` at the end.  Lines before the JSON summarize the run for
a reader.

Times are taken at the reference speed.  The benchmark runs on a few cores
of a shared host whose speed drifts by up to 1.8x within tens of seconds;
the drift moves the program's own CPU time as much as its wall time.  So a
fixed loop of the kinds of work the program does (complex arithmetic,
calls, list appends, dict stores), the reference, is timed between
every two ops and around every set-up, and each wall time is scaled by
``REF_NOMINAL_S`` over the geometric mean of the references just before and
just after it.  An op's time is then the median of its scaled times over
the passes.  The program cannot change the reference, so a faster program
still reads faster.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Iterations of the reference loop: about 0.4 ms.
REF_LOOPS = 1200

#: Seconds the reference loop takes at the reference speed, the median
#: measured on the machine that set the seed baseline (Python 3.11.7).
REF_NOMINAL_S = 0.0004

#: The solve that ends every set-up, so the first measured op finds the
#: package imported and its code paths warm.
WARM_UP = workloads.SolveOp(-3.0, 0, 0, "atomic")

#: Functions whose per-call latency is a per-layer metric.
TIMED = frozenset((
    "cli.main", "nu.solve_kappa", "nu.rodrigues_y", "numeric.ExpPowerTerm.evaluate",
    "hydrogen.ode_residual", "hydrogen.assemble_wavefunction", "oracle.fd_spectrum",
))

#: numeric.Poly methods counted as Poly operations.
POLY_OPS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
            "derivative", "shifted_up")


def _square_plus(z: complex, c: complex) -> complex:
    return z * z + c


def reference() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    values: list[complex] = []
    table: dict[int, float] = {}
    z = 0.3 + 0.1j
    for i in range(REF_LOOPS):
        z = _square_plus(z, 0.25j) * 0.5
        values.append(z)
        table[i & 63] = abs(z)
    return perf_counter() - start


def at_reference_speed(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time scaled by REF_NOMINAL_S over the geometric mean of the
    references before and after it: ``refs`` has one more entry than
    ``walls``."""
    return [wall * REF_NOMINAL_S / sqrt(refs[i] * refs[i + 1]) for i, wall in enumerate(walls)]


@dataclass
class Pass:
    """One replay of the deck.

    ``walls`` are the ops' wall times, ``refs`` the references taken
    between them (one before the first op and one after the last), and
    ``latencies`` the wall times at the reference speed.
    """

    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    outcomes: list[workloads.Outcome] = field(default_factory=list)
    spans: tuple[int, int] = (0, 0)
    calls: dict[str, int] = field(default_factory=dict)
    returns: dict[str, int] = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def set_up(work_dir: Path) -> tuple[SimpleNamespace, float]:
    """Import the package afresh, write the config files, solve once.

    Returns the modules and the set-up's time at the reference speed.
    """
    before = reference()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "phasenu" or n.startswith("phasenu.")]:
        del sys.modules[name]
    start = perf_counter()
    modules = {layer: importlib.import_module(f"phasenu.{layer}") for layer in tracing.LAYERS}
    config_dir = Path(tempfile.mkdtemp(dir=work_dir))
    paths = {}
    for name, config in workloads.CONFIGS.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        paths[name] = str(path)
    env = SimpleNamespace(config_paths=paths, **modules)
    solve = workloads.WORKLOADS["solve-mix"]
    result = solve.run(env, WARM_UP)
    seconds = perf_counter() - start
    outcome = solve.check(WARM_UP, result, None)
    if not outcome.ok:
        raise SystemExit(f"perfbench: warm-up solve failed: {outcome.detail}")
    if not Path(env.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: phasenu was imported from {env.cli.__file__}, not {SRC}")
    return env, at_reference_speed([seconds], [before, reference()])[0]


def run_pass(workload: Any, env: SimpleNamespace, deck: list, tracer: tracing.Tracer | None) -> Pass:
    """Every op of the deck once; outputs are checked after each op's clock stops."""
    result = Pass()
    if tracer is not None:
        calls_before, returns_before = list(tracer.calls), list(tracer.returns)
        first_span = len(tracer.span_start)
    for op in deck:
        result.refs.append(reference())
        if tracer is None:
            elapsed, output, error = _timed(workload, env, op)
        else:
            with tracer.span("bench.op"):
                elapsed, output, error = _timed(workload, env, op)
        result.walls.append(elapsed)
        result.outcomes.append(workload.check(op, output, error))
    result.refs.append(reference())
    result.latencies = at_reference_speed(result.walls, result.refs)
    if tracer is not None:
        result.spans = (first_span, len(tracer.span_start))
        pad = [0] * (len(tracer.calls) - len(calls_before))
        result.calls = _delta(tracer.names, tracer.calls, calls_before + pad)
        result.returns = _delta(tracer.names, tracer.returns, returns_before + pad)
    return result


def _timed(workload: Any, env: SimpleNamespace, op: Any) -> tuple[float, Any, Exception | None]:
    start = perf_counter()
    try:
        output, error = workload.run(env, op), None
    except Exception as exc:  # a raising op is a failed op, checked like any other
        output, error = None, exc
    return perf_counter() - start, output, error


def _delta(names: list[str], after: list[int], before: list[int]) -> dict[str, int]:
    return {name: a - b for name, a, b in zip(names, after, before) if a != b}


def pass_count(workload: Any, seconds: float) -> int:
    """Passes for a run of about ``seconds``, at least three.  Nothing
    measured enters it, so every run with one seed makes the same ops."""
    return max(3, round(seconds / workload.pass_seconds))


def run_passes(
    workload: Any, seed: int, count: int, work_dir: Path
) -> tuple[SimpleNamespace, list, list[Pass], list[float]]:
    """``count`` untraced passes, each after a fresh set-up.

    Set-ups are spread over the run, like the passes, so that ``setup_s``
    samples the same stretch of machine time as the other metrics.  Returns
    the last set-up's modules, the deck, the passes and the set-up times.
    """
    passes: list[Pass] = []
    setups: list[float] = []
    for _ in range(count):
        env, seconds = set_up(work_dir)
        setups.append(seconds)
        if not passes:
            deck = workload.deck(seed, env)
        passes.append(run_pass(workload, env, deck, None))
    return env, deck, passes, setups


def end_to_end(deck: list, passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """Each op's latency is its median over the passes; the percentiles run
    over the ops that succeeded, and throughput is the successful ops of one
    pass over the sum of every op's median latency."""
    per_op = [statistics.median(p.latencies[i] for p in passes) for i in range(len(deck))]
    ok = [all(p.outcomes[i].ok for p in passes) for i in range(len(deck))]
    ok_latency = [t for t, good in zip(per_op, ok) if good] or [0.0]
    attempted = sum(len(p.outcomes) for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "op_ms_p50": 1e3 * statistics.median(ok_latency),
        "op_ms_p90": 1e3 * _quantile(ok_latency, 0.9),
        "ops_per_s": sum(ok) / sum(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": sum(o.ok for p in passes for o in p.outcomes) / attempted,
    }


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def per_layer(tracer: tracing.Tracer, traced: list[Pass], untraced: list[Pass],
              criteria: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of the traced passes.

    Counts and self times are per pass (the same work every pass, so counts
    repeat exactly) and take the median over passes; span durations are
    pooled over the traced passes.
    """
    per_pass = [_pass_layer_metrics(tracer, p) for p in traced]
    out = {name: float(statistics.median(m[name] for m in per_pass)) for name in per_pass[0]}

    def pooled(name: str, scale: float) -> float:
        values = [d for p in traced for d in tracer.durations(name, *p.spans)]
        return scale * statistics.median(values) if values else 0.0

    out["cli.main_ms_p50"] = pooled("cli.main", 1e3)
    out["nu.solve_kappa_ms_p50"] = pooled("nu.solve_kappa", 1e3)
    out["nu.rodrigues_y_ms_p50"] = pooled("nu.rodrigues_y", 1e3)
    out["numeric.evaluate_us_p50"] = pooled("numeric.ExpPowerTerm.evaluate", 1e6)
    out["hydrogen.ode_residual_ms_p50"] = pooled("hydrogen.ode_residual", 1e3)
    out["hydrogen.assemble_wavefunction_ms_p50"] = pooled("hydrogen.assemble_wavefunction", 1e3)
    out["oracle.fd_spectrum_s"] = pooled("oracle.fd_spectrum", 1.0)
    for criterion, function in criteria.items():
        out[f"acceptance.{criterion}_s"] = pooled(f"acceptance.{function}", 1.0)
    traced_busy = statistics.median(p.busy for p in traced)
    untraced_busy = statistics.median(p.busy for p in untraced)
    out["trace.overhead_pct"] = 100.0 * (traced_busy - untraced_busy) / untraced_busy
    return out


def _pass_layer_metrics(tracer: tracing.Tracer, p: Pass) -> dict[str, float]:
    calls, returns = p.calls, p.returns
    self_s = tracer.self_times(*p.spans)
    states = calls.get("nu.solve_kappa", 0)

    def per_state(count: int) -> float:
        return count / states if states else 0.0

    pi_calls = calls.get("nu.pi_from_k", 0)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracing.LAYERS}
    out.update({
        "nu.eigen_residual_calls_per_state": per_state(calls.get("nu.eigen_residual", 0)),
        "nu.select_branch_calls_per_state": per_state(calls.get("nu.select_branch", 0)),
        "nu.pi_from_k_useful_ratio": returns.get("nu.pi_from_k", 0) / pi_calls if pi_calls else 0.0,
        "numeric.poly_ops_per_state": per_state(
            sum(calls.get(f"numeric.Poly.{m}", 0) for m in POLY_OPS)
        ),
        "numeric.evaluate_calls": calls.get("numeric.ExpPowerTerm.evaluate", 0),
        "numeric.derivative_calls": calls.get("numeric.Poly.derivative", 0)
        + calls.get("numeric.ExpPowerTerm.derivative", 0),
        "oracle.fd_spectrum_calls": calls.get("oracle.fd_spectrum", 0),
        "opspace.compose_calls": calls.get("opspace.compose", 0),
    })
    return out


def coverage(tracer: tracing.Tracer, traced: list[Pass], metrics: dict[str, float]) -> list[str]:
    """Where the traced op time went, as shares of one traced pass (wall
    time, like the spans)."""
    busy = statistics.median(sum(p.walls) for p in traced)
    shares = {layer: metrics[f"{layer}.self_s"] / busy for layer in tracing.LAYERS}
    evaluate = statistics.median(
        sum(tracer.durations("numeric.ExpPowerTerm.evaluate", *p.spans)) for p in traced
    )
    listed = ", ".join(
        f"{layer} {100 * share:.1f}%" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])
    )
    return [
        f"self time as a share of traced op time: {listed}",
        f"numeric.ExpPowerTerm.evaluate spans: {100 * evaluate / busy:.1f}% of traced op time",
    ]


def summary(workload: Any, deck: list, passes: list[Pass], metrics: dict[str, float],
            setup: list[float]) -> list[str]:
    """The run in the terms a user of each workload reads."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    ok_ops = sum(o.ok for o in passes[0].outcomes)
    lines = [
        f"workload {workload.name}: {len(passes)} passes of {len(deck)} ops",
        f"setup_s       {metrics['setup_s']:.4f} s  (median of {len(setup)} set-ups)",
    ]
    if workload.name == "solve-mix":
        lines += [
            f"state_ms_p50  {metrics['op_ms_p50']:.3f} ms  ({ok_ops} states, median of {len(passes)} passes each)",
            f"state_ms_p90  {metrics['op_ms_p90']:.3f} ms",
            f"states_per_s  {metrics['ops_per_s']:.2f} 1/s",
        ]
    elif workload.name == "tabulate":
        lines.append(
            f"points_per_s  {metrics['ops_per_s'] * workloads.GRID_POINTS:.0f} 1/s"
            f"  (assembly included, {ok_ops} tabulations per pass)"
        )
    else:
        verify_s = statistics.median(p.busy for p in passes)
        lines.append(f"verify_s      {verify_s:.4f} s  (median of {len(passes)} passes at reference speed)")
    lines.append(f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB")
    refs = [r for p in passes for r in p.refs]
    lines.append(
        f"reference     {1e3 * statistics.median(refs):.3f} ms median, {1e3 * min(refs):.3f}"
        f"-{1e3 * max(refs):.3f} ms range (nominal {1e3 * REF_NOMINAL_S:.3f} ms);"
        f" wall time of a pass {statistics.median(sum(p.walls) for p in passes):.3f} s median"
    )
    lines.append(f"failed_share  {len(failed) / len(outcomes):.4f}  ({len(failed)} of {len(outcomes)} ops)")
    tags: dict[str, int] = {}
    for o in failed:
        tags[o.defect or "UNEXPECTED"] = tags.get(o.defect or "UNEXPECTED", 0) + 1
    lines += [f"  {tag}: {n}" for tag, n in sorted(tags.items())]
    lines += [f"  unexpected: {o.detail}" for o in failed if o.defect is None][:5]
    return lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="phasenu benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "phasenu" / "__init__.py").is_file():
        print(f"perfbench: no phasenu package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        count = pass_count(workload, args.seconds if not args.trace else args.seconds / 3)
        env, deck, untraced, setup = run_passes(workload, args.seed, count, Path(tmp))
        if not args.trace:
            passes = untraced
            metrics = end_to_end(deck, passes, setup)
            listed = spec["end_to_end"]
            lines = summary(workload, deck, passes, metrics, setup)
        else:
            criteria = {c: f.__name__ for c, f in env.acceptance.CRITERIA.items()}
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, TIMED)
            try:
                traced = [run_pass(workload, env, deck, tracer) for _ in untraced]
            finally:
                restore()
            passes = untraced + traced
            metrics = per_layer(tracer, traced, untraced, criteria)
            listed = spec["per_layer"]
            lines = [f"{name:40s} {metrics[name]:.6g}" for name in sorted(metrics)]
            lines += coverage(tracer, traced, metrics)
            tracer.write(str(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.tsv.gz"))
    outcomes = [o for p in passes for o in p.outcomes]
    document = {
        "correct": all(o.expected for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print("\n".join(lines))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
