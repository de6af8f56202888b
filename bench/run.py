"""hullcount benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, seed 1, untraced
    python3 -m pytest bench                   # tests of the benchmark itself

``--workload all`` (the default) runs each workload in a fresh child
process, one after another, so that no workload's peak memory includes
another's. ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

workloads.py describes the workloads. With ``--trace 0`` a run prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it prints the
per-layer metrics, from spans recorded around calls into each module
(spans.py), with ``subspaces_per_s``, ``trace.overhead_s`` and
``error_rate``. A layer the workload does not call reads 0. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: ``failed / attempted`` is the error rate, and ``correct``
is false when an op failed other than by the documented known defect
(workloads.PROBE_DEFECT).

End-to-end metrics:

* ``setup_s``: import plus a cold build of the field tables the workload
  uses; median over fresh interpreters, run one at a time after the passes.
* ``wall_s``: median time of one pass over the workload, tracing off.
* ``op_p50_s``: median time of one op (a library call; a CLI command).
* ``op_tail_s``: op time at the highest percentile with at least ten ops
  beyond it; the percentile and the op count are printed above it.
* ``peak_rss_mb``: peak resident memory of the workload's process; for
  cli_session, of its CLI children, read before the set-up interpreters run.

Times are in reference seconds (workloads.SpeedMeter): measured seconds
divided by the slowdown this shared machine gave the process at the time,
which a fixed reference slice samples between ops.

A run makes ``round(seconds / NOMINAL_PASS_S)`` passes, so it lasts about
``--seconds`` where the nominal pass times were taken and does the same
work everywhere. Op percentiles pool the ops of all untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("oracle_sweep", "closed_form", "cli_session")
# seconds one pass takes on 2 cores of an Intel Xeon, CPython 3.11
NOMINAL_PASS_S = {"oracle_sweep": 3.8, "closed_form": 3.4, "cli_session": 3.8}
SETUP_RUNS = 9
# what a cold start of each workload imports and which field tables it builds
SETUP = {
    "oracle_sweep": ("hullcount", ((2, 1), (3, 1), (2, 2), (3, 2))),
    "closed_form": ("hullcount", ()),
    "cli_session": ("hullcount.cli", ((2, 1), (3, 1), (2, 2))),
}
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
from hullcount.algebra import make_field
for p, m in {fields!r}:
    f = make_field(p, m)
    f.add_table, f.mul_table, f.neg_table, f.inv_table
    if m % 2 == 0:
        f.frobenius_table(p ** (m // 2))
t2 = time.perf_counter()
print(json.dumps({{"setup_s": t2 - t0, "field_build_s": t2 - t1}}))
"""


def environment(seed: int) -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def measure_setup(workload: str, env: dict[str, str], meter) -> tuple[float, float]:
    """Medians of (set-up time, field-table build time) over fresh
    interpreters, in reference seconds."""
    module, fields = SETUP[workload]
    code = SETUP_CODE.format(module=module, fields=fields)
    totals, builds = [], []
    meter.tick()
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        meter.tick()
        factor = meter.factor(meter.last - 1)
        rec = json.loads(out.stdout)
        totals.append(rec["setup_s"] / factor)
        builds.append(rec["field_build_s"] / factor)
    return statistics.median(totals), statistics.median(builds)


def tail(times: list[float]) -> tuple[float, float]:
    """The op time at the highest percentile with at least ten samples
    beyond it, and that percentile."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _per_s(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, traced_passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes. A layer the
    workload never calls reads 0."""
    import workloads as w

    sel = tracer.select
    m: dict[str, float] = {}
    spectra = sel("oracle.hull_spectrum")
    for form in ("euclidean", "hermitian", "symplectic"):
        dims = sel("algebra.hull_dim", form, roots_only=True)
        m[f"algebra.hull_dim_per_s.{form}"] = _per_s(len(dims), sum(s.duration for s in dims))
        mine = [s for s in spectra if s.label[0] == form]
        m[f"oracle.spectrum_per_s.{form}"] = _per_s(
            sum(s.count for s in mine), sum(s.duration for s in mine))
    rrefs = sel("algebra.rref", roots_only=True)
    m["algebra.rref_per_s"] = _per_s(len(rrefs), sum(s.duration for s in rrefs))
    ebits = sel("eaqecc.ebits_from_check_matrix")
    m["eaqecc.ebits_per_s"] = _per_s(len(ebits), sum(s.duration for s in ebits))
    for cell in w.ORACLE_CELLS:
        key = w.cell_key(*cell)
        runs = [s.duration for s in sel("oracle.spectrum_vs_formula", key)]
        m[f"oracle.cell_s.{key}"] = statistics.median(runs) if runs else 0.0
    enum = sel("bench.enumerate")
    m["oracle.enumerate_per_s"] = _per_s(sum(s.count for s in enum), sum(s.duration for s in enum))
    subspaces = sum(s.count for s in spectra)
    m["oracle.subspaces"] = subspaces / traced_passes
    m["oracle.share_k2"] = sum(s.count for s in spectra if s.label[1] == 2) / subspaces if subspaces else 0.0
    m["oracle.formula_side_s"] = _mean(s.self_time for s in sel("oracle.spectrum_vs_formula"))
    for n in (50, 200, 1000):
        for name in ("exactnum.gaussian_binomial", "formulas.count_hermitian", "formulas.count_symplectic"):
            m[f"{name}_s.n{n}"] = _mean(s.duration for s in sel(name, f"n{n}"))
    m["ratios.classify_s"] = _mean(
        s.self_time for s in sel("ratios.classify_hermitian") + sel("ratios.classify_symplectic"))
    m["ratios.ratio_report_s"] = _mean(s.duration for s in sel("ratios.ratio_report"))
    grid = sel("bench.small_grid")
    m["ratios.small_cell_per_s"] = _per_s(sum(s.count for s in grid), sum(s.duration for s in grid))
    for key in ("hermitian_n200", "symplectic_2n400"):
        m[f"eaqecc.census_s.{key}"] = _mean(s.duration for s in sel("eaqecc.entanglement_census", key))
    for sub in ("table", "census", "eval", "verify"):
        m[f"cli.inproc_s.{sub}"] = _mean(s.duration for s in sel("cli.main", sub))
    return m


def check_oracle_spans(metrics: dict[str, float], log) -> None:
    """oracle.subspaces and oracle.share_k2 are fixed by the oracle_sweep
    cells; any other value means the oracle enumerated wrongly."""
    import workloads as w

    total, k2 = w.oracle_sweep_subspaces()
    got = (metrics["oracle.subspaces"], metrics["oracle.share_k2"])
    if got != (total, k2 / total):
        log.fail("traced oracle spans",
                 f"subspaces, share_k2 = {got}, expected {(total, k2 / total)}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run: timed passes, set-up, checks. Returns the result record.

    Pass walls, op times and set-up times are in reference seconds (see
    workloads.SpeedMeter), with the time spent sampling the speed left out.
    """
    import workloads as w
    from spans import Tracer

    env_record = environment(seed)
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    log = w.OpLog()
    meter = log.meter
    rng = random.Random(seed)
    tracer = Tracer(w.TARGETS)
    walls: list[float] = []
    traced_walls: list[float] = []
    op_times: list[float] = []
    shown: list[str] = []
    extra: dict[str, float] = {}

    def timed(run_pass, into: list[float], tag: str = "") -> None:
        first_op = len(log.times)
        meter.tick()
        first = meter.last
        run_pass()
        meter.tick()
        ref = meter.reference_seconds(first, meter.last)
        into.append(ref)
        if not tag:
            op_times.extend(log.reference_times(first_op))
        measured = meter.starts[-1] - meter.starts[first] - sum(meter.durations[first:-1])
        shown.append(f"{tag}{measured:.3f}->{ref:.3f}")

    if name == "cli_session":
        cases = w.build_cli_session(rng)
        for _ in range(max(1, passes - 2) if traced else passes):
            timed(lambda: w.cli_session_pass(cases, log), walls)
        if traced:
            inproc: list[float] = []
            timed(lambda: w.cli_session_pass(cases, log, in_process=True), inproc, "I")
            with tracer.installed():
                timed(lambda: w.cli_session_pass(cases, log, in_process=True), traced_walls, "T")
            extra["trace.overhead_s"] = traced_walls[0] - inproc[0]
            extra["cli.startup_s"] = (statistics.median(walls) - inproc[0]) / len(cases)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        build, run_pass = {
            "oracle_sweep": (w.build_oracle_sweep, w.oracle_sweep_pass),
            "closed_form": (w.build_closed_form, w.closed_form_pass),
        }[name]
        inputs = build(rng)
        # a traced run alternates untraced and traced passes, so that drift
        # during the run does not show up as tracing overhead
        for i in range(max(passes, 2) if traced else passes):
            if traced and i % 2:
                with tracer.installed():
                    timed(lambda: run_pass(inputs, log, tracer), traced_walls, "T")
            else:
                timed(lambda: run_pass(inputs, log), walls)
        if traced:
            extra["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s, extra["algebra.field_build_s"] = measure_setup(name, w.child_env(), meter)

    wall_s = statistics.median(walls)
    op_tail, pct = tail(op_times)
    if traced:
        metrics = layer_metrics(tracer, len(traced_walls))
        metrics.update(extra)
        metrics["subspaces_per_s"] = metrics["oracle.subspaces"] / wall_s
        if name == "oracle_sweep":
            check_oracle_spans(metrics, log)
        metrics["error_rate"] = log.failed / log.attempted
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": op_tail,
            "peak_rss_mb": peak_kb / 1024,
        }
    return {
        "workload": name,
        "env": env_record,
        "passes": shown,
        "ops": len(op_times),
        "tail_percentile": pct,
        "problems": log.problems,
        "known_defects": log.known_defects,
        "correct": not log.problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }


def load_declared() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def report(result: dict, traced: bool) -> str:
    """Human-readable lines, then the JSON result line; every metric must be
    declared in BENCHMARK.json and every declared one of the kind is printed."""
    end_to_end, per_layer = load_declared()
    declared = per_layer if traced else end_to_end
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics)) if not traced else []
    if unknown or missing:
        raise ValueError(f"metrics not matching BENCHMARK.json: unknown {unknown}, missing {missing}")
    metrics = {name: float(metrics.get(name, 0.0)) for name in declared}
    env = result["env"]
    lines = [
        f"# workload {result['workload']}  seed {env['seed']}  trace {int(traced)}",
        f"# env nproc={env['nproc']} python={env['python']} cpu={env['cpu']}",
        f"# passes (T traced, I in-process), measured s -> reference s: {' '.join(result['passes'])}",
        f"# ops {result['ops']}  op_tail at p{result['tail_percentile']:.2f}",
        f"# error_rate {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / result['attempted']:.6g}",
    ]
    lines += [f"# known defect: {p}" for p in result["known_defects"][:1]]
    lines += [f"# FAILED: {p}" for p in result["problems"][:5]]
    lines += [f"{name} {value!r} {declared[name]}" for name, value in metrics.items()]
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": declared[name]} for name, v in metrics.items()},
    }))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hullcount" / "__init__.py").is_file():
        print(f"error: no hullcount source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
