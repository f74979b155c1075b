"""mfdl benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload gradsim --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, and scratch output goes to ./.bench_work.

--trace 0 runs passes of the workload while the next one fits in --seconds
(at least three), with no tracing, and after each pass one set-up probe in
a fresh interpreter.  It reports the end-to-end metrics:

  setup_s            median over the probes (at least 5) of the time from
                     `import mfdl` to the first call into the recipe
  wall_s             wall time of the median pass (setup excluded)
  work_per_s         work per pass over wall_s: single-input layer passes
                     (gradsim, universality) or solves (phase: grid points,
                     queries: queries)
  latency_p50_ms,    percentiles of the latency of one request, over every
  latency_p90_ms     request of every pass: an ensemble instance (gradsim,
                     universality), a grid-point solve (phase) or a query
  peak_rss_mb        peak resident set of the benchmark process

--trace 1 runs two untraced passes, then one pass with a span around every
layer boundary (see tracer.py), then, for the simulator workloads, re-runs
fused instances through the single-trace API (forward, backward,
gradient_metrics), which must agree bit for bit and gives the per-phase
simulator split.  Finally one untraced pass on a second seed must pass the
same checks.  It reports the per-layer metrics: wall shares of the traced
pass, with the measured cost of the spans themselves taken out into
trace.span_cost_s, that add up to its wall (trace.wall_s), the identity
re-run's forward/backward/reduce self times, the traced pass's counters,
and the tracing overhead against the faster untraced pass.

Every CLI call must exit 0; the first pass of a seed is checked against
closed forms or the oracle values in reference.json, and every later pass
must repeat its CSVs and JSON summaries byte for byte
(--no-header-timestamp).  Exit codes and repeats count once per CLI call,
so `attempted` is the same for every run of a seed, however many passes
fit.  The last line of stdout is one JSON object with keys correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MFDL_THREADS")


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    # the ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class LatencyTimer:
    """Times every call of module.attr while active; one sample per call."""

    def __init__(self, target):
        self.target = target
        self.samples: list[float] = []

    def __enter__(self):
        if self.target is not None:
            module = importlib.import_module(self.target[0])
            self.original = original = getattr(module, self.target[1])
            samples = self.samples

            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    samples.append(time.perf_counter() - t0)  # atomic under the GIL

            setattr(module, self.target[1], timed)
        return self

    def __exit__(self, *exc):
        if self.target is not None:
            setattr(importlib.import_module(self.target[0]), self.target[1], self.original)
        return False


class Runner:
    """Writes the config files of one seed and runs passes over them."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.calls = workload.calls(seed)
        self.dir = work / f"seed{seed}"
        self.paths = []
        for k, call in enumerate(self.calls):
            path = self.dir / f"config{k}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(call.config, sort_keys=True), encoding="utf-8")
            self.paths.append(path)
        self.first_snapshot = None
        self.misses: dict[int, str] = {}  # call index -> first miss of any pass

    def run_pass(self, cli, tracer=None):
        """One pass: (wall seconds, per-call seconds, (exit codes, stdouts, summaries, files))."""
        per_call, outs, rcs = [], [], []
        t_pass = time.perf_counter()
        for k, (call, path) in enumerate(zip(self.calls, self.paths)):
            argv = [call.command, "--config", str(path), "--out", str(self.dir / f"out{k}"),
                    "--no-header-timestamp"]
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
            per_call.append(time.perf_counter() - t0)
            rcs.append((rc, stderr.getvalue()))
            outs.append(stdout.getvalue())
        wall = time.perf_counter() - t_pass
        summaries = [json.loads(o) if o.strip() else {} for o in outs]
        files = [
            {Path(f).name: Path(f).read_bytes() for f in s.get("files", [])} for s in summaries
        ]
        return wall, per_call, (rcs, outs, summaries, files)

    def check(self, result, checks, ref):
        """Checks the first pass's outputs; notes any later pass's exit or change.

        Exit codes and repeats are counted by `finish`, once per call, so
        that `attempted` does not depend on how many passes fit in a run.
        """
        rcs, outs, summaries, files = result
        for k, (call, (rc, err)) in enumerate(zip(self.calls, rcs)):
            if rc != 0:
                self.misses.setdefault(k, f"{call.command} exited {rc}: {err.strip()[-300:]}")
        snapshot = list(zip(outs, files))
        if self.first_snapshot is not None:
            # same seed, --no-header-timestamp: every later pass must repeat the
            # first byte for byte, so the first pass's checks cover it too
            for k, (call, now, first) in enumerate(zip(self.calls, snapshot, self.first_snapshot)):
                if now != first:
                    self.misses.setdefault(k, f"{call.command}: output differs from the first pass")
        elif all(rc == 0 for rc, _ in rcs):
            self.first_snapshot = snapshot
            self.workload.check(self.calls, summaries, files, checks, ref)

    def finish(self, checks):
        """One check per call: it exited 0 and repeated the first pass on every pass."""
        checks.expect(self.first_snapshot is not None, "no pass had every call exit 0")
        for k, call in enumerate(self.calls):
            checks.expect(k not in self.misses, self.misses.get(k, ""))


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_ENTRY = {
    "gradsim": "ensemble_run_many",
    "universality": "universality_report",
    "phase": "depth_scale_grid",
    "fixed-point": "depth_scales",
    "critical-line": "critical_line",
}


def setup_seconds(runner: Runner) -> float:
    """Fresh-interpreter set-up time of the runner's first call."""
    call, path = runner.calls[0], runner.paths[0]
    argv = [sys.executable, str(BENCH / "setup_probe.py"), _ENTRY[call.command],
            call.command, str(path), str(runner.dir / "probe")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pctl(samples, p):
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(wl, runner, cli, seconds, checks, ref, report):
    """Passes, each followed by a set-up probe, while the next fits in `seconds`.

    Every pass repeats the same requests on the same inputs.  wall_s is the
    median pass, and the latency percentiles are taken over every request
    (instance, grid point, query) of every pass.  On a shared host the
    speed of the same work drifts by tens of percent, in phases of seconds
    to a minute; medians over the whole run follow the host's typical
    speed, where the fastest pass depends on how fast its fastest moment
    happened to be.  Set-up probes are spread between the passes for the
    same reason.
    """
    latencies = []
    t_start = time.perf_counter()
    walls, setup = [], []
    while len(walls) < 3 or (time.perf_counter() - t_start + statistics.median(walls)
                             + statistics.median(setup) <= seconds):
        with LatencyTimer(wl.latency_target) as timer:
            wall, per_call, result = runner.run_pass(cli)
        walls.append(wall)
        latencies.extend(timer.samples if wl.latency_target else per_call)
        runner.check(result, checks, ref)
        setup.append(setup_seconds(runner))
    runner.finish(checks)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(runner))
    wall = statistics.median(walls)
    ops = wl.ops(runner.calls)
    report(f"{len(walls)} passes of {len(runner.calls)} CLI calls, {ops} {wl.ops_unit}s, "
           f"{min(walls):.4f} s to {max(walls):.4f} s a pass; latency over {len(latencies)} "
           f"samples, one per {wl.latency_unit} and pass; {len(setup)} set-up probes")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (ops / wall, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * _pctl(latencies, 90), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def identity_check(tracer, wl, fused, checks):
    """Single-trace API vs the fused ensemble, bit for bit, for instance 0."""
    import numpy as np
    from mfdl import simulator as sim

    found = [f for f in fused if f[1] == 0]
    checks.expect(bool(found), "no fused ensemble call for instance 0 was traced")
    if not found:
        return
    configs, instance, c0, q0s, metrics, result = found[0]
    for k in wl.identity_configs:
        cfg = configs[k]
        net = sim.sample_network(cfg, instance)
        x_a, x_b = sim.sample_inputs(cfg.width_N, q0s[k], c0, cfg.seed, instance)
        with tracer.span("simulator.forward"):
            t_a = sim.forward(net, x_a, sim.ROLE_MASK_A)
            t_b = sim.forward(net, x_b, sim.ROLE_MASK_B)
        with tracer.span("simulator.backward"):
            g_a = sim.backward(net, t_a)
            g_b = sim.backward(net, t_b)
        with tracer.span("simulator.reduce"):
            single = sim.gradient_metrics(g_a, g_b)
        for m in metrics:
            checks.expect(np.array_equal(single[m], result[k][m]),
                          f"single-trace {m} differs from the fused ensemble "
                          f"({cfg.activation.value} rho={cfg.params.rho})")


# wall shares of the traced pass; they, `other` and the cost of the spans
# themselves add up to trace.wall_s
SHARE_NAMES = (
    "simulator.weight_gen", "simulator.aux_gen", "simulator.fused", "simulator.ensemble",
    "activations.eval", "quadrature.expect2", "quadrature.make_rule",
    "moments.bivariate", "moments.univariate",
    "meanfield.q_solve", "meanfield.c_solve", "meanfield.depth_scales",
    "phase.grid", "phase.crit", "phase.crit_eval",
    "universality.report", "universality.fit", "linear_theory.closed",
    "cli.csv_write", "cli.main", "other", "trace.span_cost",
)
# self times of the single-trace identity re-run (its own window)
IDENTITY_NAMES = ("simulator.forward", "simulator.backward", "simulator.reduce")
COUNT_NAMES = (
    "simulator.weight_draws", "simulator.weight_bytes", "simulator.matvecs", "simulator.matvec_flops",
    "activations.eval_calls", "quadrature.expect2_calls",
    "moments.bivariate_calls", "moments.univariate_calls",
    "meanfield.q_iters", "meanfield.c_iters", "phase.crit_evals",
    "universality.ensemble_calls", "cli.csv_bytes",
)


def _report_shares(report, title, shares, wall):
    report(f"{title}: {wall:.4f} s; shares add up to {sum(shares.values()):.4f} s")
    for name, sec in sorted(shares.items(), key=lambda kv: -kv[1]):
        if sec > 0.0:
            report(f"  {name:28s} {sec:9.4f} s  {100.0 * sec / wall:5.1f}%")


def traced(wl, runner, second, cli, checks, ref, spans_path, report):
    from tracer import CALL_COUNTS, Tracer, instrument, span_cost

    # the first pass warms caches; the faster of the two is the untraced reference
    untraced = []
    for _ in range(2):
        wall, _, result = runner.run_pass(cli)
        untraced.append(wall)
        runner.check(result, checks, ref)
    untraced_wall = min(untraced)

    # the cost of a span, measured right before and right after the traced
    # pass, as the host's speed drifts
    cost_before = span_cost()
    tracer = Tracer()
    fused = []
    instrument(tracer, fused)
    try:
        with tracer.span("bench") as pass_root:
            _, _, result = runner.run_pass(cli, tracer)
        cost = tuple(0.5 * (b + a) for b, a in zip(cost_before, span_cost()))
        counts = dict(tracer.counts)
        calls = tracer.calls(pass_root.start, pass_root.end)
        counts.update({counter: calls[name] for counter, name in CALL_COUNTS.items()})
        if wl.identity_configs:
            with tracer.span("bench") as identity_root:
                identity_check(tracer, wl, fused, checks)
    finally:
        tracer.restore()
    runner.check(result, checks, ref)
    runner.finish(checks)

    # the same checks on a second seed
    _, _, result = second.run_pass(cli)
    second.check(result, checks, ref)
    second.finish(checks)

    windows = [pass_root] + ([identity_root] if wl.identity_configs else [])
    shares, walls = [], []
    for root in windows:
        part = tracer.wall_shares(root.start, root.end, cost)
        part["other"] = part.pop("bench", 0.0) + part.get("other", 0.0)
        shares.append(part)
        walls.append(root.end - root.start)
    tracer.dump(spans_path)
    report(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    report(f"one traced call costs {1e6 * cost[0]:.3f} us outside and {1e6 * cost[1]:.3f} us "
           "inside its span; shares exclude it, trace.span_cost_s sums it")
    if tracer.missing:
        report("not traced (name not found): " + ", ".join(tracer.missing))
    _report_shares(report, "traced pass", shares[0], walls[0])
    if len(windows) > 1:
        _report_shares(report, "single-trace identity re-run", shares[1], walls[1])

    metrics = {f"{n}_s": (shares[0].get(n, 0.0), "s") for n in SHARE_NAMES}
    for n in IDENTITY_NAMES:
        metrics[f"{n}_s"] = (shares[1].get(n, 0.0) if len(shares) > 1 else 0.0, "s")
    metrics.update({n: (float(counts.get(n, 0)), "count") for n in COUNT_NAMES})
    metrics["meanfield.max_c_iters"] = (float(tracer.maxima.get("meanfield.max_c_iters", 0)), "count")
    metrics["checks.tanh_gh_max_rel_err"] = (max(checks.known, default=0.0), "ratio")
    metrics["trace.wall_s"] = (walls[0], "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (walls[0] - untraced_wall, "s")
    metrics["trace.identity_wall_s"] = (walls[1] if len(walls) > 1 else 0.0, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mfdl" / "__init__.py").is_file():
        print(f"bench: no mfdl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mfdl.cli as cli

    def report(line):
        print(f"{args.workload}: {line}", flush=True)

    info = machine()
    report("machine " + json.dumps(info, sort_keys=True))

    wl = workloads.make(args.workload, threads=info["nproc"])
    ref = workloads.load_reference()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    checks = workloads.Checks(known_bound=wl.known_gh_bound)
    try:
        runner = Runner(wl, args.seed, work)
        if args.trace:
            second = Runner(wl, args.seed + 1, work)
            spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced(wl, runner, second, cli, checks, ref, spans_path, report)
        else:
            metrics = end_to_end(wl, runner, cli, args.seconds, checks, ref, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        report(f"{name} = {value!r} {unit}")
    report(f"checks: {checks.attempted} attempted, {checks.failed} failed "
           f"(failed_frac {checks.failed / max(checks.attempted, 1):.6g}), of which "
           f"{len(checks.known)} are the known Tanh GH64 c*/chi2 deviation "
           f"(max rel. error {max(checks.known, default=0.0):.2e})")
    for msg in checks.failures[:20]:
        report(f"  FAILED {msg}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
