"""Span tracing of mfdl from outside: wrappers around names where they are looked up.

mfdl modules import many functions by name (meanfield imports phi_cross,
phase imports depth_scales, cli imports from simulator), so a wrapper must
replace the name in the module that looks it up, not only where it is
defined.  `instrument` installs every wrapper and `restore` puts the
originals back.

Spans (id, name, start, end, parent) are kept in memory and written out by
the caller when the run ends.  Worker threads of an ensemble have no open
span of their own; their first span is parented to the span the main thread
has open, so the ensemble's wait is covered by the work it waits for.

`wall_shares` splits every instant of the traced wall equally among the
innermost open spans (a span with an open child in any thread is not
innermost).  Single-threaded this is exactly each span's self time;
with parallel instances it divides the wall between them, so the shares of
all layers plus `other` (no span open) always add up to the traced wall.

A traced call costs one to two microseconds more than the bare call, almost all
of it outside its own span, so it would show as self time of the caller's
span; on the theory workloads, with hundreds of thousands of µs-scale
moment calls, that is seconds.  `span_cost` measures the cost of a traced
no-op call, and `wall_shares` moves that cost, per span, from the span that
paid it to a `trace.span_cost` share, so the layers' shares are their own
time and all shares still add up to the traced wall.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import threading
import time

SPAN_COST = "trace.span_cost"
# call counters read off the spans of a window: counter -> span name
CALL_COUNTS = {
    "activations.eval_calls": "activations.eval",
    "quadrature.expect2_calls": "quadrature.expect2",
    "moments.bivariate_calls": "moments.bivariate",
    "moments.univariate_calls": "moments.univariate",
    "phase.crit_evals": "phase.crit_eval",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        # open span ids per thread; made on the main thread, whose stack
        # parents the first span of a worker thread
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()  # counters are updated from ensemble threads
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _push(self) -> tuple[list[int], int, int | None]:
        """Open a span in this thread: (the thread's stack, span id, parent id)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        main = self._main_stack
        parent = stack[-1] if stack else (main[-1] if main else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n=1):
        with self._lock:
            self.counts[name] += n

    def record_max(self, name: str, value: float):
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None, failed=None):
        """Replace owner.attr with a version that records a span `name`.

        `after(args, result)` runs after the span to record counters, and
        `failed(args, exc)` when the call raises.  A name the program no
        longer has is listed in `missing` and skipped.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        push, record, clock = self._push, self.spans.append, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack, sid, parent = push()
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(args, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                record((sid, name, start, end, parent))
            if after is not None:
                after(args, result)
            return result

        self.patch(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def wall_shares(self, start: float, end: float, cost=(0.0, 0.0)) -> dict[str, float]:
        """Seconds of [start, end] attributed to each span name, plus 'other'.

        `cost` is what one traced call adds (outside, inside) its own span,
        as `span_cost` measures it.  For every span of the window with a
        parent, `outside` is taken from its parent's name and `inside` from
        its own, and both go to the `trace.span_cost` share.
        """
        events = []
        parent_of = {}
        name_of = {}
        for sid, name, s, e, parent in self.spans:
            events.append((s, 1, sid))
            events.append((e, 0, sid))  # closes sort before opens at equal times
            parent_of[sid] = parent
            name_of[sid] = name
        events.sort()
        shares: collections.Counter = collections.Counter()
        open_children: collections.Counter = collections.Counter()
        is_open = set()
        leaves = set()
        t_prev = start
        for t, is_start, sid in events:
            t = min(max(t, start), end)
            dt = t - t_prev
            if dt > 0.0:
                if leaves:
                    part = dt / len(leaves)
                    for leaf in leaves:
                        shares[name_of[leaf]] += part
                else:
                    shares["other"] += dt
            t_prev = t
            parent = parent_of[sid]
            if is_start:
                is_open.add(sid)
                leaves.add(sid)
                if parent in is_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                is_open.discard(sid)
                leaves.discard(sid)
                if parent in is_open:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        shares["other"] += max(end - t_prev, 0.0)

        outside, inside = cost
        paid: collections.Counter = collections.Counter()
        for sid, name, s, e, parent in self.spans:
            if parent is not None and start <= s and e <= end:
                paid[name_of[parent]] += outside
                paid[name] += inside
        for name, sec in paid.items():
            sec = min(sec, shares[name])
            shares[name] -= sec
            shares[SPAN_COST] += sec
        return dict(shares)

    def calls(self, start: float, end: float) -> collections.Counter:
        """Spans of each name that lie in [start, end]: its calls."""
        return collections.Counter(name for _, name, s, e, _ in self.spans if start <= s and e <= end)

    def dump(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, s, e, parent in self.spans:
                fh.write(f'[{sid}, "{name}", {s!r}, {e!r}, {"null" if parent is None else parent}]\n')


class _Span:
    __slots__ = ("tracer", "name", "stack", "sid", "parent", "start", "end")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.stack, self.sid, self.parent = self.tracer._push()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append((self.sid, self.name, self.start, self.end, self.parent))
        return False


def span_cost(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one traced call adds to the bare call: (outside, inside) its span.

    Times a no-op wrapped like the hot mfdl names (a span, no counter),
    called under an open span as in the traced pass, against the bare no-op;
    each loop is the fastest of `repeats`.  `inside` is the part between the
    span's own start and end.
    """

    def noop(x):
        return x

    class Probe:
        pass

    probe = Probe()
    probe.f = noop
    tracer = Tracer()
    tracer.wrap(probe, "f", "probe")
    bare, traced = [], []
    with tracer.span("root"):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop(1)
            t1 = time.perf_counter()
            for _ in range(calls):
                probe.f(1)
            t2 = time.perf_counter()
            bare.append((t1 - t0) / calls)
            traced.append((t2 - t1) / calls)
    total = max(min(traced) - min(bare), 0.0)
    within = statistics.median(e - s for _, name, s, e, _ in tracer.spans if name == "probe")
    inside = min(max(within - min(bare), 0.0), total)
    return total - inside, inside


# ---------------------------------------------------------------------------
# mfdl instrumentation
# ---------------------------------------------------------------------------


class _TracedGenerator:
    """Generator proxy timing the draws of one mfdl.simulator stream."""

    def __init__(self, gen, tracer: Tracer, name: str, weights: bool):
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._weights = weights

    def _draw(self, method: str, size):
        with self._tracer.span(self._name):
            out = getattr(self._gen, method)(size)
        if self._weights:
            self._tracer.count("simulator.weight_draws")
            self._tracer.count("simulator.weight_bytes", out.nbytes)
        return out

    def standard_normal(self, size=None):
        return self._draw("standard_normal", size)

    def random(self, size=None):
        return self._draw("random", size)


def instrument(tracer: Tracer, fused_outputs: list | None = None):
    """Install the spans and counters of the traced run on every mfdl layer.

    When `fused_outputs` is a list, every fused per-instance call appends
    (configs, instance, c0, q0s, metrics, result) to it.
    """
    import mfdl.cli as cli
    import mfdl.linear_theory as linear_theory
    import mfdl.meanfield as meanfield
    import mfdl.moments as moments
    import mfdl.phase as phase
    import mfdl.simulator as simulator
    import mfdl.universality as universality
    from mfdl.activations import Activation

    count = tracer.count

    # simulator: weight generation through the keyed streams
    real_stream = simulator.stream

    def traced_stream(seed, instance, role, layer=0):
        weights = role == simulator.ROLE_WEIGHTS
        name = "simulator.weight_gen" if weights else "simulator.aux_gen"
        with tracer.span(name):
            gen = real_stream(seed, instance, role, layer)
        return _TracedGenerator(gen, tracer, name, weights)

    tracer.patch(simulator, "stream", traced_stream)

    def after_instance(args, result):
        configs, instance, c0, q0s, metrics = args
        # computed: two inputs per config, L forward and L-1 backward matvecs
        L, N = configs[0].depth_L, configs[0].width_N
        matvecs = len(configs) * 2 * (2 * L - 1)
        count("simulator.matvecs", matvecs)
        count("simulator.matvec_flops", 2 * N * N * matvecs)
        if fused_outputs is not None:
            fused_outputs.append((configs, instance, c0, q0s, metrics, result))

    tracer.wrap(simulator, "_instance_metrics_many", "simulator.fused", after_instance)
    tracer.wrap(cli, "ensemble_run_many", "simulator.ensemble")
    tracer.wrap(universality, "ensemble_run_many", "simulator.ensemble",
                lambda a, r: count("universality.ensemble_calls"))

    # activations: every elementwise phi / phi' evaluation
    for fn in ("value_at", "derivative_at"):
        tracer.wrap(Activation, fn, "activations.eval")

    # quadrature and moments, wrapped where meanfield and moments look them up
    tracer.wrap(moments, "expect2", "quadrature.expect2")
    for owner in (cli, simulator):
        tracer.wrap(owner, "make_rule", "quadrature.make_rule")
    for fn in ("phi_cross", "dphi_cross"):
        tracer.wrap(meanfield, fn, "moments.bivariate")
    for fn in ("phi_sq", "dphi_sq"):
        tracer.wrap(meanfield, fn, "moments.univariate")

    # meanfield solvers: iteration counts come back in their return values,
    # or in the NonConvergenceError of a diverging solve (the chaotic side
    # of a Linear or ReLU critical line)
    def q_iters(args, result):
        count("meanfield.q_iters", result[1])

    def c_iters(args, result):
        count("meanfield.c_iters", result[1])
        tracer.record_max("meanfield.max_c_iters", result[1])

    def diverged(after):
        return lambda args, exc: after(args, (None, getattr(exc, "iterations", 0)))

    for owner in (meanfield, simulator):
        tracer.wrap(owner, "q_fixed_point", "meanfield.q_solve", q_iters, diverged(q_iters))
    tracer.wrap(meanfield, "_iterate_c_map", "meanfield.c_solve", c_iters, diverged(c_iters))
    for owner in (cli, phase):
        tracer.wrap(owner, "depth_scales", "meanfield.depth_scales")

    # phase
    tracer.wrap(cli, "depth_scale_grid", "phase.grid")
    tracer.wrap(cli, "critical_line", "phase.crit")
    tracer.wrap(phase, "chi1_at_fixed_point", "phase.crit_eval")

    # universality fits
    tracer.wrap(cli, "universality_report", "universality.report")
    tracer.wrap(universality, "fit_power_law", "universality.fit")

    # linear closed forms and CSV output
    for fn in ("g_aa_closed", "g_ab_closed", "independence_baseline"):
        tracer.wrap(linear_theory, fn, "linear_theory.closed")

    tracer.wrap(cli, "_write_csv", "cli.csv_write", lambda a, r: count("cli.csv_bytes", a[0].stat().st_size))
