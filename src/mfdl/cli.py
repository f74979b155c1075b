"""Command-line entry point: configure, run, and emit CSV/JSON.

Subcommands
-----------
  lengthmap      theory iterates of the length/correlation maps per dropout
                 rate, optionally with simulator ensemble dots
  gradsim        per-layer gradient-metric statistics plus closed-form and
                 slope-extrapolation baselines
  universality   variance-vs-mean power-law fit table and raw scatter
  phase          depth-scale and trainable-length curves over a weight grid
  critical-line  weight variance where chi1 = 1
  fixed-point    (q*, c*, chi1, chi2, xi1, xi2) at one hyperparameter point

Each run is driven by a single JSON config document; command-line flags
override config fields.  Every output file starts with a comment line
embedding the fully resolved config, plus a timestamp line that
--no-header-timestamp suppresses (making reruns byte-identical).  Reals are
written with 17 significant digits; infinities appear as the literal string
"inf" in CSV and as null plus a companion *_infinite flag in JSON.

Progress goes to stderr; stdout carries one machine-readable JSON summary.
Exit codes: 0 success, 1 usage/config error, 2 numerical non-convergence,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import linear_theory
from .activations import Activation
from .errors import ConfigError, MfdlError, NonConvergenceError
from .meanfield import (
    MeanFieldParams,
    c_trajectory,
    depth_scales,
    q_trajectory,
)
from .phase import critical_line, default_grid, depth_scale_grid
from .simulator import EnsembleStats, NetworkConfig, ensemble_run_many
from .universality import universality_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _fmt(x) -> str:
    """CSV cell: 17 significant digits, 'inf'/'nan' literals, '' for None."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _json_real(x: float):
    """JSON value for a possibly infinite real: (value, infinite_flag)."""
    if x is None or math.isnan(x):
        return None, False
    if math.isinf(x):
        return None, True
    return float(x), False


def _write_csv(path: Path, header_cols, rows, config: dict, timestamp: bool):
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    if timestamp:
        lines.append("# generated: " + time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return cfg


def _resolve(defaults: dict, file_cfg: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; unknown file keys rejected."""
    cfg = dict(defaults)
    for key, val in file_cfg.items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {key!r}; valid: {sorted(defaults)}")
        cfg[key] = val
    for key in ("seed", "threads", "instances", "out"):
        val = getattr(args, key, None)
        if val is not None and key in defaults:
            cfg[key] = val
    if args.no_header_timestamp and "header_timestamp" in cfg:
        cfg["header_timestamp"] = False
    return cfg


def _get(cfg: dict, key: str, kind=float):
    """cfg[key] converted by `kind`; a malformed value is a config error."""
    try:
        return kind(cfg[key])
    except (TypeError, ValueError, KeyError):
        raise ConfigError(f"malformed value for {key!r}: {cfg[key]!r}") from None


def _params(cfg: dict) -> MeanFieldParams:
    return MeanFieldParams(
        sigma_w_sq=_get(cfg, "sigma_w_sq"),
        sigma_b_sq=_get(cfg, "sigma_b_sq"),
        rho=_get(cfg, "rho") if "rho" in cfg else 1.0,
    )


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _stderr_cells(st: EnsembleStats):
    """Per-layer stderr cells: blank where one instance leaves it undefined."""
    if st.n_instances > 1:
        return st.per_layer_stderr
    return [None] * len(st.per_layer_mean)


# Shared config blocks: ensemble recipes draw seeded instances on `threads`
# workers, file recipes write CSVs under `out`.
_ENSEMBLE = {"seed": 0, "threads": 1}
_OUTPUT = {"out": ".", "header_timestamp": True}


# ---------------------------------------------------------------------------
# lengthmap
# ---------------------------------------------------------------------------

_LENGTHMAP_DEFAULTS = {
    "activation": "linear",
    "sigma_w_sq": 0.25,
    "sigma_b_sq": 2.25,
    "rhos": [1.0, 0.7, 0.4],
    "quantity": "q",  # "q" or "c"
    "q0": 1.0,
    "c0": 0.9,
    "layers": 20,
    "simulate": True,
    "width": 1000,
    "instances": 100,
    **_ENSEMBLE,
    **_OUTPUT,
}


def cmd_lengthmap(cfg: dict) -> dict:
    act = Activation.parse(cfg["activation"])
    quantity = cfg["quantity"]
    if quantity not in ("q", "c"):
        raise ConfigError(f"quantity must be 'q' or 'c', got {quantity!r}")
    layers = _get(cfg, "layers", int)
    q0, c0 = _get(cfg, "q0"), _get(cfg, "c0")
    rhos = _get(cfg, "rhos", lambda v: [float(r) for r in v])
    if not rhos:
        raise ConfigError("rhos must be a nonempty list")

    theory = {}
    for rho in rhos:
        p = replace(_params(cfg), rho=rho)
        if quantity == "q":
            theory[rho] = q_trajectory(q0, layers, p, act)
        else:
            theory[rho] = c_trajectory(q0, c0, layers, p, act)[1]

    sims = {rho: (None, None) for rho in rhos}
    if cfg["simulate"]:
        metric = "q_aa" if quantity == "q" else "c_ab"
        n_inst = _get(cfg, "instances", int)
        net_cfgs = [
            NetworkConfig(
                depth_L=layers,
                width_N=_get(cfg, "width", int),
                params=replace(_params(cfg), rho=rho),
                activation=act,
                seed=_get(cfg, "seed", int),
            )
            for rho in rhos
        ]
        _progress(f"lengthmap: simulating {len(rhos)} dropout rates x {n_inst} instances")
        stats = ensemble_run_many(
            net_cfgs, n_inst, c0=c0, metrics=(metric,),
            q0s=[q0] * len(rhos), threads=_get(cfg, "threads", int),
        )
        for rho, st in zip(rhos, stats):
            sims[rho] = (st[metric].per_layer_mean, _stderr_cells(st[metric]))

    out_dir = Path(cfg["out"])
    files = []
    for rho in rhos:
        sim_mean, sim_err = sims[rho]
        rows = []
        for l in range(layers):
            rows.append(
                (
                    l + 1,
                    theory[rho][l],
                    None if sim_mean is None else sim_mean[l],
                    None if sim_err is None else sim_err[l],
                    rho,
                )
            )
        path = out_dir / f"lengthmap_{quantity}_rho{rho:g}.csv"
        _write_csv(
            path,
            ("layer_or_qin", "theory", "sim_mean", "sim_stderr", "rho"),
            rows,
            cfg,
            cfg["header_timestamp"],
        )
        files.append(str(path))
    return {"command": "lengthmap", "files": files}


# ---------------------------------------------------------------------------
# gradsim
# ---------------------------------------------------------------------------

_GRADSIM_DEFAULTS = {
    "activation": "linear",
    "sigma_w_sq": 0.5,
    "sigma_b_sq": 0.1,
    "rho": 1.0,
    "depth": 200,
    "width": 1000,
    "instances": 100,
    "c0": 0.9,
    "q0": None,  # null -> solve the length fixed point
    **_ENSEMBLE,
    **_OUTPUT,
}

_GRAD_METRICS = ("g_aa", "g_ab", "g_tilde_ab")


def cmd_gradsim(cfg: dict) -> dict:
    act = Activation.parse(cfg["activation"])
    p = _params(cfg)
    depth, width = _get(cfg, "depth", int), _get(cfg, "width", int)
    n_inst = _get(cfg, "instances", int)
    net_cfg = NetworkConfig(depth, width, p, act, seed=_get(cfg, "seed", int))
    d = depth_scales(p, act)  # before the ensemble: a divergent length map ends the run here
    q0 = _get(cfg, "q0") if cfg["q0"] is not None else d.q_star
    c0 = _get(cfg, "c0")

    _progress(f"gradsim: {act.value} L={depth} N={width} x {n_inst} instances")
    stats = ensemble_run_many(
        [net_cfg], n_inst, c0=c0, metrics=_GRAD_METRICS,
        q0s=[q0], threads=_get(cfg, "threads", int),
    )[0]
    means = {m: stats[m].per_layer_mean for m in _GRAD_METRICS}
    errs = {m: _stderr_cells(stats[m]) for m in _GRAD_METRICS}

    q_ab_star = d.c_star * d.q_star
    is_linear = act is Activation.LINEAR
    base_aa = float(means["g_aa"][depth - 1])
    base_ab = float(means["g_ab"][depth - 1])

    rows = []
    for l in range(1, depth + 1):
        bl_aa, bl_ab = linear_theory.independence_baseline(
            l, depth, d.chi1, d.chi2, base_aa, base_ab
        )
        rows.append(
            (
                l,
                means["g_aa"][l - 1],
                errs["g_aa"][l - 1],
                means["g_ab"][l - 1],
                errs["g_ab"][l - 1],
                means["g_tilde_ab"][l - 1],
                errs["g_tilde_ab"][l - 1],
                linear_theory.g_aa_closed(l, depth, p, d.q_star) if is_linear else None,
                linear_theory.g_ab_closed(l, depth, p, q_ab_star) if is_linear else None,
                bl_aa,
                bl_ab,
            )
        )
    path = Path(cfg["out"]) / "gradsim.csv"
    _write_csv(
        path,
        (
            "layer",
            "g_aa_mean", "g_aa_stderr",
            "g_ab_mean", "g_ab_stderr",
            "g_tilde_ab_mean", "g_tilde_ab_stderr",
            "g_aa_closed", "g_ab_closed",
            "baseline_chi1_g_aa", "baseline_chi2_g_ab",
        ),
        rows,
        cfg,
        cfg["header_timestamp"],
    )
    return {"command": "gradsim", "files": [str(path)]}


# ---------------------------------------------------------------------------
# universality
# ---------------------------------------------------------------------------

_UNIVERSALITY_DEFAULTS = {
    "rows": [
        {"activation": a, "rho": r, "width": 500}
        for a in ("linear", "relu", "tanh", "hardtanh")
        for r in (1.0, 0.7, 0.4)
    ],
    "sigma_w_sq": 0.3,
    "sigma_b_sq": 0.1,
    "depth": 200,
    "instances": 30,
    "c0": 0.9,
    **_ENSEMBLE,
    **_OUTPUT,
}


def _row_triples(rows) -> list:
    return [(Activation.parse(r["activation"]), float(r["rho"]), int(r["width"])) for r in rows]


def cmd_universality(cfg: dict) -> dict:
    triples = _get(cfg, "rows", _row_triples)
    if not triples:
        raise ConfigError("universality needs a nonempty 'rows' list")
    n_inst = _get(cfg, "instances", int)
    if n_inst < 2:  # every fit needs a per-layer variance
        raise ConfigError(f"universality needs instances >= 2, got {n_inst}")
    base = NetworkConfig(
        depth_L=_get(cfg, "depth", int),
        width_N=triples[0][2],
        params=_params(cfg),
        activation=triples[0][0],
        seed=_get(cfg, "seed", int),
    )
    _progress(f"universality: {len(triples)} configs x {cfg['instances']} instances")
    rows = universality_report(
        triples, base, n_inst, c0=_get(cfg, "c0"),
        threads=_get(cfg, "threads", int),
    )

    out_dir = Path(cfg["out"])
    fit_rows, scatter_rows = [], []
    for r in rows:
        if r.fit is None:
            continue
        fit_rows.append(
            (
                r.activation.value, r.rho, r.width, r.metric,
                r.fit.exponent, r.fit.log_intercept, r.fit.r_squared,
                r.fit.n_points, r.n_excluded,
            )
        )
        for l, m, v in zip(r.layers, r.layer_means, r.layer_variances):
            scatter_rows.append((r.activation.value, r.rho, r.width, r.metric, l, m, v))
    fits_path = out_dir / "universality_fits.csv"
    _write_csv(
        fits_path,
        ("activation", "rho", "width", "metric", "exponent", "intercept",
         "r_squared", "n_points", "n_excluded"),
        fit_rows,
        cfg,
        cfg["header_timestamp"],
    )
    scatter_path = out_dir / "universality_scatter.csv"
    _write_csv(
        scatter_path,
        ("activation", "rho", "width", "metric", "layer", "mean", "variance"),
        scatter_rows,
        cfg,
        cfg["header_timestamp"],
    )
    n_failed = sum(1 for r in rows if r.error is not None)
    return {
        "command": "universality",
        "files": [str(fits_path), str(scatter_path)],
        "rows_failed": n_failed,
    }


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

_PHASE_DEFAULTS = {
    "activation": "tanh",
    "rho": 1.0,
    "sigma_b_sq": 0.05,
    "grid_min": 1.0,
    "grid_max": 4.0,
    "grid_points": 64,
    "grid_log": True,
    **_OUTPUT,
}


def cmd_phase(cfg: dict) -> dict:
    act = Activation.parse(cfg["activation"])
    grid = default_grid(
        _get(cfg, "grid_min"), _get(cfg, "grid_max"),
        _get(cfg, "grid_points", int), bool(cfg["grid_log"]),
    )
    p_base = MeanFieldParams(
        sigma_w_sq=grid[0], sigma_b_sq=_get(cfg, "sigma_b_sq"), rho=_get(cfg, "rho")
    )
    _progress(f"phase: {act.value} rho={cfg['rho']} over {grid.size} grid points")
    curve = depth_scale_grid(grid, p_base, act)
    for msg in curve.diagnostics:
        _progress(f"phase: not converged: {msg}")
    rows = [
        (
            curve.sigma_w_sq_grid[i], curve.q_star[i], curve.c_star[i],
            curve.chi1[i], curve.chi2[i], curve.xi1[i], curve.xi2[i],
            curve.bound_12xi1[i], curve.bound_6xi2[i], curve.bound_12xi2[i],
            curve.trainable_bound[i], bool(curve.converged[i]),
        )
        for i in range(grid.size)
    ]
    path = Path(cfg["out"]) / "phase.csv"
    _write_csv(
        path,
        ("sigma_w_sq", "q_star", "c_star", "chi1", "chi2", "xi1", "xi2",
         "b12xi1", "b6xi2", "b12xi2", "trainable_bound", "converged"),
        rows,
        cfg,
        cfg["header_timestamp"],
    )
    return {"command": "phase", "files": [str(path)]}


# ---------------------------------------------------------------------------
# critical-line / fixed-point
# ---------------------------------------------------------------------------

_CRITICAL_DEFAULTS = {
    "activation": "linear",
    "rho": 1.0,
    "sigma_b_sq": 0.05,
    "bracket_lo": 0.25,
    "bracket_hi": 4.0,
}


def cmd_critical_line(cfg: dict) -> dict:
    act = Activation.parse(cfg["activation"])
    p_base = MeanFieldParams(
        sigma_w_sq=_get(cfg, "bracket_lo"),
        sigma_b_sq=_get(cfg, "sigma_b_sq"),
        rho=_get(cfg, "rho"),
    )
    crit = critical_line(
        p_base, act, (_get(cfg, "bracket_lo"), _get(cfg, "bracket_hi"))
    )
    return {"command": "critical-line", "sigma_w_sq_crit": crit, "config": cfg}


_FIXED_POINT_DEFAULTS = {
    "activation": "tanh",
    "sigma_w_sq": 1.4,
    "sigma_b_sq": 0.1,
    "rho": 1.0,
    "c0": 0.9,
}


def cmd_fixed_point(cfg: dict) -> dict:
    act = Activation.parse(cfg["activation"])
    d = depth_scales(_params(cfg), act, c0=_get(cfg, "c0"))
    out = {"command": "fixed-point", "config": cfg}
    out["q_star"] = d.q_star
    out["c_star"] = d.c_star
    out["chi1"] = d.chi1
    out["chi2"] = d.chi2
    for name, val in (("xi1", d.xi1), ("xi2", d.xi2)):
        v, infinite = _json_real(val)
        out[name] = v
        out[name + "_infinite"] = infinite
    out["counters"] = {"q_evals": d.q_evals, "c_evals": d.c_evals}
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "lengthmap": (cmd_lengthmap, _LENGTHMAP_DEFAULTS),
    "gradsim": (cmd_gradsim, _GRADSIM_DEFAULTS),
    "universality": (cmd_universality, _UNIVERSALITY_DEFAULTS),
    "phase": (cmd_phase, _PHASE_DEFAULTS),
    "critical-line": (cmd_critical_line, _CRITICAL_DEFAULTS),
    "fixed-point": (cmd_fixed_point, _FIXED_POINT_DEFAULTS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfdl",
        description="Mean-field depth scales for deep dropout networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} recipe")
        p.add_argument("--config", help="JSON config document")
        # every recipe accepts these two; critical-line and fixed-point
        # write no files, so they do nothing there
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--no-header-timestamp",
            action="store_true",
            help="omit the timestamp header line (byte-identical reruns)",
        )
        if "instances" in defaults:  # the ensemble recipes
            p.add_argument("--seed", type=int, help="base seed (64-bit)")
            p.add_argument("--threads", type=int, help="parallel instances (default: 1)")
            p.add_argument("--instances", type=int, help="ensemble size")
    return parser


# main parses with one parser per process: building it takes ~0.8 ms of the
# 1.1 ms a Linear fixed-point query costs, and parsing leaves it unchanged
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    command, defaults = _COMMANDS[args.command]
    try:
        summary = command(_resolve(defaults, _load_config(args.config), args))
    except ConfigError as exc:
        print(f"mfdl: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"mfdl: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MfdlError as exc:
        print(f"mfdl: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _IOFailure as exc:
        print(f"mfdl: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
