"""Command-line front end: exports geodesics, time tables, loci,
wavefronts, radii, logarithms and limit comparisons as CSV or JSON.

Output is deterministic: stable row order (lexicographic in grid
indices), floats at 17 significant digits, a single CSV header row,
JSON with a schema field and sorted keys, and no timestamps.  Identical
invocations produce byte-identical files.  Exit codes: 0 success,
1 usage error or unwritable --out, 2 domain error, 3 no convergence.

One table, _COMMANDS, declares each subcommand's handler and flags.  The
configuration is argparse's Namespace: argparse converts each flag (comma
lists to float tuples, --group to a GroupTag), and `run` builds the
metric and covector that a command's flags describe.
"""

from __future__ import annotations

import argparse
import math
import sys

from .algebra import SplitQuaternion
from .errors import DomainError, HypgeoError, NoConvergence
from .geodesic_engine import sample_geodesic, vertical_flow
from .metric_space import (
    CausalType,
    Covector,
    Metric,
    covector_from_components,
    covector_from_pbar3,
    light_covector,
    make_metric,
    metric_from_eta,
)
from .optimality import (
    GroupTag,
    cut_locus_sample,
    describe_cut,
    injectivity_case,
    injectivity_radius,
    maxwell_time,
    riemannian_log,
    wavefront_sample,
)
from .root_solver import conjugate_roots
from .sr_limit import limit_comparison


class UsageError(Exception):
    """Bad flags; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit status 2
        raise UsageError(message)


# ---- parsing -------------------------------------------------------------

def _floats(count: int | None = None):
    """argparse type for comma-separated floats, `count` of them unless
    None; a bad value is a usage error that names the flag."""
    def floats(raw: str) -> tuple[float, ...]:
        values = tuple(float(x) for x in raw.split(","))
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"needs {count} comma-separated numbers")
        return values
    return floats


def _is_number(tok: str) -> bool:
    try:
        float(tok.split(",")[0])  # a comma list by its first field
    except ValueError:
        return False
    return True


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join each --flag to a following number as --flag=value: argparse
    reads -1e6, -inf or -0.5,1,2 as an unknown option, not a value."""
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _is_number(argv[i + 1])):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def parse_args(argv=None) -> argparse.Namespace:
    argv = _merge_flag_values(sys.argv[1:] if argv is None else list(argv))
    parser = _Parser(prog="hypgeo", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    # flags only for the command named by the first token that is not an
    # option: argparse stops at the top level if that token names none
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    for name, (_, flags) in _COMMANDS.items():
        sp = subs.add_parser(name)
        if name == command:
            for flag, options in flags:
                sp.add_argument(flag, **options)

    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "json" if (args.out or "").endswith(".json") else "csv"
    return args


# ---- the metric and covector that run builds ------------------------------

def _build_metric(cfg: argparse.Namespace) -> Metric:
    if (cfg.i3 is None) == (cfg.eta is None):
        raise UsageError("specify exactly one of --I3 or --eta")
    if cfg.i3 is not None:
        return make_metric(cfg.i1, cfg.i3)
    return metric_from_eta(cfg.eta, cfg.i1)


def _build_covector(cfg: argparse.Namespace, m: Metric) -> Covector:
    if cfg.p is not None:
        if cfg.pbar3 is not None or cfg.ctype is not None:
            raise UsageError("--p conflicts with --pbar3/--type")
        return covector_from_components(m, *cfg.p)
    if cfg.ctype is None:
        raise UsageError("covector needs --p, or --pbar3 with --type tl|sl, or --type ll")
    if cfg.ctype == "ll":
        sign = -1 if (cfg.pbar3 is not None and cfg.pbar3 < 0) else 1
        return light_covector(m, cfg.phase, sign)
    if cfg.pbar3 is None:
        raise UsageError("--pbar3 is required with --type tl|sl")
    ct = CausalType.TIME_LIKE if cfg.ctype == "tl" else CausalType.SPACE_LIKE
    return covector_from_pbar3(m, cfg.pbar3, cfg.phase, ct)


# ---- serialization --------------------------------------------------------

def _json_rows(rows) -> list:
    # JSON has no inf or nan: such a cell becomes an object
    return [[{"value": None, "finite": False} if isinstance(v, float) and not math.isfinite(v)
             else v for v in row] for row in rows]


def _render(cfg: argparse.Namespace, columns, rows, nest=None) -> bytes:
    """The one writer of a table: CSV rows under one header, or a JSON
    object with schema, command and the table.  `rows` may be lazy.
    `nest()`, if given, returns the JSON fields that stand in for
    `columns` and `rows`, so each format builds only what it writes."""
    if cfg.format == "csv":
        # one format per table from its first row (every table has one): words
        # as they are, numbers at 17 digits (ints far below 1e17); nothing needs quoting
        rows = iter(rows)
        first = next(rows)
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first)
        lines = [",".join(columns), line % first, *(line % row for row in rows)]
        return ("\r\n".join(lines) + "\r\n").encode("utf-8")
    import json  # here, so that a CSV run never loads it

    table = nest() if nest else {"columns": list(columns), "rows": _json_rows(rows)}
    payload = {"schema": 1, "command": cfg.command, **table}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


# ---- command bodies -------------------------------------------------------

def _cmd_geodesic(cfg: argparse.Namespace, m: Metric, p: Covector) -> bytes:
    if cfg.samples < 2:
        raise UsageError("--samples must be >= 2")
    samples = sample_geodesic(m, p, cfg.t_max, cfg.samples)
    rows = [(s.t, *s.point.components()) for s in samples]
    return _render(cfg, ("t", "q0", "q1", "q2", "q3"), rows)


def _cmd_vertical_flow(cfg: argparse.Namespace, m: Metric, p: Covector) -> bytes:
    if cfg.samples < 2:
        raise UsageError("--samples must be >= 2")
    if not math.isfinite(cfg.t_max):  # t_max * 0 would be NaN at the first sample
        raise DomainError(f"flow end time t_max must be finite, got {cfg.t_max!r}")
    rows = []
    for i in range(cfg.samples):
        t = cfg.t_max * i / (cfg.samples - 1)
        rows.append((t, *vertical_flow(m, p, t)[:3]))
    return _render(cfg, ("t", "p1", "p2", "p3"), rows)


def _cmd_maxwell(cfg: argparse.Namespace, m: Metric, p: Covector) -> bytes:
    return _render(cfg, ("t_maxwell",), [(maxwell_time(m, p),)])


def _cmd_conjugate(cfg: argparse.Namespace, m: Metric, p: Covector) -> bytes:
    if p.ctype is CausalType.TIME_LIKE:
        if cfg.k_max < 1:
            raise UsageError("--k-max must be >= 1")
        taus = conjugate_roots(m, p.pbar3, cfg.k_max)
        scale = 2.0 * m.i1 / p.norm
        rows = [(i + 1, tau, tau * scale) for i, tau in enumerate(taus)]
    else:
        rows = [(0, math.inf, math.inf)]
    return _render(cfg, ("index", "tau", "t"), rows)


def _cmd_cut_time(cfg: argparse.Namespace, m: Metric, p: Covector) -> bytes:
    d = describe_cut(m, p, cfg.group)
    rows = [(d.group.value, d.t_cut, d.t_max, d.t_conj, d.active_stratum or "none")]
    return _render(cfg, ("group", "t_cut", "t_max", "t_conj", "stratum"), rows)


def _cmd_cut_locus(cfg: argparse.Namespace, m: Metric) -> bytes:
    if cfg.grid_n < 2:
        raise UsageError("--grid must be >= 2")
    strata = cut_locus_sample(m, cfg.group, cfg.grid_n, cfg.rho_max)
    point_cols = ("q0", "q1", "q2", "q3", "p1", "p2", "p3", "t")

    def stratum_rows(s):
        return ((idx, *pt.components(), *pw[:3], tw)
                for idx, (pt, (pw, tw)) in enumerate(zip(s.points, s.parameters)))

    def by_stratum():  # JSON nests the points under their stratum
        return {"group": cfg.group.value, "strata": [
            {"stratum": s.stratum, "columns": ["index", *point_cols],
             "rows": _json_rows(stratum_rows(s)), "validation_error": s.validation_error}
            for s in strata]}

    columns = ("stratum", "index", *point_cols, "validation_error")
    rows = ((s.stratum, *row, s.validation_error) for s in strata for row in stratum_rows(s))
    return _render(cfg, columns, rows, by_stratum)


def _cmd_wavefront(cfg: argparse.Namespace, m: Metric) -> bytes:
    if cfg.grid_n < 8:
        raise UsageError("--grid must be >= 8")
    if cfg.t <= 0.0:
        raise UsageError("--t must be positive")
    n = cfg.grid_n
    flag = ("false", "true") if cfg.format == "csv" else (False, True)  # JSON has booleans
    rows = ((*divmod(k, n), *w.covector[:3], *w.point.components(), flag[w.optimal])
            for k, w in enumerate(wavefront_sample(m, cfg.t, n, cfg.group)))
    columns = ("i", "j", "p1", "p2", "p3", "q0", "q1", "q2", "q3", "optimal")
    return _render(cfg, columns, rows)


def _cmd_injrad(cfg: argparse.Namespace, m: Metric) -> bytes:
    return _render(cfg, ("radius", "case"), [(injectivity_radius(m), injectivity_case(m.eta))])


def _cmd_log(cfg: argparse.Namespace, m: Metric) -> bytes:
    p, t = riemannian_log(m, SplitQuaternion(*cfg.target))
    return _render(cfg, ("p1", "p2", "p3", "t"), [(p.p1, p.p2, p.p3, t)])


def _cmd_sr_compare(cfg: argparse.Namespace) -> bytes:
    ct = CausalType.TIME_LIKE if cfg.ctype == "tl" else CausalType.SPACE_LIKE
    rows = limit_comparison(cfg.pbar3, ct, list(cfg.eta_list))
    return _render(cfg, ("eta", "riemannian_cut", "sr_cut", "abs_diff"), rows)


# ---- the command table ----------------------------------------------------
#
# Each subcommand, in `hypgeo --help` order, with its handler and its flags:
# (name, add_argument's keyword arguments), added in the order listed.  `run`
# passes a handler the Metric and Covector of its _METRIC and _COVECTOR flags.

_METRIC = (("--I1", dict(dest="i1", type=float, default=1.0)),
           ("--I3", dict(dest="i3", type=float, default=None)),
           ("--eta", dict(dest="eta", type=float, default=None)))
_COVECTOR = (("--p", dict(dest="p", type=_floats(3), default=None,
                          help="covector components p1,p2,p3 (validated on C)")),
             ("--pbar3", dict(dest="pbar3", type=float, default=None)),
             ("--phase", dict(dest="phase", type=float, default=0.0)),
             ("--type", dict(dest="ctype", choices=("tl", "ll", "sl"), default=None)))
_OUTPUT = (("--out", dict(dest="out", type=str, default=None)),
           ("--format", dict(dest="format", choices=("csv", "json"), default=None)))
_GROUP = (("--group", dict(dest="group", type=GroupTag, default=GroupTag.PSL2,
                           metavar="{%s}" % ",".join(g.value for g in GroupTag))),)
_SAMPLES = (("--t-max", dict(dest="t_max", type=float, required=True)),
            ("--samples", dict(dest="samples", type=int, default=200)))
_GRID = ("--grid", dict(dest="grid_n", type=int, default=64))

_COMMANDS = {
    "geodesic": (_cmd_geodesic, _METRIC + _COVECTOR + _OUTPUT + _SAMPLES),
    "vertical-flow": (_cmd_vertical_flow, _METRIC + _COVECTOR + _OUTPUT + _SAMPLES),
    "maxwell": (_cmd_maxwell, _METRIC + _COVECTOR + _OUTPUT),
    "conjugate": (_cmd_conjugate, _METRIC + _COVECTOR + _OUTPUT + (
        ("--k-max", dict(dest="k_max", type=int, default=6)),)),
    "cut-time": (_cmd_cut_time, _METRIC + _COVECTOR + _OUTPUT + _GROUP),
    "cut-locus": (_cmd_cut_locus, _METRIC + _OUTPUT + _GROUP + (
        _GRID, ("--rho-max", dict(dest="rho_max", type=float, default=3.0)))),
    "wavefront": (_cmd_wavefront, _METRIC + _OUTPUT + _GROUP + (
        ("--t", dict(dest="t", type=float, required=True)), _GRID)),
    "injrad": (_cmd_injrad, _METRIC + _OUTPUT),
    "log": (_cmd_log, _METRIC + _OUTPUT + (
        ("--target", dict(dest="target", type=_floats(4), required=True,
                          help="target element q0,q1,q2,q3 (unit pseudo-norm)")),)),
    "sr-compare": (_cmd_sr_compare, _OUTPUT + (
        ("--pbar3", dict(dest="pbar3", type=float, required=True)),
        ("--type", dict(dest="ctype", choices=("tl", "sl"), required=True)),
        ("--eta-list", dict(dest="eta_list", type=_floats(), required=True)))),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: argparse.Namespace) -> int:
    """Execute one validated configuration; returns the exit status."""
    try:
        handler, flags = _COMMANDS[cfg.command]
        inputs = [_build_metric(cfg)] if _METRIC[0] in flags else []
        if _COVECTOR[0] in flags:  # every covector command has a metric
            inputs.append(_build_covector(cfg, inputs[0]))
        data = handler(cfg, *inputs)
    except UsageError as exc:
        print(f"hypgeo: usage error: {exc}", file=sys.stderr)
        return 1
    except NoConvergence as exc:
        print(f"hypgeo: convergence failure: {exc}", file=sys.stderr)
        return 3
    except HypgeoError as exc:
        print(f"hypgeo: domain error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        try:
            with open(cfg.out, "wb") as f:
                f.write(data)
        except OSError as exc:  # a missing directory, a directory, no permission
            print(f"hypgeo: cannot write --out: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"hypgeo: usage error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
