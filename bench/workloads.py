"""The four benchmark workloads: seeded op lists, how one op runs, and
the check every op's output must pass.

The discrete choices (group, grid size, causal type, subcommand) occur
equally often, and the continuous inputs of each choice come from a
randomly shifted low-discrepancy lattice (see lattice()).  So two seeds
give lists of nearly the same cost while every op is still new.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass

import hypgeo
import hypgeo.cli

from checks import exp_closed_form
from probes import child_env

LOG_NEG_ETA = (math.log(1.05), math.log(4.0))   # eta in [-4, -1.05]
POLE_SPLIT = {"psl2": -1.5, "sl2": -2.0}       # extra axis strata above these
CLI_TIMEOUT_S = 120.0


def lattice(rng, count, dims):
    """count points of [0, 1)^dims: the Kronecker sequence i*alpha (mod 1)
    with the R_d constants alpha_j = phi_d^-(j+1), under a random shift.
    Every seed gives a translate of one evenly spread point set, so seeds
    bring new inputs but cost nearly the same and fail nearly as often."""
    phi = 2.0
    for _ in range(80):  # phi_d is the positive root of x^(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(j + 1) for j in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    return [tuple((s + (i + 1) * a) % 1.0 for s, a in zip(shift, alpha)) for i in range(count)]


def log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def eta_of(u):
    return -math.exp(LOG_NEG_ETA[0] + u * (LOG_NEG_ETA[1] - LOG_NEG_ETA[0]))


def balanced(rng, combos, count, dims):
    """count (combo, point) pairs in random order: every combo equally
    often, each with its own shifted lattice of `dims` coordinates."""
    per = -(-count // len(combos))
    out = [(combo, point) for combo in combos for point in lattice(rng, per, dims)]
    rng.shuffle(out)
    return out[:count]


def group_tag(name):
    return hypgeo.GroupTag(name)


# ---- locus ----------------------------------------------------------------

@dataclass(frozen=True)
class LocusOp:
    eta: float
    group: str
    n: int


class Locus:
    """cut_locus_sample over (eta, group, n); the root solver dominates."""

    name = "locus"
    size = 204
    warmup = LocusOp(-1.25, "psl2", 8)

    def make_ops(self, rng, count):
        combos = [(g, n) for g in ("psl2", "sl2") for n in (8, 12, 16)]
        return [LocusOp(eta_of(u), g, n) for (g, n), (u,) in balanced(rng, combos, count, 1)]

    def run(self, op):
        m = hypgeo.metric_from_eta(op.eta)
        return hypgeo.cut_locus_sample(m, group_tag(op.group), op.n)

    def check(self, op, strata):
        plane = "Z" if op.group == "psl2" else "H"
        axis = "R_eta" if op.group == "psl2" else "T_eta"
        expected = [(plane, op.n * op.n)]
        if op.eta > POLE_SPLIT[op.group]:
            expected += [(axis, op.n), ("ConjugateCircle", 2)]
        got = [(s.stratum, len(s.points)) for s in strata]
        if got != expected:
            return f"strata {got} != {expected}"
        for s in strata:
            for pt in s.points:
                q0, q1, q2, q3 = pt.components()
                if not all(math.isfinite(c) for c in (q0, q1, q2, q3)):
                    return f"{s.stratum}: non-finite point"
                if s.stratum == "Z":
                    bad = abs(q0) > 1e-9
                elif s.stratum == "H":
                    bad = abs(q3) > 1e-9 or q0 > -1.0
                else:
                    bad = abs(q1) > 1e-9 or abs(q2) > 1e-9
                if bad:
                    return f"{s.stratum}: point {pt.components()} off its stratum"
        return None


# ---- wavefront ------------------------------------------------------------

@dataclass(frozen=True)
class WavefrontOp:
    eta: float
    group: str
    n: int
    t: float


class Wavefront:
    """wavefront_sample: n^2 exp_map calls against n cut times."""

    name = "wavefront"
    size = 102
    warmup = WavefrontOp(-1.4, "psl2", 48, 3.3)

    def __init__(self):
        self.optimal = [0, 0]  # [false, true] flags seen; both must occur

    def make_ops(self, rng, count):
        # n = 48 twice as often as 64, so that neither p50 nor p90 falls
        # in the gap between the two sizes' latencies
        combos = [(g, n) for g in ("psl2", "sl2") for n in (48, 48, 64)]
        ops = []
        for (g, n), (u, v) in balanced(rng, combos, count, 2):
            eta = eta_of(u)
            radius = hypgeo.injectivity_radius(hypgeo.metric_from_eta(eta))
            # t in (0, 2 radius) so both optimality flags occur
            ops.append(WavefrontOp(eta, g, n, 2.0 * radius * (0.01 + 0.98 * v)))
        return ops

    def run(self, op):
        m = hypgeo.metric_from_eta(op.eta)
        return hypgeo.wavefront_sample(m, op.t, op.n, group_tag(op.group))

    def check(self, op, points):
        if len(points) != op.n * op.n:
            return f"{len(points)} points, expected {op.n * op.n}"
        for w in points:
            q0, q1, q2, q3 = w.point.components()
            scale = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
            if not abs(q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3 - 1.0) <= 1e-9 * scale:
                return f"pseudo-norm off 1 at {w.point.components()}"
            self.optimal[bool(w.optimal)] += 1
        return None


# ---- log ------------------------------------------------------------------

@dataclass(frozen=True)
class LogOp:
    eta: float
    kind: str
    target: tuple
    t: float


class Log:
    """riemannian_log on targets Exp(p, f min(t_cut, 60)); far space-like
    targets are kept even though some of them fail to converge."""

    name = "log"
    size = 450
    kinds = ("time-like", "space-like", "light-like")

    def __init__(self):
        self.warmup = self.make_op("time-like", -1.25, 1.4, 1, 0.3, 0.5)

    @staticmethod
    def make_op(kind, eta, b, sign, phase, f):
        m = hypgeo.metric_from_eta(eta)
        if kind == "light-like":
            p = hypgeo.light_covector(m, phase, sign)
        else:
            ctype = hypgeo.CausalType.TIME_LIKE if kind == "time-like" else hypgeo.CausalType.SPACE_LIKE
            p = hypgeo.covector_from_pbar3(m, sign * b, phase, ctype)
        t = f * min(hypgeo.cut_time(m, p, hypgeo.GroupTag.PSL2), 60.0)
        return LogOp(eta, kind, hypgeo.exp_map(m, p, t).components(), t)

    def make_ops(self, rng, count):
        ops = []
        for kind, (u, v, w) in balanced(rng, self.kinds, count, 3):
            b = log_uniform(v, 1.0, 4.0) if kind == "time-like" else log_uniform(v, 0.01, 3.0)
            sign = rng.choice((1, -1))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            ops.append(self.make_op(kind, eta_of(u), b, sign, phase, 0.05 + 0.9 * w))
        return ops

    def run(self, op):
        m = hypgeo.metric_from_eta(op.eta)
        return hypgeo.riemannian_log(m, hypgeo.SplitQuaternion(*op.target))

    def check(self, op, result):
        p, t = result
        if not abs(t - op.t) <= 1e-7 * (1.0 + op.t):
            return f"t = {t!r}, generated at {op.t!r}"
        i1 = 1.0
        i3 = -i1 / (1.0 + op.eta)
        e = exp_closed_form(i1, i3, p.components(), p.ctype is hypgeo.CausalType.LIGHT_LIKE, t)
        tol = 1e-9 * max(1.0, max(abs(c) for c in op.target))
        if not any(all(abs(s * a - b) <= tol for a, b in zip(e, op.target)) for s in (1.0, -1.0)):
            return f"Exp(log(q)) = {e} != {op.target}"
        return None


# ---- cli ------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    argv: tuple
    rows: int


def _num(x):
    return repr(float(x))


class Cli:
    """Real `python -m hypgeo.cli` subprocesses over all ten subcommands."""

    name = "cli"
    size = 100
    warmup = CliOp(("injrad", "--eta", "-1.6", "--format", "csv"), 1)
    distinct = 8   # per subcommand; two more ops repeat the first two verbatim

    def __init__(self, root):
        self.env = child_env(root)
        self.root = root
        self.seen = {}
        self.out_bytes = 0

    def make_ops(self, rng, count):
        per_cmd = []
        for cmd in hypgeo.cli.COMMANDS:
            ops = [self._make(cmd, i, eta_of(u), frac, rng)
                   for i, (u, frac) in enumerate(lattice(rng, self.distinct, 2))]
            per_cmd.extend(ops + ops[:2])
        rng.shuffle(per_cmd)
        return per_cmd[:count]

    def _make(self, cmd, i, eta, frac, rng):
        fmt = ("csv", "json")[i % 2]
        group = ("psl2", "sl2")[(i // 2) % 2]
        kind = ("tl", "sl", "ll")[i % 3]
        sign = rng.choice((1, -1))
        if kind == "tl":
            b = sign * log_uniform(frac, 1.0, 4.0)
        else:
            b = sign * log_uniform(frac, 0.01, 3.0)
        momentum = ["--type", kind, "--pbar3", _num(b), "--phase", _num(rng.uniform(0.0, 6.28))]
        metric = ["--eta", _num(eta)]
        rows = 1
        if cmd in ("geodesic", "vertical-flow"):
            samples = (20, 50, 100, 200)[i % 4]
            args = metric + momentum + ["--t-max", _num(1.0 + 9.0 * frac), "--samples", str(samples)]
            rows = samples
        elif cmd == "maxwell":
            args = metric + momentum
        elif cmd == "conjugate":
            k = 1 + i % 6
            args = metric + momentum + ["--k-max", str(k)]
            rows = 2 * k if kind == "tl" else 1
        elif cmd == "cut-time":
            args = metric + momentum + ["--group", group]
        elif cmd == "cut-locus":
            n = (4, 5, 6, 7, 8, 4, 6, 8)[i]
            args = metric + ["--group", group, "--grid", str(n)]
            rows = n * n + (n + 2 if eta > POLE_SPLIT[group] else 0)
        elif cmd == "wavefront":
            n = (8, 12, 16, 24)[i % 4]
            radius = hypgeo.injectivity_radius(hypgeo.metric_from_eta(eta))
            args = metric + ["--group", group, "--grid", str(n), "--t", _num(2.0 * radius * (0.01 + 0.98 * frac))]
            rows = n * n
        elif cmd == "injrad":
            args = list(metric)
        elif cmd == "log":
            # near targets of moderate momenta: the far, failing ones are
            # the log workload's business, this workload times the front end
            if i % 2:
                op = Log.make_op("time-like", eta, log_uniform(frac, 1.1, 3.0), sign, rng.uniform(0.0, 6.28), 0.1 + 0.5 * frac)
            else:
                op = Log.make_op("space-like", eta, log_uniform(frac, 0.3, 3.0), sign, rng.uniform(0.0, 6.28), 0.1 + 0.4 * frac)
            args = metric + ["--target", ",".join(_num(c) for c in op.target)]
        else:  # sr-compare
            sr_kind = ("tl", "sl")[i % 2]
            b = sign * (log_uniform(frac, 1.05, 4.0) if sr_kind == "tl" else log_uniform(frac, 0.05, 3.0))
            etas = (-1.5 - 0.5 * frac, -1.1 - 0.3 * frac, -1.001 - 0.09 * frac)
            args = ["--type", sr_kind, "--pbar3", _num(b), "--eta-list", ",".join(_num(e) for e in etas)]
            rows = 3
        return CliOp((cmd, *args, "--format", fmt), rows)

    def run(self, op):
        """One real CLI process, stdout to a pipe."""
        proc = subprocess.run(
            [sys.executable, "-m", "hypgeo.cli", *op.argv],
            env=self.env, cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, op):
        """hypgeo.cli.main on the same argv, stdout captured in memory."""
        buf = io.BytesIO()
        out = io.TextIOWrapper(buf, encoding="utf-8")
        saved = sys.stdout
        sys.stdout = out
        try:
            status = hypgeo.cli.main(list(op.argv))
        finally:
            sys.stdout = saved
        out.flush()
        return status, buf.getvalue()

    def check(self, op, result):
        status, data = result
        if status != 0:
            return f"exit status {status}"
        self.out_bytes += len(data)
        if op.argv[-1] == "csv":
            rows = len(list(csv.reader(io.StringIO(data.decode("utf-8"))))) - 1
        else:
            payload = json.loads(data)
            if "strata" in payload:
                rows = sum(len(s["rows"]) for s in payload["strata"])
            else:
                rows = len(payload["rows"])
        if rows != op.rows:
            return f"{rows} rows, expected {op.rows}"
        first = self.seen.setdefault(op.argv, data)
        if first != data:
            return "output bytes differ between identical invocations"
        return None


def make(name, root):
    if name == "cli":
        return Cli(root)
    return {"locus": Locus, "wavefront": Wavefront, "log": Log}[name]()

