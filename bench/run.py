"""hypgeo benchmark: four closed-loop workloads, one client each.

    python3 bench/run.py --workload locus|wavefront|log|cli|all --seed N \
        --seconds S --trace 0|1

Each run builds a fixed, seeded op list, runs one warm-up op, then runs
the list in order, pass after pass, for S seconds and at least one whole
pass.  Every op's output is checked; the result counts each op of the
list once, as failed if any of its executions failed.  --trace 0
reports the end-to-end metrics; --trace 1 reruns the list untraced and
then once traced, and reports the per-layer metrics.  The last line of stdout is one JSON
object; a record of the run (machine, seed, op counts, failures) and, for
traced runs, the spans go to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probes
import speed
from tracer import OP_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
NAMES = ("locus", "wavefront", "log", "cli")
SETUP_RUNS = 7
IMPORT_RUNS = 5
SPANS_WRITTEN = 100_000
REFERENCE_WINDOW = 8  # executions on each side whose reference times scale one op


def import_hypgeo():
    """hypgeo from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hypgeo
    except ImportError as exc:
        sys.exit(f"bench: cannot import hypgeo from {src}: {exc}")
    if Path(hypgeo.__file__).resolve().parent != src / "hypgeo":
        sys.exit(f"bench: hypgeo came from {hypgeo.__file__}, not from {src}")


@dataclass
class Loop:
    """Outcomes of one timed loop over a list of `size` ops.

    runs holds (op index, wall seconds, reference seconds) per execution,
    in execution order; the reference work ran right before the op.
    attempted, failed and wrong count executions, which grow with the
    number of passes; failed_ops and wrong_ops hold the indices of the
    ops that failed in any execution, which depend on the seed alone.
    """

    size: int
    runs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failed_ops: set = field(default_factory=set)
    wrong_ops: set = field(default_factory=set)
    wall_s: float = 0.0
    errors: collections.Counter = field(default_factory=collections.Counter)
    examples: list = field(default_factory=list)

    def per_op(self, scaled):
        """Each op's median latency over its executions.  Scaled latencies
        divide by the median reference time of the executions around
        each one, which averages out the jitter of single reference runs
        but follows the drift of the machine (see speed.py)."""
        refs = [ref for _, _, ref in self.runs]
        values = [[] for _ in range(self.size)]
        for e, (k, t, _) in enumerate(self.runs):
            if scaled:
                near = refs[max(0, e - REFERENCE_WINDOW):e + REFERENCE_WINDOW + 1]
                t *= speed.REFERENCE_S / statistics.median(near)
            values[k].append(t)
        return [statistics.median(v) for v in values]

    def timing(self, scaled):
        """ops_per_s is the ops in the list over the sum of their
        latencies: the rate of one closed-loop client over one pass."""
        lat = self.per_op(scaled)
        return {
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": metric(statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        }


def measure(wl, ops, runner, seconds, one_pass=False, tracer=None):
    loop = Loop(len(ops))
    n = len(ops)
    i = 0
    begin = perf_counter()
    while i < n or (not one_pass and perf_counter() - begin < seconds):
        k = i % n
        i += 1
        ref = speed.reference_seconds()
        if tracer is not None:
            tracer.op_id = k
        t0 = perf_counter()
        try:
            out, err = runner(ops[k]), None
        except Exception as exc:  # any exception is one failed op; keep going
            out, err = None, f"{type(exc).__name__}: {exc}"
        loop.runs.append((k, perf_counter() - t0, ref))
        loop.attempted += 1
        if err is None:
            err = wl.check(ops[k], out)
            if err is not None:
                loop.wrong += 1
                loop.wrong_ops.add(k)
                err = "check: " + err
        if err is not None:
            loop.failed += 1
            loop.failed_ops.add(k)
            loop.errors[err.split(":")[0]] += 1
            if len(loop.examples) < 20 and k not in {e["op"] for e in loop.examples}:
                loop.examples.append({"op": k, "input": repr(ops[k])[:300], "error": err[:300]})
    loop.wall_s = perf_counter() - begin
    return loop


def build(workload, seed, count):
    import workloads  # imports hypgeo, so only after import_hypgeo()

    wl = workloads.make(workload, str(ROOT))
    ops = wl.make_ops(random.Random(f"{workload}:{seed}"), count or wl.size)
    return wl, ops


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, ops):
    out = wl.run(wl.warmup)
    if wl.check(wl.warmup, out) is not None:
        raise RuntimeError("warm-up op failed its check")
    loop = measure(wl, ops, wl.run, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup = probes.setup_seconds(str(ROOT), args.workload, args.seed, SETUP_RUNS)
    # the reference tracks this process; cli ops run in child processes,
    # so their latencies, like setup_s, are plain wall time
    scaled = args.workload != "cli"
    metrics = {
        **loop.timing(scaled),
        "ok_frac": metric(1.0 - len(loop.failed_ops) / loop.size, "frac"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    other = {("unscaled" if scaled else "scaled") + "_timing": loop.timing(not scaled)}
    return loop, metrics, {"untraced": loop}, other


def per_layer(args, wl, ops):
    base = wl.run_in_process if args.workload == "cli" else wl.run
    if wl.check(wl.warmup, base(wl.warmup)) is not None:
        raise RuntimeError("warm-up op failed its check")
    plain = measure(wl, ops, base, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        if args.workload == "cli":
            wl.out_bytes = 0
        traced = measure(wl, ops, tracer.wrap(OP_SPAN, base), 0.0, one_pass=True, tracer=tracer)
    finally:
        tracer.uninstall()
    imports = probes.import_ms(str(ROOT), IMPORT_RUNS)
    metrics = layer_metrics(tracer, traced.attempted)
    metrics["cli.output_bytes_per_op"] = metric(
        wl.out_bytes / traced.attempted if args.workload == "cli" else 0.0, "bytes/op")
    metrics["cli.import_hypgeo_ms"] = metric(imports["hypgeo"], "ms")
    metrics["cli.import_numpy_ms"] = metric(imports["numpy"], "ms")
    metrics["src.lines"] = metric(probes.src_lines(str(ROOT)), "lines")
    rates = [lp.timing(scaled=True)["ops_per_s"]["value"] for lp in (traced, plain)]
    metrics["trace.overhead_frac"] = metric(1.0 - rates[0] / rates[1], "frac")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"
    written = tracer.write_spans(spans_path, SPANS_WRITTEN)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans_total": len(tracer.name_col),
             "spans_written": written}
    loop = Loop(len(ops), plain.runs + traced.runs, plain.attempted + traced.attempted,
                plain.failed + traced.failed, plain.wrong + traced.wrong,
                plain.failed_ops | traced.failed_ops, plain.wrong_ops | traced.wrong_ops,
                plain.wall_s + traced.wall_s, plain.errors + traced.errors,
                (plain.examples + traced.examples)[:20])
    return loop, metrics, {"untraced": plain, "traced": traced}, extra


# modules whose self time and share the traced run reports
LAYER_SHARES = ("root_solver", "geodesic_engine", "metric_space", "optimality", "algebra")


def layer_metrics(tracer, n_ops):
    tot = collections.defaultdict(lambda: [0, 0.0, 0.0], tracer.totals())
    op_time = tot[OP_SPAN][1]
    own = collections.Counter()
    for name, (_, _, self_s) in tot.items():
        own[name.split(".")[0]] += self_s

    def calls(*names):
        return sum(tot[n][0] for n in names)

    def us_per_call(*names):
        c = calls(*names)
        return sum(tot[n][1] for n in names) / c * 1e6 if c else 0.0

    under_log = tracer.calls_under(
        "optimality.riemannian_log", ("geodesic_engine.exp_map", "optimality.cut_time"))
    maxwell = ("root_solver.maxwell_root_q0", "root_solver.maxwell_root_q3")
    m = {}
    for mod in LAYER_SHARES:
        m[f"{mod}.self_ms_per_op"] = metric(own[mod] * 1e3 / n_ops, "ms/op")
        m[f"{mod}.share"] = metric(own[mod] / op_time, "frac")
    m.update({
        "root_solver.maxwell_root.calls_per_op": metric(calls(*maxwell) / n_ops, "calls/op"),
        "root_solver.maxwell_root.us_per_call": metric(us_per_call(*maxwell), "us"),
        "root_solver.scan_evals_per_root": metric(
            tracer.scan_evals / tracer.roots_found if tracer.roots_found else 0.0, "evals"),
        "root_solver.conjugate_roots.calls_per_op": metric(
            calls("root_solver.conjugate_roots") / n_ops, "calls/op"),
        "geodesic_engine.exp_map.calls_per_op": metric(
            calls("geodesic_engine.exp_map") / n_ops, "calls/op"),
        "geodesic_engine.exp_map.us_per_call": metric(us_per_call("geodesic_engine.exp_map"), "us"),
        "metric_space.covector_from_components.calls_per_op": metric(
            calls("metric_space.covector_from_components") / n_ops, "calls/op"),
        "algebra.psl2_canonicalize.calls_per_op": metric(
            calls("algebra.psl2_canonicalize") / n_ops, "calls/op"),
        "optimality.cut_time.calls_per_op": metric(calls("optimality.cut_time") / n_ops, "calls/op"),
        "optimality.riemannian_log.exp_map_calls_per_op": metric(
            under_log["geodesic_engine.exp_map"] / n_ops, "calls/op"),
        "optimality.riemannian_log.cut_time_calls_per_op": metric(
            under_log["optimality.cut_time"] / n_ops, "calls/op"),
        "cli.parse_args.self_ms_per_op": metric(tot["cli.parse_args"][2] * 1e3 / n_ops, "ms/op"),
        "cli.run.self_ms_per_op": metric(tot["cli.run"][2] * 1e3 / n_ops, "ms/op"),
        "sr_limit.self_ms_per_op": metric(own["sr_limit"] * 1e3 / n_ops, "ms/op"),
    })
    return m


def run_one(args):
    import_hypgeo()
    threads = os.environ.pop("HYPGEO_THREADS", None)
    wl, ops = build(args.workload, args.seed, args.ops)
    if args.setup_probe:
        wl.run(wl.warmup)
        return 0
    loop, metrics, loops, extra = (per_layer if args.trace else end_to_end)(args, wl, ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": probes.machine(str(ROOT)),
        "HYPGEO_THREADS": {"bench": threads or "unset", "hypgeo": "unset"},
        "ops_in_list": len(ops),
        "loops": {
            name: {"executions": lp.attempted, "failed_executions": lp.failed,
                   "wrong_executions": lp.wrong, "failed_ops": len(lp.failed_ops),
                   "wall_s": lp.wall_s, "passes": lp.attempted / len(ops),
                   "errors": dict(lp.errors)}
            for name, lp in loops.items()
        },
        **extra,
        "failed_frac": len(loop.failed_ops) / loop.size,
        "failure_examples": loop.examples,
        "metrics": metrics,
    }
    if args.workload == "wavefront":
        record["optimal_flags"] = {"false": wl.optimal[0], "true": wl.optimal[1]}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    for name, mv in metrics.items():
        print(f"{args.workload} {name} {mv['value']:.6g} {mv['unit']}")
    # every op in the list ran at least once; an op counts once, as failed
    # if any of its executions failed, so the counts follow from the seed
    # and not from how many passes fit in --seconds
    result = {"correct": not loop.wrong_ops, "attempted": loop.size,
              "failed": len(loop.failed_ops), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload in its own fresh process; one JSON object per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"bench: workload {name} failed with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="ops in the list (default: the workload's size); small for smoke tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops < 0 or args.seconds <= 0:
        ap.error("--ops must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
