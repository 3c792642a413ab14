"""finsite benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload sheaf-oracles --seed 1 --seconds 20 --trace 0

Run from the root of a finsite checkout; finsite is imported from ``src/``.
The workload's operations run in whole passes until at least ``--seconds``
of operation time and two passes have been measured; the seed draws the
order of each pass.  Each pass runs in a process forked from the same
prepared state, so that nothing one pass caches can serve the next, as for
users who start finsite once per report or request.  Every answer is
checked against ``expected.json``.  Times are given at a reference machine
speed (see speed.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced pass (see tracer.py) and prints the per-layer metrics, per pass.  The
last line of stdout is the JSON result; the line before it records the
interpreter, core count, source revision and the unscaled wall times.
Workload reasons and the layer to end-to-end mapping are in README.md beside
this file.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from speed import SpeedMeter
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

# setup_s: a fresh interpreter imports finsite and builds the shipped corpus.
# It probes the machine's speed before and after, in the same interpreter.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from speed import probe, reference_factor\n"
    "probes = [probe() for _ in range(20)]\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import finsite\n"
    "from finsite import corpus\n"
    "corpus.corpus_workspace()\n"
    "took = time.perf_counter() - start\n"
    "probes += [probe() for _ in range(20)]\n"
    "print(repr(took), repr(took * reference_factor(probes)))\n"
)
SETUP_INTERPRETERS = 15
# Each operation is timed in at least this many passes and its median used.
MIN_PASSES = 2
# String hashing decides set iteration order, and with it how soon finsite's
# searches stop, so every measured interpreter uses the same hash seed.
HASH_SEED = "0"

PER_FUNCTION = {
    "presheaf": (
        "enumerate_presheaves",
        "presheaf_morphisms",
        "sheaf_targets",
        "unit_universal_property",
        "compose_morphisms",
        "sheafify",
        "plus",
        "is_sheaf",
    ),
    "fincat": ("validate_category", "comma_category", "validate_functor"),
    "sieves": ("saturate", "is_topology", "enumerate_topologies", "sieve_lattice", "topology_candidate_count"),
    "deciders": (
        "is_continuous",
        "is_comorphism",
        "is_covering_flat",
        "is_dense_morphism",
        "check_prop33_conditions",
    ),
    "fibration": ("grothendieck", "giraud_topology", "direct_image", "inverse_image_adjoint"),
    "generate": ("generate_instance", "gen_site", "shrink_site", "shrink_fibration"),
    "bundles": ("load_bundle",),
    "cli": ("build_parser",),
}


def pin_hash_seed() -> int | None:
    """Re-run this script under ``PYTHONHASHSEED=HASH_SEED`` unless it is set.

    Returns the child's exit code, or None when this process is the one to
    do the work.
    """
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return None
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    return subprocess.run([sys.executable, os.path.abspath(sys.argv[0])] + sys.argv[1:], env=env).returncode


def measure_setup() -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (at reference speed, wall)."""
    wall, scaled = [], []
    for _ in range(SETUP_INTERPRETERS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, HERE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        took, at_reference = done.stdout.split()
        wall.append(float(took))
        scaled.append(float(at_reference))
    return statistics.median(scaled), statistics.median(wall)


def source_revision() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the finsite sources, so that a result names the code it measured."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "finsite")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            commit = fh.read().strip()
        ref = os.path.join(ROOT, ".git", commit[len("ref: "):])
        if commit.startswith("ref: ") and os.path.isfile(ref):
            with open(ref) as fh:
                commit = fh.read().strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def in_forked_child(work) -> dict:
    """Run ``work()`` in a forked copy of this process; return its result.

    The result travels back as JSON through a pipe.  Whatever ``work``
    leaves behind, such as caches, dies with the child.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as out:
                json.dump(work(), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a benchmark pass exited with status {}".format(status))
    return json.loads(data)


def run_pass(ops, expected, trace: bool) -> dict:
    """One pass over ``ops``, timed, checked and optionally traced.

    Runs in a forked child; the speed meter and tracer live and die there.
    """
    tracer = Tracer() if trace else None
    meter = SpeedMeter(tracer.stack if trace else None)
    if trace:
        tracer.install()
    results, spans = [], []
    gc.collect()
    meter.start()
    try:
        for op in ops:
            paused = meter.paused_s
            if trace:
                tracer.active = True
            start = time.perf_counter()
            error = None
            try:
                raw = op.call()
            except Exception as err:  # a crash is a failed operation, not a benchmark crash
                error = err
            finally:
                end = time.perf_counter()
                if trace:
                    tracer.active = False
            spans.append((start, end, end - start - (meter.paused_s - paused)))
            row = {"key": op.key, "group": op.group, "items": 0, "skipped": 0, "failed": True}
            results.append(row)
            if error is None:
                try:
                    outcome = op.finish(raw)
                except Exception as err:
                    error = err
            if error is not None:
                sys.stderr.write("perfbench: {} raised {!r}\n".format(op.key, error))
                continue
            row.update(items=outcome.items, skipped=outcome.skipped, failed=outcome.answer != expected.get(op.key))
            if row["failed"]:
                sys.stderr.write(
                    "perfbench: {} answered {} but {} was recorded\n".format(op.key, outcome.answer, expected.get(op.key))
                )
    finally:
        meter.stop()
    for row, (start, end, took) in zip(results, spans):
        row["wall_s"] = took
        row["scaled_s"] = took * meter.factor(start, end)
    return {
        "ops": results,
        "factor": meter.factor(spans[0][0], spans[-1][1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": tracer.stats if trace else {},
    }


class Measurement:
    """Per-operation times and outcomes of the passes of one phase.

    Every pass runs the same operations, so each operation has one time per
    pass; the per-operation median over passes filters out noise that lasts
    shorter than a pass.
    """

    def __init__(self):
        self.scaled: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.group: dict[str, str] = {}
        self.attempted = 0
        self.items = 0
        self.skipped = 0
        self.failed = 0
        self.passes = 0
        self.busy = 0.0
        self.peak_rss_mb = 0.0
        self.last: dict = {}

    def add(self, done: dict) -> None:
        for row in done["ops"]:
            self.scaled.setdefault(row["key"], []).append(row["scaled_s"])
            self.wall.setdefault(row["key"], []).append(row["wall_s"])
            self.group[row["key"]] = row["group"]
            self.attempted += 1
            self.items += row["items"]
            self.skipped += row["skipped"]
            self.failed += row["failed"]
            self.busy += row["wall_s"]
        self.passes += 1
        self.peak_rss_mb = max(self.peak_rss_mb, done["peak_rss_mb"])
        self.last = done


def run_passes(workload, expected, seconds, rng, first_pass, min_passes, trace=False) -> Measurement:
    m = Measurement()
    while m.passes < min_passes or m.busy < seconds:
        ops = workload.pass_ops(first_pass + m.passes, rng)
        m.add(in_forked_child(lambda: run_pass(ops, expected, trace)))
    return m


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def medians(times: dict[str, list[float]]) -> dict[str, float]:
    return {key: statistics.median(values) for key, values in times.items()}


def summary(m: Measurement, times: dict[str, list[float]]) -> dict[str, float]:
    """Throughput and latency centiles of a pass made of each operation's
    median time."""
    op_times = sorted(medians(times).values())
    centiles = statistics.quantiles(op_times, n=100, method="inclusive")
    return {
        "throughput_per_s": m.items / m.passes / sum(op_times),
        "latency_p50_ms": statistics.median(op_times) * 1e3,
        "latency_p99_ms": centiles[98] * 1e3,
    }


def end_to_end(m: Measurement, setup_s: float) -> dict:
    out = {
        name: metric(value, "1/s" if name.startswith("throughput") else "ms")
        for name, value in summary(m, m.scaled).items()
    }
    out["setup_s"] = metric(setup_s, "s")
    out["peak_rss_mb"] = metric(m.peak_rss_mb, "MB")
    return out


def per_layer(plain: Measurement, traced: Measurement, exp_ids) -> dict:
    # Self times are scaled by the machine's mean speed over the traced pass.
    stats, scale = traced.last["stats"], traced.last["factor"]
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, (_, self_ns) in stats.items():
        layer_self[name.split(".", 1)[0]] += self_ns
    total_self = sum(layer_self.values())
    for layer, self_ns in layer_self.items():
        out["{}.self_s".format(layer)] = metric(self_ns / 1e9 * scale, "s")
        out["{}.share".format(layer)] = metric(self_ns / total_self if total_self else 0.0, "ratio")
    for layer, functions in PER_FUNCTION.items():
        for fn in functions:
            name = "{}.{}".format(layer, fn)
            calls, self_ns = stats.get(name, (0, 0))
            out[name + ".calls"] = metric(calls, "count")
            out[name + ".self_s"] = metric(self_ns / 1e9 * scale, "s")
    plain_medians = medians(plain.scaled)
    group_wall = dict.fromkeys(exp_ids, 0.0)
    for key, median in plain_medians.items():
        group_wall[plain.group[key]] = group_wall.get(plain.group[key], 0.0) + median
    for exp_id in exp_ids:
        out["experiments.{}.wall_s".format(exp_id)] = metric(group_wall[exp_id], "s")
    out["generate.skip_ratio"] = metric(plain.skipped / max(plain.items, 1), "ratio")
    traced_total = sum(medians(traced.scaled).values())
    out["trace.overhead_ratio"] = metric(traced_total / sum(plain_medians.values()), "ratio")
    out["trace.coverage_ratio"] = metric(total_self / 1e9 / traced.busy, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "finsite", "__init__.py")):
        sys.stderr.write("perfbench: no finsite sources under {}\n".format(SRC))
        return 2
    code = pin_hash_seed()
    if code is not None:
        return code
    sys.path.insert(0, SRC)
    import workloads
    from finsite import experiments

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload {!r}; known: {}".format(args.workload, ", ".join(workloads.WORKLOADS)))
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    env = {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "cores": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
    }
    env.update(source_revision())
    if args.trace == 0:
        setup_s, env["setup_wall_s"] = measure_setup()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        # Objects made so far are never garbage; the passes' collector skips them.
        gc.collect()
        gc.freeze()
        rng = random.Random(args.seed)
        plain = run_passes(workload, expected, args.seconds, rng, 0, MIN_PASSES)
        if args.trace == 1:
            # Traced answers are checked against the same recorded answers,
            # so the traced pass reproduces the untraced ones.
            traced = run_passes(workload, expected, 0, rng, plain.passes, 1, trace=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["passes"] = plain.passes
    env["wall"] = summary(plain, plain.wall)
    if args.trace == 0:
        failed, attempted = plain.failed, plain.attempted
        metrics = end_to_end(plain, setup_s)
    else:
        failed, attempted = plain.failed + traced.failed, plain.attempted + traced.attempted
        metrics = per_layer(plain, traced, experiments.all_experiment_ids())
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
