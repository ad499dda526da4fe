"""gotzmann benchmark: one workload run, printed as metrics by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,hilbert,betti,cli} \
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics.  One fresh interpreter makes
PASSES timed passes over one seeded batch of ops, with the library caches
cleared before each; between the passes, and before and after them, run.py
times PROBES_PER_GAP more fresh interpreters from spawn to ready (setup_s).
Every timing is scaled to a nominal host speed by the reference kernel timed
around it (see Speed), and each op's figure is the median of its passes.
--trace 1 measures the per-layer metrics in one fresh interpreter: untraced
and traced passes over the same batch, alternated U T U U T with the library
caches cleared before each pass; the first traced pass gives the layer
figures and the ratio of traced to untraced wall time gives trace.overhead.
All passes must give the same output digest.

Every run checks each op against the benchmark's own oracles.  The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it ("detail ...") records the environment, digests, the
percentile behind op_ms.tail and the sample counts.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from tracer import CACHES, OP_SPAN, SPAN_LAYERS  # noqa: E402
from worker import PASSES, reference  # noqa: E402
from workloads import NAMES  # noqa: E402

PROBES_PER_GAP = 3
REFS_PER_PROBE = 10
# The reference kernel's time at the speed the figures are scaled to: about
# its time on an unloaded 2-CPU host of the kind the benchmark was built on.
REF_NOMINAL_S = 0.0005
TAIL_BEYOND = 10
DEADLINE_S = 170.0

END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

COUNTERS = (
    ("linalg.rank.large.entries", "count"),
    ("lex.lexify.gens_out", "count"),
    ("numpoly.rep_terms", "count"),
    ("resolution.over_cap_ideals", "count"),
    ("monomial_algebra.series_verify_s", "s"),
)
CLI_PARTS = ("interpreter_ms", "import_ms", "dispatch_ms")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in SPAN_LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out.extend((name, unit, "lower") for name, unit in COUNTERS)
    for label, _, _ in CACHES:
        out.append((f"cache.{label}.hits", "count", "higher"))
        out.append((f"cache.{label}.misses", "count", "lower"))
        out.append((f"cache.{label}.hit_ratio", "ratio", "higher"))
    out.extend((f"cli.{part}", "ms", "lower") for part in CLI_PARTS)
    out.append(("bench.self_s", "s", "lower"))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # users get cached bytecode after the first import; so do the probes
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, mode: str, **extra) -> list[str]:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return cmd


def setup_probe(args, env) -> tuple[float, float]:
    """Start time and seconds from spawning a fresh interpreter to its READY line."""
    start = time.perf_counter()
    with subprocess.Popen(worker_cmd(args, "setup", seconds=args.seconds), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if line != "READY" or proc.returncode != 0:
        raise BenchError(f"setup probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return start, elapsed


def run_worker(args, env, deadline: float, mode: str, **extra) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the run started")
    try:
        proc = subprocess.run(worker_cmd(args, mode, **extra), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Session:
    """A --trace 0 worker driven line by line over its stdin and stdout.
    The worker sends one line per request and then waits, so no more than
    one line is ever pending in the pipe."""

    def __init__(self, args, env, deadline: float) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(worker_cmd(args, "run", seconds=args.seconds), cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def readline(self) -> str:
        timeout = self.deadline - time.perf_counter()
        line = self.proc.stdout.readline() if timeout > 0 and self.selector.select(timeout) else None
        if not line:
            self.close()
            err = self.proc.stderr.read().strip()[-2000:]
            what = "ended" if line == "" else "ran out of time"
            raise BenchError(f"worker {what} (exit {self.proc.returncode}): {err}")
        return line.strip()

    def request(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.readline()

    def close(self) -> None:
        self.selector.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def interleaved_run(args, env, deadline) -> tuple[dict, list, list]:
    """PASSES timed passes in one worker, with PROBES_PER_GAP setup probes
    before, between and after them, each probe between REFS_PER_PROBE runs of
    the reference kernel on either side; nothing runs in parallel."""
    probes, refs = [], []

    def probe_gap():
        for _ in range(PROBES_PER_GAP):
            refs.extend((time.perf_counter(), reference()) for _ in range(REFS_PER_PROBE))
            probes.append(setup_probe(args, env))
            refs.extend((time.perf_counter(), reference()) for _ in range(REFS_PER_PROBE))

    session = Session(args, env, deadline)
    try:
        if session.readline() != "READY":
            raise BenchError("worker did not start")
        for _ in range(PASSES):
            probe_gap()
            if session.request("pass") != "ok":
                raise BenchError("worker did not finish a pass")
        probe_gap()
        res = json.loads(session.request("done"))
    finally:
        session.close()
    return res, probes, refs


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


class Speed:
    """The host's speed along one run, read from the reference kernel's
    timings (worker.reference) as nominal ÷ measured reference time."""

    def __init__(self, refs) -> None:
        refs = sorted(tuple(ref) for ref in refs)
        self.times = [t for t, _ in refs]
        self.values = [v for _, v in refs]

    def around(self, t0: float, t1: float) -> float:
        """Speed over [t0, t1]: from the last reference before t0 through the
        first one after t1."""
        i = max(0, bisect.bisect_left(self.times, t0) - 1)
        j = bisect.bisect_right(self.times, t1) + 1
        return REF_NOMINAL_S / statistics.median(self.values[i:j])

    def overall(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.values)


def end_to_end(args, env, deadline) -> tuple[dict, dict, dict]:
    """Metrics, detail record and raw worker result of one --trace 0 run."""
    res, probes, refs = interleaved_run(args, env, deadline)
    speed = Speed(refs + res["refs_s"])
    # each op: the median of its passes, each latency scaled to the nominal
    # speed by the host's speed around it
    per_op = zip(zip(*res["latencies_s"]), zip(*res["starts_s"]))
    lat_ms = sorted(1000.0 * statistics.median(lat * speed.around(t, t + lat)
                                               for lat, t in zip(lats, starts))
                    for lats, starts in per_op)
    raw_ms = sorted(1000.0 * statistics.median(lats) for lats in zip(*res["latencies_s"]))
    if len(lat_ms) <= TAIL_BEYOND:
        raise BenchError(f"only {len(lat_ms)} ops in the batch")
    # the highest percentile with TAIL_BEYOND samples above it (nearest rank)
    tail_rank = len(lat_ms) - TAIL_BEYOND
    raw_setup_s = statistics.median(elapsed for _, elapsed in probes)
    metrics = {
        "ops_per_s": 1000.0 * len(lat_ms) / sum(lat_ms),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.tail": lat_ms[tail_rank - 1],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": raw_setup_s * speed.overall(),
    }
    detail = {
        "ops": len(lat_ms),
        "pass_walls_s": res["walls_s"],
        "host_speed": speed.overall(),
        "unscaled": {
            "ops_per_s": 1000.0 * len(raw_ms) / sum(raw_ms),
            "op_ms.p50": statistics.median(raw_ms),
            "op_ms.tail": raw_ms[tail_rank - 1],
            "setup_s": raw_setup_s,
        },
        "op_ms.tail_percentile": 100.0 * tail_rank / len(lat_ms),
        "op_ms.tail_samples_beyond": TAIL_BEYOND,
        "op_ms.max": lat_ms[-1],
        "failed_ops": res["failed"] / res["attempted"],
        "setup_probes_s": [elapsed for _, elapsed in probes],
        "digest": res["digest"],
        "failures": res["failures"],
        "gates": res.get("gates"),
    }
    return metrics, detail, res


def per_layer(args, env, deadline) -> tuple[dict, dict, dict]:
    """Metrics, detail record and raw worker result of one --trace 1 run."""
    res = run_worker(args, env, deadline, "trace", seconds=args.seconds)
    metrics = {name: 0 for name, _, _ in per_layer_spec()}
    layers = res.get("layers", {})
    covered = 0.0
    for layer in SPAN_LAYERS:
        if layer in layers:
            metrics[f"{layer}.calls"] = layers[layer]["calls"]
            metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
            covered += layers[layer]["self_s"]
    metrics.update(res.get("counters", {}))
    metrics.update(res.get("caches", {}))
    timings = res.get("cli_timings")
    if timings:
        for part in CLI_PARTS:
            metrics[f"cli.{part}"] = statistics.median(t[part] for t in timings)
        covered = sum(sum(t[p] for p in CLI_PARTS) for t in timings) / 1000.0
    metrics["trace.wall_s"] = res["traced_wall_s"]
    metrics["bench.self_s"] = res["traced_wall_s"] - covered
    metrics["trace.overhead"] = sum(res["traced_walls_s"]) / sum(res["plain_walls_s"]) - 1.0
    detail = {
        "ops": res["ops"],
        "plain_walls_s": res["plain_walls_s"],
        "traced_walls_s": res["traced_walls_s"],
        "digests": res["digests"],
        "failures": res["failures"],
    }
    if OP_SPAN in layers:
        # the tracer's own bookkeeping: self times must add up to the op spans
        total_self = sum(v["self_s"] for v in layers.values())
        detail["span_accounting_error_s"] = total_self - layers[OP_SPAN]["total_s"]
    return metrics, detail, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "gotzmann", "__init__.py")):
        print(f"error: no gotzmann sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    try:
        if args.trace:
            metrics, detail, res = per_layer(args, env, deadline)
            spec = per_layer_spec()
        else:
            metrics, detail, res = end_to_end(args, env, deadline)
            spec = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    if args.trace:
        correct = correct and len(set(detail["digests"])) == 1
    for name, unit, _ in spec:
        print(f"{args.workload:8s} {name:48s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:8s} {'failed_ops':48s} {detail['failed_ops']:>14.6g} ratio "
              f"({failed} of {attempted})")
    detail["environment"] = environment()
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
