"""One benchmark run in a fresh interpreter (started by run.py).

Modes:
  setup  import gotzmann and gotzmann.cli, generate the inputs, print READY
         and exit; run.py times this from spawn to READY.
  run    setup, then passes over the inputs on request: each "pass" line on
         stdin runs one timed pass and answers "ok"; "done" runs the untimed
         oracle checks and prints the result (see _run).
  trace  setup, then untraced and traced passes over the inputs (see _trace).

Every pass starts with all library caches cleared, so each pass starts as
cold as a fresh interpreter and does the same work in the same order; the
CLI workload has no in-process caches.

The last stdout line is one JSON object with the run's raw figures.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Passes per --trace 0 run; each op's figure is the median of its passes.
PASSES = 3
# Nominal ops per second of one pass on a 2-CPU host.  An input batch holds
# PASS_RATE * seconds / PASSES ops, so the passes of a run take about
# --seconds there; the batch size depends on --seconds only, never on the
# speed of the host.
PASS_RATE = {"sweep": 90, "hilbert": 70, "betti": 30, "cli": 3.5}
MIN_OPS = 24
# The reference kernel runs between ops at least this often, REF_LOOPS steps.
REF_EVERY_S = 0.02
REF_LOOPS = 1400


def batch_size(wl, seconds: float) -> int:
    count = max(MIN_OPS, round(PASS_RATE[wl.name] * seconds / PASSES))
    return -(-count // wl.cycle) * wl.cycle


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gotzmann" or name.startswith("gotzmann.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def reference() -> float:
    """Seconds taken by a fixed pure-Python kernel of about half a millisecond
    that mixes the two kinds of work the library mostly does: integer
    arithmetic (the Bareiss ranks) and small tuples looked up in a dict (the
    monomial code).  The garbage collector is held off while it runs, so the
    library's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    table: dict = {}
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        key = (i % 17, i % 13, i % 7)
        table[key] = table.get(key, 0) + acc
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def _pass(pool, op, refs=None, starts=None):
    """One closed-loop pass over the whole batch.  An op that raises is a
    failed op, not a crash."""
    outputs, latencies = [], []
    start = time.perf_counter()
    next_ref = 0.0
    for item in pool:
        if refs is not None:
            now = time.perf_counter()
            if now >= next_ref:
                refs.append((now, reference()))
                next_ref = now + REF_EVERY_S
        t0 = time.perf_counter()
        if starts is not None:
            starts.append(t0)
        try:
            out = op(item)
        except Exception as exc:
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, time.perf_counter() - start


def _lines(wl, outputs) -> list[str]:
    semantic = getattr(wl, "semantic", lambda out: out)
    return [json.dumps(semantic(out), sort_keys=True) for out in outputs]


def _failures(wl, pool, outputs) -> list[str]:
    import oracles

    failures = []
    for item, out in zip(pool, outputs):
        if isinstance(out, dict) and "error" in out:
            failures.append(out["error"])
            continue
        try:
            wl.check(item, out)
        except oracles.Mismatch as exc:
            failures.append(f"oracle: {exc}")
    return failures


def _run(wl, pool) -> dict:
    """Timed passes, one per "pass" request, until "done".  The first pass's
    outputs go to the oracles and set the digest; every later pass must
    reproduce that digest.  Peak RSS is read after the first pass, when the
    caches hold what one pass fills them with."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    latencies, walls, digests, refs, starts = [], [], [], [], []
    first = peak_rss_mb = None
    for line in iter(sys.stdin.readline, ""):
        if line.strip() == "done":
            break
        starts.append([])
        _clear_library_caches()
        outputs, lat, wall = _pass(pool, wl.run, refs, starts[-1])
        if first is None:
            first = outputs
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        latencies.append(lat)
        walls.append(wall)
        digests.append(_digest(_lines(wl, outputs)))
        print("ok", flush=True)
    failures = _failures(wl, pool, first or [])
    if len(set(digests)) > 1:
        failures.append(f"passes disagree: digests {sorted(set(digests))}")
    result = {
        "latencies_s": latencies,
        "starts_s": starts,
        "refs_s": refs,
        "walls_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "digest": digests[0] if digests else None,
        "attempted": len(pool),
        "failed": len(failures),
        "failures": failures[:5],
    }
    if hasattr(wl, "gate_counts"):
        result["gates"] = wl.gate_counts(first or [])
    return result


def _trace(wl, pool) -> dict:
    """Warm-up pass W (untraced), then T U U T over the same batch.  The ABBA
    order cancels a linear drift in machine speed; W keeps first-pass effects
    (lazy imports, the allocator growing the heap) out of the comparison."""
    from tracer import Tracer, cache_metrics

    is_cli = wl.name == "cli"
    walls = {"plain": [], "traced": []}
    digests, failures = [], []
    result = {}
    for kind in ("warmup", "traced", "plain", "plain", "traced"):
        # before the tracer rebinds the cached functions to its wrappers
        _clear_library_caches()
        tracer = timings = None
        if kind in ("warmup", "plain"):
            op = wl.run
        elif is_cli:
            timings = []

            def op(item, timings=timings):
                out, timing = wl.run_probe(item)
                timings.append(timing)
                return out
        else:
            tracer = Tracer()
            op = partial(tracer.run_op, wl.run)
            tracer.install()
        try:
            outputs, _, wall = _pass(pool, op)
        finally:
            if tracer:
                tracer.uninstall()
        if kind != "warmup":
            walls[kind].append(wall)
        if kind == "traced" and "traced_wall_s" not in result:
            result["traced_wall_s"] = wall
            if is_cli:
                result["cli_timings"] = timings
            else:
                result["layers"] = {k: vars(v) for k, v in tracer.layers.items()}
                result["counters"] = tracer.counters
                result["caches"] = cache_metrics()
        digests.append(_digest(_lines(wl, outputs)))
        if kind == "warmup":
            # later passes must reproduce this pass's digest, so the oracles
            # need to see only this one
            failures = _failures(wl, pool, outputs)
    result.update({
        "ops": len(pool),
        "plain_walls_s": walls["plain"],
        "traced_walls_s": walls["traced"],
        "digests": digests,
        "attempted": len(pool),
        "failed": len(failures),
        "failures": failures[:5],
    })
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    import gotzmann  # noqa: F401
    import gotzmann.cli  # noqa: F401
    import workloads

    wl = workloads.get(args.workload, ROOT)
    pool = wl.inputs(args.seed, batch_size(wl, args.seconds))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = _run(wl, pool)
    else:
        result = _trace(wl, pool)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
