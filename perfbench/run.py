"""Benchmark of the qthresh command: one workload per invocation.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {tribes-exact,table-exact,mc,closed} \
        --seed N --seconds S --trace {0,1}

Each op is one ``qthresh`` command run in a fresh process through
``qthresh.cli.main`` (``perfbench/child.py``), one process at a time.  A pass
runs every op of the workload once; passes repeat until the next one would
end after S seconds, and every metric is a median over passes.  Times are
calibrated against a fixed process that runs before each op (see CALIBRATION
below).  The first pass's outputs are checked against reference answers, and
every later pass must write byte-identical outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see perfbench/README.md).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, comparable, output_paths

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

COMMANDS = ["eval", "influence", "width", "region", "sweep", "verify"]
SETUP_REPEATS = 5
MIN_PASSES = 3  # a median, and reruns to compare with the first pass
MIN_TRACE_PASSES = 4  # two untraced and two traced
OP_TIMEOUT_S = 60.0

# Speed calibration.  On a shared machine, the cost of starting a process and
# touching fresh memory drifts by up to a quarter over tens of seconds, and
# every op's wall time drifts with it.  A fixed process that only imports numpy
# tracks that drift (their windowed medians correlated at 0.96 in a 2-vCPU VM).
# Each timed op is preceded by one calibration run, and every time metric of
# a pass is scaled by REF_CALIBRATION_S / (median calibration time of the pass):
# the times read as seconds at the speed where the calibration takes 0.15 s.
CALIBRATION = [sys.executable, "-c", "import numpy"]
REF_CALIBRATION_S = 0.15


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QTL_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread per op: ops run one at a time and the timings stay steady.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, stdout: Path, stderr: Path, env: dict) -> tuple[int, int]:
    """Run one process to its end; return its exit code and peak RSS in KiB."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    watchdog = threading.Timer(OP_TIMEOUT_S, _kill, (pidfd,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: end the child before leaving
        _kill(pidfd)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
        os.close(pidfd)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def timed_spawn(argv: list, workdir: Path, env: dict) -> float:
    """Seconds that a process which must succeed takes, from spawn to exit."""
    started = time.perf_counter()
    rc, _ = spawn(argv, workdir / "spawn.stdout", workdir / "spawn.stderr", env)
    seconds = time.perf_counter() - started
    if rc != 0:
        raise RuntimeError((workdir / "spawn.stderr").read_text())
    return seconds


def setup(name: str, seed: int, workdir: Path, env: dict) -> tuple[list, float]:
    """Generate the inputs and import qthresh in a fresh process, several times; median calibrated time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        started = time.perf_counter()
        ops = WORKLOADS[name](np.random.default_rng(seed), workdir)
        timed_spawn([sys.executable, "-c", "import qthresh.cli"], workdir, env)
        seconds = time.perf_counter() - started
        times.append(seconds * REF_CALIBRATION_S / timed_spawn(CALIBRATION, workdir, env))
    return ops, statistics.median(times)


def run_op(op, workdir: Path, env: dict, traced: bool) -> dict:
    paths = output_paths(workdir, op)
    for path in paths.values():
        path.unlink(missing_ok=True)
    trace_path = workdir / f"{op.name}.trace.json" if traced else None
    argv = [sys.executable, str(CHILD), str(trace_path or "-"), "--", *op.argv({k: str(v) for k, v in paths.items()})]
    started = time.perf_counter()
    rc, rss_kib = spawn(argv, paths["stdout"], paths["stderr"], env)
    seconds = time.perf_counter() - started
    outputs = {key: paths[key].read_bytes() for key in [*op.outputs, "stdout"] if paths[key].exists()}
    result = {"op": op, "rc": rc, "seconds": seconds, "rss_kib": rss_kib, "outputs": outputs,
              "stderr": paths["stderr"].read_text(errors="replace")}
    if trace_path is not None and trace_path.exists():
        result["trace"] = json.loads(trace_path.read_text())
    return result


def run_pass(ops: list, workdir: Path, env: dict, traced: bool) -> dict:
    started = time.perf_counter()
    calibration, results = [], []
    for op in ops:
        if not op.edge:
            calibration.append(timed_spawn(CALIBRATION, workdir, env))
        results.append(run_op(op, workdir, env, traced and not op.edge))
    return {"traced": traced, "results": results, "seconds": time.perf_counter() - started,
            "calibration_s": statistics.median(calibration)}


def judge(passes: list) -> tuple[int, int, int, int, list]:
    """Timed-op attempts and failures, edge-op attempts and failures, and the problems found."""
    problems: list = []
    first = {r["op"].name: r for r in passes[0]["results"]}
    timed_attempts = timed_failed = edge_attempts = edge_failed = 0
    for p_index, p in enumerate(passes):
        for r in p["results"]:
            op = r["op"]
            if op.edge:
                edge_attempts += 1
                left = [k for k in op.outputs if k in r["outputs"]]
                if r["rc"] != 1 or left:
                    edge_failed += 1
                    if p_index == 0:
                        print(f"edge op {op.name}: exit {r['rc']} (want 1), output files left: {left}; "
                              f"{r['stderr'].strip()[-200:]}", file=sys.stderr)
                continue
            timed_attempts += 1
            found = []
            if r["rc"] != 0:
                found.append(f"exit {r['rc']}: {r['stderr'].strip()[-300:]}")
            elif p_index == 0:
                try:
                    found += op.check(r["outputs"])
                except (KeyError, IndexError, ValueError) as exc:
                    found.append(f"unreadable output: {exc!r}")
            else:
                ref = first[op.name]["outputs"]
                for key in set(ref) | set(r["outputs"]):
                    if comparable(key, ref.get(key, b"")) != comparable(key, r["outputs"].get(key, b"")):
                        found.append(f"{key} differs from the first pass")
            if found:
                timed_failed += 1
                problems += [f"pass {p_index} op {op.name}: {msg}" for msg in found]
    return timed_attempts, timed_failed, edge_attempts, edge_failed, problems


def calibrated_wall(p: dict) -> float:
    """All timed ops of one pass, in calibrated seconds."""
    return sum(r["seconds"] for r in p["results"] if not r["op"].edge) * REF_CALIBRATION_S / p["calibration_s"]


def end_to_end(passes: list, setup_s: float, ok_frac: float) -> dict:
    per_pass = []
    for p in passes:
        scale = REF_CALIBRATION_S / p["calibration_s"]
        sums = defaultdict(float)
        for r in p["results"]:
            if not r["op"].edge:
                sums["wall_s"] += r["seconds"] * scale
                sums[f"{r['op'].command}_s"] += r["seconds"] * scale
        per_pass.append(sums)
    metrics = {"setup_s": (setup_s, "s")}
    for key in ["wall_s"] + [f"{c}_s" for c in COMMANDS]:
        metrics[key] = (statistics.median(s[key] for s in per_pass), "s")
    rss = max(r["rss_kib"] for p in passes for r in p["results"] if not r["op"].edge)
    metrics["peak_rss_mb"] = (rss / 1024.0, "MB")
    metrics["ops_ok_frac"] = (ok_frac, "ratio")
    return metrics


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Median per-layer times and the per-pass counts, which must repeat exactly."""
    per_pass = []
    for p in traced:
        sums = defaultdict(float)
        for r in p["results"]:
            if "trace" not in r:
                continue
            for key, value in tracer.op_sums(r["trace"]["spans"]).items():
                sums[key] += value
            sums["cli.import_s"] += r["trace"]["import_s"]
            sums["cli.output_bytes"] += sum(len(b) for b in r["outputs"].values())
        for name, (num, den) in tracer.RATIOS.items():
            sums[name] = sums[num] / sums[den] if sums[den] else 0.0
        per_pass.append(sums)
    problems = []
    metrics = {}
    for name in tracer.METRICS:
        values = [s.get(name, 0.0) for s in per_pass]
        if name in tracer.TIMES:
            metrics[name] = (statistics.median(values), "s")
            continue
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (values[0], tracer.unit(name))
    overhead = statistics.median(map(calibrated_wall, traced)) - statistics.median(map(calibrated_wall, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def cross_check(traced: list) -> None:
    """Report probes, exact_probability calls and materialisations of each exact width op."""
    for r in traced[0]["results"]:
        if r["op"].name == "width-exact" and "trace" in r:
            sums = tracer.op_sums(r["trace"]["spans"])
            print(f"cross-check {r['op'].name}: probes={int(sums['evaluate.probes'])} "
                  f"exact_probability={int(sums['evaluate.exact_probability_calls'])} "
                  f"materialize_table={int(sums['functions.materialize_calls'])}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qthresh" / "cli.py").is_file():
        print(f"perfbench: no qthresh sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up as on Ctrl-C
    env = child_env()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup_s = setup(args.workload, args.seed, workdir, env)
        passes: list = []
        started = time.perf_counter()
        min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
        while True:
            passes.append(run_pass(ops, workdir, env, traced=bool(args.trace) and len(passes) % 2 == 1))
            elapsed = time.perf_counter() - started
            typical = statistics.median(p["seconds"] for p in passes)
            if len(passes) >= min_passes and elapsed + typical > args.seconds:
                break
        attempted, failed, edge_attempts, edge_failed, problems = judge(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if BENCH.joinpath(".work").is_dir() and not any(BENCH.joinpath(".work").iterdir()):
            BENCH.joinpath(".work").rmdir()

    ok_frac = (attempted - failed + edge_attempts - edge_failed) / (attempted + edge_attempts)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics, count_problems = per_layer(traced, [p for p in passes if not p["traced"]])
        problems += count_problems
        cross_check(traced)
    else:
        metrics = end_to_end(passes, setup_s, ok_frac)

    for msg in problems[:40]:
        print(f"problem: {msg}", file=sys.stderr)
    raw = [sum(r["seconds"] for r in p["results"] if not r["op"].edge) for p in passes]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops_per_pass={len(ops)} edge_failed={edge_failed}/{edge_attempts} "
          f"uncalibrated_wall_s={statistics.median(raw):.4f} "
          f"calibration_s={statistics.median(p['calibration_s'] for p in passes):.4f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
