"""Seeded closed-loop benchmark of the hankelmp command line.

    python3 bench/run.py --workload screen --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  One client sends one request
at a time: each request is ``hankelmp.cli.run(argv)`` called in-process with
stdout captured, on input files written during set-up.  Every answer is
checked; a wrong answer, a non-zero exit code or an exception counts as a
failed request and the run goes on.

``--trace 0`` prints the end-to-end metrics, with request times in units of a
fixed reference computation timed after each request (see ``reference_s``)
and, on one line, in wall time.  ``--trace 1`` runs every request twice, once
plain and once with timing wrappers installed around each layer (see
``spans.py``), and prints the per-layer metrics, the tracing overhead and the
time of ``python -m hankelmp`` as a subprocess.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 7
# Reference runs timed before and after each set-up; their median is its unit.
SETUP_REFERENCES = 10
MIN_REQUESTS = 100
HARD_CAP_S = 120.0
SUBPROCESS_RUNS = 5
SUBPROCESS_TIMEOUT_S = 20

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RAW_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "reference_ms": "ms"}
# The seed of the warm-up requests, whatever --seed is.
WARM_SEED = 0


# The reference computation: exact elimination on a fixed 9 x 9 Hankel system,
# done by the benchmark's own code.  Other load on the host slows the CPU by
# up to 40% for tens of seconds at a time; the reference, timed right after
# each request, slows with it, so request time / reference time (unit "ref")
# measures the program and not the host.
_REF_ATOMS, _REF_WEIGHTS = gen.rational_measure(gen.SplitMix64(99), 9, 12)
_REF_MOMENTS = gen.moments(_REF_ATOMS, _REF_WEIGHTS, 18)
_REF_MATRIX = [[_REF_MOMENTS[i + j] for j in range(9)] for i in range(9)]
_REF_RHS = [-_REF_MOMENTS[9 + i] for i in range(9)]


# The reference's time on the machine of the first baseline (an x86-64 VM with
# 2 vCPUs).  setup_s is the set-up's cost in ref units times this constant:
# seconds at that machine's speed, so host load does not move it either.
REFERENCE_S = 0.0035


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    start = perf_counter()
    gen.solve_exact(_REF_MATRIX, _REF_RHS)
    return perf_counter() - start


class SetupError(Exception):
    """The checkout cannot be benchmarked: no package source under ``src``."""


def import_cli():
    """Import ``hankelmp.cli`` afresh from the checkout's ``src``."""
    if not (SRC / "hankelmp" / "cli.py").is_file():
        raise SetupError(f"no hankelmp source under {SRC}")
    for name in [m for m in sys.modules if m == "hankelmp" or m.startswith("hankelmp.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("hankelmp.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"hankelmp was imported from {cli.__file__}, not from {SRC}")
    return cli


def execute(run, argv: list[str]) -> tuple[int | None, str, float]:
    """One request: exit code (None if it raised), stdout and seconds taken."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    except Exception as exc:  # a crashing request is a failed request, not a failed run
        code = None
        out.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), perf_counter() - start


def warm_up_set(round_: list) -> list:
    """The smallest request of each request family (the stratum's kind)."""
    chosen: dict[str, object] = {}
    for req in round_:
        family = req.stratum.split("/")[0]
        if family not in chosen or req.size < chosen[family].size:
            chosen[family] = req
    return list(chosen.values())


def set_up(workload: str, directory: Path):
    """One timed set-up: import the package afresh, make and write the
    warm-up inputs, and send one warm-up request of each request kind.  The
    warm-up requests come from WARM_SEED's first round, whatever --seed is,
    so a set-up costs the same on every seed."""
    cli = import_cli()
    warm = []
    for req, argv in gen.write_inputs([warm_up_set(gen.generate(workload, WARM_SEED, 1)[0])],
                                      directory):
        code, out, _ = execute(cli.run, argv)
        warm.append((req, code, out))
    return cli, warm


class Loop:
    """Closed-loop replay of the request pool for a fixed time.

    Stops at the first round boundary after ``seconds`` once at least
    ``min_requests`` have run, so every run holds whole rounds; stops
    anywhere once HARD_CAP_S has passed, so a much slower program still ends
    in time.
    """

    def __init__(self, requests: list, round_len: int):
        self.requests = requests
        self.round_len = round_len
        self.latencies: list[float] = []
        self.costs: list[float] = []
        self.failures: list[str] = []
        self.check_s = 0.0

    def record(self, req, code, out, seconds, reference: float | None = None) -> None:
        self.latencies.append(seconds)
        if reference is not None:
            self.costs.append(seconds / reference)
        start = perf_counter()
        reason = check.check(req.check, req.expect, code, out) if code is not None else out
        self.check_s += perf_counter() - start
        if reason is not None:
            self.failures.append(f"{req.stratum} {' '.join(req.argv)}: {reason}")

    def run(self, seconds: float, min_requests: int, step) -> float:
        start = perf_counter()
        i = 0
        while True:
            elapsed = perf_counter() - start
            if elapsed >= HARD_CAP_S or (
                i % self.round_len == 0 and i >= max(min_requests, 1) and elapsed >= seconds
            ):
                return elapsed
            step(i, *self.requests[i % len(self.requests)])
            i += 1


def rounds_of(values: list[float], round_len: int):
    return (values[i : i + round_len] for i in range(0, len(values), round_len))


def subprocess_ms(req, argv: list[str]) -> tuple[float, list[str]]:
    """Median wall time of ``python -m hankelmp <argv>``, and any wrong answers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times, problems = [], []
    for _ in range(SUBPROCESS_RUNS):
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hankelmp", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
            reason = check.check(req.check, req.expect, proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            reason = f"no answer within {SUBPROCESS_TIMEOUT_S} s"
        times.append(perf_counter() - start)
        if reason is not None:
            problems.append(f"subprocess {' '.join(argv)}: {reason}")
    return 1000 * statistics.median(times), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # On SIGTERM, exit through the finally clause so the input files go too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args, work)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(args, work: Path) -> int:
    # The request pool depends on the seed and is made by the benchmark's own
    # code, which no change to the package can speed up or slow down, so it
    # is made once and kept out of setup_s.
    start = perf_counter()
    pool = gen.generate(args.workload, args.seed)
    requests = gen.write_inputs(pool, work / "inputs")
    inputs_s = perf_counter() - start
    setup_times, setup_costs = [], []
    for i in range(SETUPS):
        # Start every set-up from the same heap: the previous set-up's modules
        # are freed and collected before the clock starts, not during the set-up.
        cli = warm = None
        gc.collect()
        before = [reference_s() for _ in range(SETUP_REFERENCES)]
        start = perf_counter()
        cli, warm = set_up(args.workload, work / f"warm-up-{i}")
        setup_times.append(perf_counter() - start)
        after = [reference_s() for _ in range(SETUP_REFERENCES)]
        setup_costs.append(REFERENCE_S * setup_times[-1] / statistics.median(before + after))

    fed, problems = 0, []
    for req, code, out in warm:
        if code is None:
            problems.append(f"warm-up {req.stratum} raised: {out}")
            continue
        n, found = check.self_test(req.check, req.expect, code, out)
        fed += n
        problems += [f"{req.stratum}: {p}" for p in found]
    print(f"checker self-test: {fed} corrupted answers fed to the checker, "
          f"{'all caught' if not problems else f'{len(problems)} problems'}")

    loop = Loop(requests, len(pool[0]))
    tracer = spans.Tracer()
    if args.trace:
        traced_run = tracer.wrap("cli.run", cli.run)
        plain, traced = [], []

        def step(i, req, argv):
            for mode in ((0, 1) if i % 2 == 0 else (1, 0)):
                if mode:
                    tracer.request += 1
                    tracer.install()
                    code, out, dt = execute(traced_run, argv)
                    tracer.uninstall()
                    traced.append(dt)
                else:
                    code, out, dt = execute(cli.run, argv)
                    plain.append(dt)
                loop.record(req, code, out, dt)

    else:

        def step(i, req, argv):
            loop.record(req, *execute(cli.run, argv), reference_s())

    # Untraced runs need MIN_REQUESTS so that p90 has ten samples beyond it.
    elapsed = loop.run(args.seconds, 1 if args.trace else MIN_REQUESTS, step)
    done = len(loop.latencies)
    rounds = done // loop.round_len // (2 if args.trace else 1)

    if args.trace:
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_frac"] = 1 - sum(plain) / sum(traced)
        metrics["trace.requests"] = len(traced)
        metrics["cli.subprocess_ms_p50"], sub_problems = subprocess_ms(
            *gen.subprocess_request(requests)
        )
        problems += sub_problems
        if tracer.skipped:
            print(f"trace targets not found, skipped: {', '.join(tracer.skipped)}")
        units = PER_LAYER_UNITS
    else:
        costs = statistics.quantiles(loop.costs, n=100)
        metrics = {
            # Every round has the same mix, so the median over rounds is robust
            # to a few rounds slowed more than the reference.
            "ops_per_kref": 1000 * statistics.median(
                len(chunk) / sum(chunk) for chunk in rounds_of(loop.costs, loop.round_len)
            ),
            "op_ref_p50": costs[49],
            "op_ref_p90": costs[89],
            "ok_frac": (done - len(loop.failures)) / done,
            "setup_s": statistics.median(setup_costs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        latency_ms = statistics.quantiles([1000 * t for t in loop.latencies], n=100)
        raw = {
            "ops_per_s": statistics.median(
                len(chunk) / sum(chunk) for chunk in rounds_of(loop.latencies, loop.round_len)
            ),
            "op_ms_p50": latency_ms[49],
            "op_ms_p90": latency_ms[89],
            "reference_ms": 1000 * statistics.median(
                t / c for t, c in zip(loop.latencies, loop.costs)
            ),
        }
        print("in wall time: " + ", ".join(
            f"{name} {value:.6g} {RAW_UNITS[name]}" for name, value in raw.items()))
        units = END_TO_END_UNITS

    failed = len(loop.failures)
    print(f"workload {args.workload} seed {args.seed}: {done} requests in {rounds} rounds of "
          f"{loop.round_len}, {elapsed:.1f} s ({loop.check_s:.1f} s checking answers); "
          f"{done - int(0.9 * done)} samples beyond p90")
    print(f"failed_frac {failed / done:.4f} ({failed}/{done})")
    print(f"inputs: {len(requests)} requests made and written in {inputs_s:.2f} s")
    print("set-up wall times (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    for reason in loop.failures[:10] + problems[:10]:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": done,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
