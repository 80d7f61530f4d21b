"""lexplain benchmark: run one workload, or every workload in turn.

    python3 bench/run.py --workload {paper,cohort,deep,all} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and reads the program
from ``src/``. Each workload is a closed loop: one client in one process,
the next op starting when the previous one returns. Every op's output is
checked, outside the timed region; a wrong output counts as a failed op and
makes the command exit 1.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed list of ops: one untraced pass to warm up, then
each op untraced and traced back to back (see ``tracer.py``). It reports
the per-layer metrics; their sums cover the same ops on every commit, so
they compare across commits. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it record the seed, the commit
and the input sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "cohort", "deep")
# Fresh interpreters started per run to time set-up; the median is kept.
SETUP_PROBES = 10


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _commit() -> str | None:
    if not (ROOT / ".git").is_dir():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexplain").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class SetupProbes:
    """Times set-up in fresh interpreters running ``setup_probe.py``.

    The end-to-end run spreads its probes over the measured loop, so their
    median covers the same machine states as the ops do.
    """

    def __init__(self, workload, seconds: float):
        rules, facts = workload.input_files()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py")]
        self.cmd += [str(p) for p in rules] + [str(facts)]
        self.interval = seconds / SETUP_PROBES
        self.samples: list[dict] = []
        self._probe()  # only warms the bytecode and file caches
        self.samples.clear()
        self.next_at = time.perf_counter()

    def _probe(self) -> None:
        proc = subprocess.run(
            self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        self.samples.append(json.loads(proc.stdout.splitlines()[-1]))

    def maybe(self) -> None:
        """Run one probe if the next one is due."""
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.next_at:
            self._probe()
            self.next_at += self.interval

    def medians(self) -> tuple[float, float, float]:
        """Median set-up, import and load seconds, after the last probes."""
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return (
            statistics.median(s["import_s"] + s["load_s"] for s in self.samples),
            statistics.median(s["import_s"] for s in self.samples),
            statistics.median(s["load_s"] for s in self.samples),
        )


class Loop:
    """Runs ops one after another and keeps their latencies and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, between=None) -> None:
        """Run ops for ``seconds`` of loop time; ``between`` runs after each
        op and its time is added to the deadline."""
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            self.step(i, self.workload.next_input(i))
            i += 1
            if between is not None:
                paused = time.perf_counter()
                between()
                deadline += time.perf_counter() - paused

    def step(self, i: int, inp, tracer=None) -> int:
        """Run, time and check one op; returns its latency in ns."""
        if tracer is not None:
            tracer.op = i
        started = time.perf_counter_ns()
        try:
            out = self.workload.run(inp)
            problem = None
        except Exception as exc:  # an op that raises is a failed op
            problem = f"op {i} raised {exc!r}"
        latency = time.perf_counter_ns() - started
        self.latencies_ns.append(latency)
        if tracer is not None:
            tracer.op = "check"
        if problem is None:
            problem = self.workload.check(i, inp, out)
        self.record(problem)
        return latency

    def record(self, problem: str | None) -> None:
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def throughput(self, latencies_ns=None) -> float:
        latencies_ns = self.latencies_ns if latencies_ns is None else latencies_ns
        return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> int:
    if not (SRC / "lexplain" / "__init__.py").is_file():
        _fail(f"no lexplain package under {SRC}")
    import workloads  # noqa: E402  (inserts src/ into sys.path)
    import lexplain

    if Path(lexplain.__file__).resolve().parent != SRC / "lexplain":
        _fail(f"imported lexplain from {lexplain.__file__}, not from {SRC}")

    work_dir = BENCH / "_work" / str(os.getpid())
    try:
        work_dir.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[name](seed, work_dir)
        probes = SetupProbes(workload, seconds)
        loop = Loop(workload)
        if traced:
            _, import_s, load_s = probes.medians()
            metrics = _traced(workload, loop, seconds, seed)
            metrics["setup.import_ms"] = (import_s * 1e3, "ms")
            metrics["setup.load_ms"] = (load_s * 1e3, "ms")
        else:
            workload.setup()
            loop.run(seconds, between=probes.maybe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s = probes.medians()[0]
            failed, problems = workload.finish()
            loop.failed += failed
            loop.problems += problems
            latencies_ms = sorted(ns / 1e6 for ns in loop.latencies_ns)
            if len(latencies_ms) < 100:
                loop.record(f"only {len(latencies_ms)} ops; p90 needs at least 100")
            deciles = statistics.quantiles(latencies_ms, n=10)
            metrics = {
                "setup_s": (setup_s, "s"),
                "throughput_ops_s": (loop.throughput(), "1/s"),
                "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
                "latency_p90_ms": (deciles[8], "ms"),
                "success_rate": (
                    1 - min(loop.failed, loop.attempted) / loop.attempted,
                    "ratio",
                ),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = min(loop.failed, loop.attempted)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "ops": loop.attempted,
        "inputs": workload.info(),
    }
    print("# " + json.dumps(info))
    for problem in loop.problems[:10]:
        print(f"# wrong output: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _traced(workload, loop: Loop, seconds: int, seed: int) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()

    # Each op runs untraced and then traced, back to back, so the two
    # timings share the machine's state and their difference is the
    # tracing overhead. A first untraced pass over the same ops warms the
    # allocator, caches and lazy set-up.
    deadline = time.perf_counter() + seconds
    inputs = [workload.next_input(i) for i in range(workload.trace_ops)]
    for i, inp in enumerate(inputs):
        loop.step(i, inp)
    untraced, traced = [], []
    for i, inp in enumerate(inputs):
        if time.perf_counter() > deadline:
            loop.record(f"traced run stopped after {i} of {len(inputs)} ops")
            break
        untraced.append(loop.step(i, inp))
        workload.tracer = tracer
        tracer.install()
        traced.append(loop.step(i, inp, tracer))
        tracer.uninstall()
        workload.tracer = None

    tracer.op = "check"
    tracer.install(only={"engine.ground_oracle"})
    failed, problems = workload.finish()
    tracer.uninstall()
    loop.failed += failed
    loop.problems += problems
    tracer.write(BENCH / "_out" / f"spans-{workload.name}-seed{seed}.jsonl")

    metrics = tracer.metrics()
    calls = tracer.counts["gateway.complete.calls"]
    if calls != 3 * tracer.counts["chain.runs"]:
        loop.record(f"{calls} completions for {tracer.counts['chain.runs']} chain runs")
    untraced_ops_s = loop.throughput(untraced)
    traced_ops_s = loop.throughput(traced)
    metrics["tracing.untraced_ops_s"] = (untraced_ops_s, "1/s")
    metrics["tracing.traced_ops_s"] = (traced_ops_s, "1/s")
    metrics["tracing.overhead_pct"] = (
        100 * (untraced_ops_s - traced_ops_s) / untraced_ops_s,
        "%",
    )
    return metrics


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload in its own process; one combined result line."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"workload {name} exited with {proc.returncode}")
        status = max(status, proc.returncode)
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
