"""Benchmark of the minuscule verification pipeline, driven from outside.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One operation is one command line of ``python -m minuscule``, run in a
fresh interpreter with its output checked against the closed-form oracle
(checks.py, oracle.py).  A run repeats whole rounds of the workload's
command lines until ``--seconds`` have passed and reports medians over
rounds.

--trace 0 reports the end-to-end metrics: run_s, cpu_s and peak_rss_mib
of the CLI command lines, and setup_s, the median of three fresh
interpreters that import the package and build every case of the
workload.  --trace 1 runs child.py instead of the CLI, which makes the
same public calls with a span around each, and reports the per-layer
metrics.

The last line printed is {"correct", "attempted", "failed", "metrics"}.
The line before it, also appended to bench/results/runs.jsonl, is the
full record of the run.  ``--repeat N`` runs N fresh runs on seeds
seed..seed+N-1 and prints the median and quartile spread of each metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from checks import check_build, check_conjugate, check_orbits, check_setup, check_verify, orbit_sizes
from oracle import catalog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
TIMEOUT = 120.0  # seconds allowed per command
EXIT_CHECK_FAILED = 1  # the CLI's exit code when one of its checks failed
TRACEBACK = "Traceback (most recent call last)"
# A run must end within 180 s; past this many seconds a command is not
# started but counted as timed out, so a hang cannot stretch the run.
RUN_BUDGET = 165.0


@dataclass(frozen=True)
class Op:
    """One CLI command line: verify over ``cases`` (all of the catalog when
    ``sweep``), or build / orbits on a single case."""

    kind: str
    cases: tuple[str, ...]
    action: str | None = None
    sweep: bool = False

    def argv(self, seed: int) -> list[str]:
        if self.sweep:
            where = ["--all"]
        else:
            (case,) = self.cases
            where = [case[0], *case[1:].split(".")]
        extra = [f"--action={self.action}"] if self.action else []
        return [self.kind, *where, *extra, "--format=json", f"--seed={seed}"]


EXPLORE_CASES = ("A9.5", "D9.9", "D10.10", "E6.6", "E7.7")
WORKLOADS = {
    "catalog": (Op("verify", catalog(), sweep=True),),
    # D10.10's verify is one 24-43 s process here, too long to repeat within
    # a run and too exposed to host load to measure steadily once.
    "ladder": (Op("verify", ("A9.5",)), Op("verify", ("D9.9",))),
    "explore": tuple(
        op
        for case in EXPLORE_CASES
        for op in (
            Op("build", (case,)),
            Op("orbits", (case,), "rowmotion"),
            Op("orbits", (case,), "gyration"),
        )
    ),
}

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
STAGES = (
    "orbit.generate",
    "orbit.certify",
    "heap.build",
    "heap.rebuild",
    "ideals.enumerate",
    "ideals.commutation",
    "stats.identities",
    "cde.chains",
    "cde.symmetry",
    "cde.expectation",
    "cde.lp",
    "cde.homomesy",
    "simplex.solve",
    "serialize.render",
)
COUNTS = (
    "simplex.solves",
    "cartan.inner_product_calls",
    "orbit.weights",
    "heap.elements",
    "ideals.count",
    "ideals.covers",
    "stats.instances",
    "cde.distributions",
    "cde.lp_rows",
    "cde.lp_cols",
)
PER_LAYER = {
    **{f"{stage}_s": "s" for stage in STAGES},
    **{name: "count" for name in COUNTS},
    "cde.count_bits": "bits",
    "trace.run_s": "s",
    "trace.gap_s": "s",
}
# Sizes of the largest instance, not totals over the round.
PEAKS = ("cde.lp_rows", "cde.lp_cols", "cde.count_bits")


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str

    def fault(self) -> str | None:
        """Why the process failed as an operation, or None."""
        if self.timed_out:
            return "timeout"
        if self.code != 0:
            return f"exit code {self.code}"
        if TRACEBACK in self.stderr:
            return "traceback on stderr"
        return None

    def answered(self) -> bool:
        """The command ran to its end and printed an answer: exit code 0,
        or the CLI's code for a failed check, and no traceback."""
        return not self.timed_out and self.code in (0, EXIT_CHECK_FAILED) and TRACEBACK not in self.stderr


def run_process(argv: list[str], env: dict, timeout: float) -> Proc:
    """Run ``argv`` to its end or kill it at ``timeout``; return its wall
    time, own CPU time and peak resident set."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            os.close(pidfd)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Proc(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            timed_out,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def check_op(op: Op, text: str, sizes: dict) -> list[str]:
    """Check one command's output.  ``sizes`` collects rowmotion orbit
    sizes per case within a round, for the conjugacy check."""
    try:
        if op.kind == "verify":
            return check_verify(text, op.cases)
        (case,) = op.cases
        if op.kind == "build":
            return check_build(text, case)
        problems = check_orbits(text, case, op.action)
        if not problems:
            sizes[case, op.action] = orbit_sizes(text)
            if op.action == "gyration" and (case, "rowmotion") in sizes:
                problems = check_conjugate(sizes[case, "rowmotion"], sizes[case, op.action])
        return problems
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, ArithmeticError) as exc:
        return [f"malformed output: {exc!r}"]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose answer was wrong, not absent
    failures: list = field(default_factory=list)

    def record(self, op: Op, proc: Proc, text: str, sizes: dict) -> None:
        """Count one operation: ``proc`` ran it and ``text`` is its answer,
        which is checked if the process answered at all."""
        self.attempted += 1
        fault = proc.fault()
        problems = check_op(op, text, sizes) if proc.answered() else []
        if fault is None and not problems:
            return
        self.failed += 1
        self.wrong += bool(problems)
        lines = proc.stderr.strip().splitlines()
        self.failures.append(
            {
                "op": op.argv(0)[:-1],
                "reason": problems[0] if problems else fault,
                "stderr": lines[0] if lines else "",
                "stderr_last": lines[-1] if lines else "",
            }
        )


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.tally = Tally()
        self.deadline = time.monotonic() + RUN_BUDGET

    def process(self, argv: list[str]) -> Proc:
        timeout = min(TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            return Proc(0.0, 0.0, 0.0, -1, True, "", "")
        return run_process([sys.executable, *argv], self.env, timeout)

    def cli(self, argv: list[str]) -> Proc:
        return self.process(["-m", "minuscule", *argv])

    def child(self, mode: str, args: list[str]) -> Proc:
        return self.process([str(BENCH / "child.py"), mode, *args])

    def setup_s(self) -> float:
        """Median wall time of fresh interpreters that import the package
        and build every case of the workload."""
        cases = tuple(dict.fromkeys(c for op in self.ops for c in op.cases))
        times = []
        for _ in range(SETUP_REPEATS):
            proc = self.child("setup", list(cases))
            problems = [proc.fault()] if proc.fault() else check_setup(proc.stdout, cases)
            if problems:
                raise SystemExit(f"set-up failed: {problems[0]}; stderr: {proc.stderr.strip()[:500]}")
            times.append(proc.wall)
        return statistics.median(times)

    def cli_round(self) -> dict:
        wall = cpu = rss = 0.0
        sizes: dict = {}
        for op in self.ops:
            proc = self.cli(op.argv(self.seed))
            self.tally.record(op, proc, proc.stdout, sizes)
            wall += proc.wall
            cpu += proc.cpu
            rss = max(rss, proc.rss_mib)
        return {"run_s": wall, "cpu_s": cpu, "peak_rss_mib": rss}

    def traced_round(self, spans_out: list) -> dict:
        values = dict.fromkeys(PER_LAYER, 0)
        stage_sum = 0.0
        sizes: dict = {}
        for op in self.ops:
            argv = op.argv(self.seed)
            proc = self.child("trace", argv)
            values["trace.run_s"] += proc.wall
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = {"output": "", "spans": [], "counters": {}}
            spans_out.append({"argv": argv, "spans": result["spans"]})
            for name, start, end, parent, _case in result["spans"]:
                if f"{name}_s" in values:
                    values[f"{name}_s"] += end - start
                if parent is None:
                    stage_sum += end - start
            for name, value in result["counters"].items():
                if name in PEAKS:
                    values[name] = max(values[name], value)
                elif name in values:
                    values[name] += value
            self.tally.record(op, proc, result["output"], sizes)
        values["trace.gap_s"] = values["trace.run_s"] - stage_sum
        return values


def median_of(rounds: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


SELF_TEST_CASE = "A3.2"  # h = 4; rowmotion orbits of sizes 4 and 2


def self_test(bench: Bench) -> None:
    """Run each checker on real output of a small case, which must pass,
    and on tampered copies, which must be flagged."""
    case = SELF_TEST_CASE
    ops = {
        "verify": Op("verify", (case,)),
        "build": Op("build", (case,)),
        "rowmotion": Op("orbits", (case,), "rowmotion"),
        "gyration": Op("orbits", (case,), "gyration"),
    }
    texts = {}
    real = Tally()
    sizes: dict = {}
    for name, op in ops.items():
        proc = bench.cli(op.argv(1))
        real.record(op, proc, proc.stdout, sizes)
        if real.failed:
            raise SystemExit(f"self-test: real output of {name} flagged: {real.failures[0]}")
        texts[name] = proc.stdout

    def tampered(name: str, edit) -> str:
        payload = json.loads(texts[name])
        edit(payload)
        return json.dumps(payload)

    def wrong_expectation(p):
        p["cases"][0]["distributions"][0]["expectation"] = "7/1"

    def wrong_lp(p):
        p["cases"][0]["lp"]["maximum"] = "7/1"

    def failed_row(p):
        p["cases"][0]["checks"][3]["failures"] = 1

    def dropped_row(p):
        del p["cases"][0]["checks"][4]

    def fewer_words(p):
        p["cases"][0]["checks"][-1]["instances"] = 1

    def wrong_constant(p):
        p["constant"] = "7/1"

    def non_ideal(p):
        top = p["heap"]["covers"][0][1]  # an element with something below it
        p["ideals"]["ideals"][-1] = "".join("1" if k == top else "0" for k in range(p["heap"]["size"]))

    def merge_orbits(p):
        first, second = p["orbits"][:2]
        first["ideals"] += second["ideals"]
        first["size"] += second["size"]
        del p["orbits"][1]

    def empty_orbit(p):
        p["orbits"][0]["size"] = 0

    tampers = [
        ("verify", wrong_expectation, "expectation"),
        ("verify", wrong_lp, "LP maximum"),
        ("verify", failed_row, "1 failures"),
        ("verify", dropped_row, "check rows differ"),
        ("verify", fewer_words, "check rows differ"),
        ("build", wrong_constant, "constant"),
        ("build", non_ideal, "not downward closed"),
        ("rowmotion", wrong_constant, "constant"),
        ("rowmotion", merge_orbits, "does not divide"),
        ("rowmotion", empty_orbit, "malformed output"),
    ]
    for name, edit, expect in tampers:
        problems = check_op(ops[name], tampered(name, edit), {})
        if not any(expect in p for p in problems):
            raise SystemExit(f"self-test: tampered {name} ({edit.__name__}) not flagged: {problems}")
    if not check_conjugate([4, 2], [3, 3]):
        raise SystemExit("self-test: differing orbit sizes not flagged")
    # A wrong answer is wrong also when the CLI exits with its check-failed code.
    tally = Tally()
    failing = Proc(0.0, 0.0, 0.0, EXIT_CHECK_FAILED, False, "", "")
    tally.record(ops["verify"], failing, tampered("verify", failed_row), {})
    if tally.wrong != 1:
        raise SystemExit("self-test: a wrong answer with exit code 1 not counted as wrong")


def run(args) -> dict:
    if not (SRC / "minuscule" / "__main__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'minuscule'}; run from a checkout of the repository")
    if not compileall.compile_dir(str(SRC / "minuscule"), quiet=1):
        raise SystemExit("byte-compiling the package failed")
    bench = Bench(args.workload, args.seed)
    self_test(bench)

    spans: list = []
    if args.trace:
        units, metrics = PER_LAYER, {}
        round_fn = partial(bench.traced_round, spans)
    else:
        units, metrics = END_TO_END, {"setup_s": bench.setup_s()}
        round_fn = bench.cli_round
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(round_fn())
    metrics.update(median_of(rounds))

    tally = bench.tally
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:10],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if spans:
        path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans), encoding="utf-8")
    return record


def steadiness(args) -> None:
    """Run the workload ``--repeat`` times in fresh processes, one seed
    each, and print the median and quartile spread of every metric."""
    results = []
    for k in range(args.repeat):
        argv = [
            sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed + k), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(argv, capture_output=True, text=True, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {args.seed + k}: " + json.dumps(results[-1]), flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
        print(f"{name:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {summary[name]['spread']:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    print(json.dumps({"workload": args.workload, "runs": len(results), "failed_shares": shares, "metrics": summary}))


def main() -> None:
    # Turn a termination request into SystemExit, so that the running
    # command is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: this many fresh runs")
    args = parser.parse_args()
    if args.repeat:
        steadiness(args)
        return
    record = run(args)
    print(json.dumps(record))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: record[key] for key in keys}))


if __name__ == "__main__":
    main()
