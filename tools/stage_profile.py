"""Per-stage CPU time of ``verify`` on given cases, for two source trees.

    python3 tools/stage_profile.py OLD NEW --cases A14.7 D14.14 [--pairs 3]

OLD and NEW are checkouts of this repository (their ``src`` is used) or
directories that hold the ``minuscule`` package.  Each case runs once per
tree in a fresh interpreter, ``--pairs`` times, the two trees taking turns
to go first.  The child builds the case as ``verify`` does
(``cli.build_case``) and runs ``cli.verify_case`` on it, with a timer
around each name in ``STAGES``: the build's ``generate_orbit`` and
``verify_minuscule``, and every library call that ``verify_case`` makes,
as ``minuscule.cli`` binds them.  Times are process CPU seconds, summed
over the calls of one run; the table shows the median over the runs of
each tree, the whole run (``total``), what no stage covers (``other``)
and the child's peak RSS.

A name in ``STAGES`` that a tree's ``minuscule.cli`` no longer binds, or
that a run never calls, ends the script with exit 2 and names it, so that
no column can read 0 because its timer wraps nothing.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Names in minuscule.cli, in the order verify runs them; "ACTIONS[...]"
# is an entry of the cli.ACTIONS table.
STAGES = (
    "generate_orbit",
    "verify_minuscule",
    "_structure_failures",
    "toggle_suite",
    "strict_chain_rows",
    "multichain_rows",
    "ACTIONS[rowmotion]",
    "ACTIONS[gyration]",
    "image_orbits",
    "orbit_rows",
    "lp_certificate",
    "tcde_constant",
    "is_heap_of_its_word",
)
CASE = re.compile(r"([ADE])(\d+)\.(\d+)")


def source_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "minuscule").is_dir() else path


def child(src: str, case: str) -> int:
    """Run one case under the stage timers and print one JSON line."""
    sys.path.insert(0, src)
    from minuscule import cli

    seconds = {}

    def timed(name, f):
        def run(*args, **kwargs):
            start = time.process_time()
            try:
                return f(*args, **kwargs)
            finally:
                seconds[name] = seconds.get(name, 0.0) + time.process_time() - start

        return run

    for name in STAGES:
        key = name[len("ACTIONS[") : -1] if name.startswith("ACTIONS[") else None
        table = getattr(cli, "ACTIONS", {}) if key else vars(cli)
        if (key or name) not in table:
            print(f"stage_profile: minuscule.cli in {src} has no {name}", file=sys.stderr)
            return 2
        table[key or name] = timed(name, table[key or name])

    family, rank, node = CASE.fullmatch(case).groups()
    start = time.process_time()
    cli.verify_case(cli.build_case(family, int(rank), int(node)))
    total = time.process_time() - start
    missed = [name for name in STAGES if name not in seconds]
    if missed:
        print(f"stage_profile: {case} in {src} never calls {', '.join(missed)}", file=sys.stderr)
        return 2
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "total": total, "peak_rss_mib": rss}))
    return 0


def measure(src: Path, case: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), case], capture_output=True, text=True
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode)
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(*sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--cases", nargs="+", required=True, metavar="CASE")
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    for case in args.cases:
        if not CASE.fullmatch(case):
            parser.error(f"case {case!r} is not FAMILY RANK.NODE, as in D14.14")
    srcs = [source_dir(t) for t in args.trees]

    print(f"| case | stage | {args.trees[0]} | {args.trees[1]} | ratio |")
    print("| --- | --- | --- | --- | --- |")
    for case in args.cases:
        runs: list[list[dict]] = [[], []]
        for pair in range(args.pairs):
            for t in (0, 1) if pair % 2 == 0 else (1, 0):
                runs[t].append(measure(srcs[t], case))
        rows = [(name, [[r["seconds"][name] for r in rs] for rs in runs]) for name in STAGES]
        rows.append(
            ("other", [[r["total"] - sum(r["seconds"].values()) for r in rs] for rs in runs])
        )
        rows.append(("total", [[r["total"] for r in rs] for rs in runs]))
        for name, (old, new) in rows:
            a, b = statistics.median(old), statistics.median(new)
            ratio = f"{b / a:.2f}" if a else "-"
            print(f"| {case} | {name} | {a:.4f} s | {b:.4f} s | {ratio} |")
        a, b = (statistics.median(r["peak_rss_mib"] for r in rs) for rs in runs)
        print(f"| {case} | peak RSS | {a:.1f} MiB | {b:.1f} MiB | {b / a:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
