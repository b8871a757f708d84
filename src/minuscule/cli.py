"""Command-line surface: build bundles, run verification sweeps, list orbits.

Commands
--------
build FAMILY RANK NODE     emit Cartan data, orbit, heap, ideal lattice,
                           and the ideal-to-weight table (JSON), or the
                           two Hasse diagrams (DOT)
verify FAMILY RANK NODE    run every certification on one case; --all
                           sweeps the default catalog
orbits FAMILY RANK NODE    tabulate rowmotion or gyration orbits with
                           exact mean down-degree

Exit codes: 0 success, 1 check failure, 2 domain error, 3 resource cap.
All output is deterministic for a fixed command line, including --seed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import serialize
from .cartan import CartanDatum, Weight, build_cartan, fundamental_weight
from .cde import (
    MULTI,
    STRICT,
    LpCertificate,
    homomesy_report,
    lp_certificate,
    multichain_rows,
    orbit_rows,
    strict_chain_rows,
)
from .errors import ConfigurationError, DomainError, InternalCheckError, ResourceLimitError
from .heap import Heap, is_heap_of_its_word, word_rebuild_failures
from .ideals import DEFAULT_IDEAL_CAP, IdealLattice
from .orbit import MinusculeReport, OrbitPoset, generate_orbit, verify_minuscule
from .stats import CheckRow, tcde_constant, toggle_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3


class CaseSpec(NamedTuple):
    family: str
    rank: int
    node: int
    cap_ideals: int = DEFAULT_IDEAL_CAP

    @property
    def case_id(self) -> str:
        return f"{self.family}{self.rank}.{self.node}"


class CaseBundle(NamedTuple):
    spec: CaseSpec
    cartan: CartanDatum
    weight: Weight
    orbit: OrbitPoset
    report: MinusculeReport
    heap: Heap
    lattice: IdealLattice

    @property
    def constant(self) -> Fraction:
        return tcde_constant(self.cartan, self.weight)


def default_catalog() -> tuple[CaseSpec, ...]:
    """The sweep behind ``verify --all``: every node of A1..A7, the
    minuscule nodes of D4..D8, both E6 nodes, and E7."""
    cases = []
    for rank in range(1, 8):
        cases += [CaseSpec("A", rank, node) for node in range(1, rank + 1)]
    for rank in range(4, 9):
        cases += [CaseSpec("D", rank, node) for node in (1, rank - 1, rank)]
    cases += [CaseSpec("E", 6, 1), CaseSpec("E", 6, 6), CaseSpec("E", 7, 7)]
    return tuple(cases)


@lru_cache(maxsize=None)
def _build_case(spec: CaseSpec) -> CaseBundle:
    # A minuscule orbit has exactly |J(P)| weights, so the ideal cap bounds
    # the orbit before any heap or lattice is built.  The orbit of a nonzero
    # dominant weight spans the weight space and sums to zero, so it has at
    # least rank + 1 weights: a rank at or above the cap exceeds it before
    # any Cartan data is built.
    capped = f"ideal count exceeds cap of {spec.cap_ideals}"
    if spec.rank >= spec.cap_ideals:
        raise ResourceLimitError(capped)
    cd = build_cartan(spec.family, spec.rank)
    lam = fundamental_weight(cd, spec.node)
    try:
        orb = generate_orbit(cd, lam, cap=spec.cap_ideals)
    except ResourceLimitError:
        raise ResourceLimitError(capped) from None
    report = verify_minuscule(cd, orb)
    if not report.ok:
        raise DomainError(f"{spec.case_id}: {report.summary()}")
    lattice = report.lattice
    return CaseBundle(spec, cd, lam, orb, report, lattice.heap, lattice)


def build_case(
    family: str, rank: int, node: int, cap_ideals: int = DEFAULT_IDEAL_CAP
) -> CaseBundle:
    """Build (and cache) everything for one catalog case."""
    return _build_case(CaseSpec(family, rank, node, cap_ideals))


# ---------------------------------------------------------------------------
# verify


class DistRow(NamedTuple):
    name: str
    expectation: Fraction


class CaseResult(NamedTuple):
    case_id: str
    constant: Fraction
    checks: tuple[CheckRow, ...]
    distributions: tuple[DistRow, ...]
    lp: LpCertificate

    @property
    def failures(self) -> int:
        return sum(row.failures for row in self.checks)


def _structure_failures(bundle: CaseBundle) -> tuple[int, int]:
    """Ideal lattice against orbit poset: equal size, weight bijection,
    and containment matching the orbit order in both directions.

    One instance per (ideal a, ideal b) pair, counted with bit masks over
    ideal indices.  The lattice is J(P), so containment is the closure of
    its covers; the orbit order is the closure of the orbit covers, seeded
    at each ideal's weight position.  For each b the two closures, the
    ideals inside b and those whose weight lies at or below b's, must
    agree.  A weight with no orbit position lies in no orbit down-set and
    has none below it."""
    lattice, orb = bundle.lattice, bundle.orbit
    n = len(lattice)
    failures = int(n != len(orb)) + int(sorted(lattice.weights) != sorted(orb.weights))
    contained = [1 << a for a in range(n)]  # per ideal, the ideals inside it
    for lo, hi, _ in lattice.covers:  # sorted by lo, and lo < hi
        contained[hi] |= contained[lo]
    # per orbit weight, the ideals whose weight lies at or below it
    dominated = [0] * len(orb)
    weight_pos = [orb.index.get(w) for w in lattice.weights]
    for a, w in enumerate(weight_pos):
        if w is not None:
            dominated[w] |= 1 << a
    for u, up in enumerate(orb.up_adjacency):  # covers ascend in index
        for _, v in up:
            dominated[v] |= dominated[u]
    for inside, w in zip(contained, weight_pos):
        failures += (inside ^ (0 if w is None else dominated[w])).bit_count()
    return 2 + n * n, failures


def _word_robustness_failures(bundle: CaseBundle, trials: int, seed: int) -> tuple[int, int]:
    """Rebuild the heap from random linear extensions; each rebuild must
    be label-preserving isomorphic to it.

    When the heap is the heap of its own word, every linear extension
    rebuilds it (``is_heap_of_its_word``), so every trial passes and none
    is drawn.  Otherwise the seeded trials give the count."""
    if is_heap_of_its_word(bundle.heap):
        return trials, 0
    rng = random.Random(f"{seed}:{bundle.spec.case_id}")
    return trials, word_rebuild_failures(bundle.heap, rng, trials)


def verify_case(
    bundle: CaseBundle,
    chain_modes: tuple[str, ...] = (STRICT, MULTI),
    seed: int = 1,
    word_trials: int = 100,
) -> CaseResult:
    """Run the full certification stack on one case."""
    lattice = bundle.lattice
    h = bundle.heap
    constant = bundle.constant
    checks: list[CheckRow] = []

    rep = bundle.report
    checks.append(CheckRow("minuscule", len(bundle.orbit), 0 if rep.ok else 1))
    checks.append(CheckRow("structure", *_structure_failures(bundle)))

    checks += toggle_suite(lattice).rows

    # Integer weightings of the ideals, each read as one ChainRow: chain
    # counts (the uniform distribution is the strict 0-chains and maxchain
    # the strict |P|-chains, and the multichain rows are a transform of
    # the strict ones) and the indicator of each rowmotion and gyration
    # orbit, whose expectation is the orbit's mean down-degree.
    strict = strict_chain_rows(lattice)
    chain_rows = {STRICT: strict}
    if MULTI in chain_modes:
        chain_rows[MULTI] = multichain_rows(strict)
    named_rows = [("uni", strict[0]), ("maxchain", strict[-1])]
    for mode in chain_modes:
        named_rows += [(f"chain_{mode}_{k}", row) for k, row in enumerate(chain_rows[mode])]
    homomesy = [homomesy_report(lattice, action) for action in ("rowmotion", "gyration")]
    for report in homomesy:
        rows = orbit_rows(lattice, [row.orbit for row in report.rows])
        named_rows += [(f"{report.action}_orbit_{j}", row) for j, row in enumerate(rows)]
    symmetry_failures = sum(len(row.differences) for _, row in named_rows)
    checks.append(CheckRow("toggle_symmetry", len(h) * len(named_rows), symmetry_failures))
    dists = [DistRow(name, row.expectation) for name, row in named_rows]

    for mode in chain_modes:
        rows = chain_rows[mode]
        failures = sum(row.expectation != constant for row in rows)
        checks.append(CheckRow(f"cde_{mode}", len(rows), failures))

    cert = lp_certificate(lattice)
    lp_failures = int(cert.minimum != constant) + int(cert.maximum != constant)
    checks.append(CheckRow("lp_certificate", 2, lp_failures))

    for report in homomesy:
        failures = sum(not row.matches for row in report.rows)
        checks.append(CheckRow(f"homomesy_{report.action}", len(report.rows), failures))

    checks.append(CheckRow("heap_words", *_word_robustness_failures(bundle, word_trials, seed)))
    return CaseResult(bundle.spec.case_id, constant, tuple(checks), tuple(dists), cert)


def _case_csv(res: CaseResult) -> str:
    """The CSV lines of one case."""
    return "".join(
        f"{res.case_id},{row.check},{row.instances},{row.failures}\n" for row in res.checks
    )


def _case_json(res: CaseResult) -> str:
    """One case of the JSON report, rendered as it sits in the report's
    ``cases`` list; its constant is formatted once, and its LP
    certificate only here, since the CSV report shows none of it."""
    constant = serialize.frac_str(res.constant)
    lp = res.lp
    payload = {
        "case": res.case_id,
        "constant": constant,
        "checks": [
            {"check": c.check, "instances": c.instances, "failures": c.failures}
            for c in res.checks
        ],
        "distributions": [
            {
                "case": res.case_id,
                "distribution": d.name,
                "expectation": serialize.frac_str(d.expectation),
                "constant": constant,
                "equal": d.expectation == res.constant,
            }
            for d in res.distributions
        ],
        "lp": {
            "minimum": serialize.frac_str(lp.minimum),
            "maximum": serialize.frac_str(lp.maximum),
            "constant": constant,
            "equal": lp.minimum == lp.maximum == res.constant,
            "witness": None
            if lp.witness is None
            else [serialize.frac_str(v) for v in lp.witness],
        },
    }
    return serialize.dumps(payload, level=2)


def _join_csv(cases: list[str], skipped: list[str]) -> str:
    """The CSV report from the ``_case_csv`` text of each case."""
    return (
        "case,check,instances,failures\n"
        + "".join(cases)
        + "".join(f"{case_id},skipped,0,0\n" for case_id in skipped)
    )


def _join_json(cases: list[str], skipped: list[str], failures: int) -> str:
    """The JSON report from the ``_case_json`` text of each case, as
    ``serialize.dumps`` would render the whole payload."""
    listed = "[\n    " + ",\n    ".join(cases) + "\n  ]" if cases else "[]"
    return (
        f'{{\n  "cases": {listed},\n  "skipped": {serialize.dumps(skipped, level=1)},\n'
        f'  "total_failures": {failures}\n}}\n'
    )


# ---------------------------------------------------------------------------
# commands


def _cap_ideals(args) -> int:
    if args.cap_ideals < 0:
        raise DomainError(f"--cap-ideals must be at least 0, got {args.cap_ideals}")
    return args.cap_ideals


def _case_from_args(args) -> CaseSpec:
    return CaseSpec(args.family, args.rank, args.node, cap_ideals=_cap_ideals(args))


def _write(out_dir: str | None, filename: str, text: str) -> None:
    """Write ``text`` to ``out_dir/filename`` atomically: write a temporary
    file in the same directory, then rename it over the target."""
    if out_dir is None:
        return
    target = os.path.join(out_dir, filename)
    tmp = os.path.join(out_dir, f".{filename}.{os.getpid()}.tmp")
    try:
        os.makedirs(out_dir, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {target}: {exc.strerror or exc}") from exc


def cmd_build(args) -> int:
    spec = _case_from_args(args)
    bundle = _build_case(spec)
    if args.format == "dot":
        orbit_text = serialize.orbit_dot(bundle.orbit)
        heap_text = serialize.heap_dot(bundle.heap)
        sys.stdout.write(orbit_text + heap_text)
        _write(args.out, f"{spec.case_id}.orbit.dot", orbit_text)
        _write(args.out, f"{spec.case_id}.heap.dot", heap_text)
        return EXIT_OK
    payload = {
        "case": {"family": spec.family, "rank": spec.rank, "node": spec.node},
        "cartan": serialize.cartan_to_dict(bundle.cartan),
        "weight": list(bundle.weight),
        "constant": serialize.frac_str(bundle.constant),
        "orbit": serialize.orbit_to_dict(bundle.orbit),
        "heap": serialize.heap_to_dict(bundle.heap),
        "ideals": serialize.lattice_to_dict(bundle.lattice),
    }
    text = serialize.dumps(payload) + "\n"
    sys.stdout.write(text)
    _write(args.out, f"{spec.case_id}.json", text)
    return EXIT_OK


def _worker_count(cases: int) -> int:
    """Processes for ``cases`` independent cases: one per CPU this process
    may run on, at most one per case, and one where ``os.fork`` is absent."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, cases))


def _outcomes(run, specs: list) -> list:
    """The outcome of ``run`` on each spec, in order, up to the first
    Exception raised, which is the last outcome; the specs after it are
    not run."""
    outcomes = []
    for spec in specs:
        try:
            outcomes.append(run(spec))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _map_forked(run, specs: list, workers: int) -> list:
    """The outcome of ``run`` on each spec, in order, up to the first
    Exception raised: its value, or that Exception, which is the last.

    Forks ``workers`` - 1 processes; worker w runs specs[w::workers] and
    sends its outcomes back pickled over a pipe, while this process runs
    specs[0::workers], so one worker forks nothing and imports no pickle.
    Each process stops its share at the share's first Exception; every
    spec it skips comes after that one, so after the first Exception of
    all, where the outcomes end.  Every worker is reaped before this
    returns or raises.  A worker that dies, exits nonzero or sends
    unreadable data raises InternalCheckError naming its cases; any other
    exception here first kills and reaps the workers still running.  The
    CLI starts no threads, so forking it is safe.
    """
    if workers > 1:
        import pickle

    children = []  # (pid, read end of its pipe, its case ids), oldest first
    try:
        for w in range(1, workers):
            share = specs[w::workers]
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The worker returns to no caller: no atexit handler, no
                # stdout flush, no inherited cleanup runs here.
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_outcomes(run, share), pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), [s.case_id for s in share]))
        shares = [_outcomes(run, specs[0::workers])]
        for w in range(1, workers):
            pid, pipe, ids = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            failure = f"verify worker {pid} for {', '.join(ids)}"
            if status != 0:
                raise InternalCheckError(f"{failure} failed with wait status {status}")
            try:
                share = pickle.loads(data)
            except Exception as exc:
                raise InternalCheckError(f"{failure} sent unreadable results") from exc
            shares.append(share)
        outcomes = []
        for k in range(len(specs)):
            outcomes.append(shares[k % workers][k // workers])
            if isinstance(outcomes[-1], Exception):
                break
        return outcomes
    except BaseException:
        import signal

        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise


def cmd_verify(args) -> int:
    """Verify one case, or the catalog with ``--all``.  The cases are
    independent, so they run on ``_worker_count`` processes; the report
    is the same for any count."""
    given = (args.family, args.rank, args.node)
    if args.all:
        if any(v is not None for v in given):
            raise DomainError("verify takes either FAMILY RANK NODE or --all, not both")
        cap_ideals = _cap_ideals(args)
        specs = [
            CaseSpec(s.family, s.rank, s.node, cap_ideals=cap_ideals)
            for s in default_catalog()
        ]
    else:
        if any(v is None for v in given):
            raise DomainError("verify needs FAMILY RANK NODE or --all")
        specs = [_case_from_args(args)]
    if args.words < 0:
        raise DomainError(f"--words must be at least 0, got {args.words}")
    modes = (STRICT, MULTI) if args.chain_mode == "both" else (args.chain_mode,)

    render_case = _case_json if args.format == "json" else _case_csv

    def run(spec):
        """The case's failure count and its text in the report, rendered
        where it was verified; None when a sweep skips it for exceeding
        the ideal cap."""
        try:
            bundle = _build_case(spec)
        except ResourceLimitError:
            if not args.all:
                raise
            return None
        res = verify_case(bundle, modes, seed=args.seed, word_trials=args.words)
        return res.failures, render_case(res)

    outcomes = _map_forked(run, specs, _worker_count(len(specs)))
    cases = []
    skipped = []
    failures = 0
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None:
            skipped.append(spec.case_id)
        else:
            failures += outcome[0]
            cases.append(outcome[1])

    if args.format == "json":
        text = _join_json(cases, skipped, failures)
    else:
        text = _join_csv(cases, skipped)
    sys.stdout.write(text)
    _write(args.out, f"report.{args.format}", text)

    if failures:
        return EXIT_CHECK_FAILED
    if skipped:
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_orbits(args) -> int:
    spec = _case_from_args(args)
    bundle = _build_case(spec)
    report = homomesy_report(bundle.lattice, args.action)
    if args.format == "json":
        payload = {
            "case": spec.case_id,
            "action": args.action,
            "constant": serialize.frac_str(report.constant),
            "orbits": [
                {
                    "size": len(row.orbit),
                    "ddeg_mean": serialize.frac_str(row.mean),
                    "matches_constant": row.matches,
                    "ideals": list(row.orbit),
                }
                for row in report.rows
            ],
        }
        text = serialize.dumps(payload) + "\n"
        filename = f"{spec.case_id}.{args.action}.json"
    else:
        lines = ["size,ddeg_mean,matches_constant"]
        for row in report.rows:
            lines.append(
                f"{len(row.orbit)},{serialize.frac_str(row.mean)},{str(row.matches).lower()}"
            )
        text = "\n".join(lines) + "\n"
        filename = f"{spec.case_id}.{args.action}.csv"
    sys.stdout.write(text)
    _write(args.out, filename, text)
    return EXIT_OK


def _add_case_arguments(parser, required: bool = True) -> None:
    if required:
        parser.add_argument("family", choices=("A", "D", "E"))
        parser.add_argument("rank", type=int)
        parser.add_argument("node", type=int)
    else:
        parser.add_argument("family", nargs="?", choices=("A", "D", "E"))
        parser.add_argument("rank", nargs="?", type=int)
        parser.add_argument("node", nargs="?", type=int)
    parser.add_argument("--cap-ideals", type=int, default=DEFAULT_IDEAL_CAP)
    parser.add_argument("--out", default=None, help="directory for report files")
    parser.add_argument("--seed", type=int, default=1)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minuscule", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and dump one case")
    _add_case_arguments(p_build)
    p_build.add_argument("--format", choices=("json", "dot"), default="json")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run all certifications")
    _add_case_arguments(p_verify, required=False)
    p_verify.add_argument("--all", action="store_true", help="sweep the default catalog")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--chain-mode", choices=(STRICT, MULTI, "both"), default="both")
    p_verify.add_argument("--words", type=int, default=100, help="random word rebuilds per case")
    p_verify.set_defaults(func=cmd_verify)

    p_orbits = sub.add_parser("orbits", help="tabulate action orbits")
    _add_case_arguments(p_orbits)
    p_orbits.add_argument("--action", choices=("rowmotion", "gyration"), default="rowmotion")
    p_orbits.add_argument("--format", choices=("csv", "json"), default="csv")
    p_orbits.set_defaults(func=cmd_orbits)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.out == "":
            raise DomainError("--out must name a directory, got an empty path")
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
