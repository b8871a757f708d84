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
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import serialize
from .cartan import CartanDatum, Weight, build_cartan, fundamental_weight
from .cde import (
    MULTI,
    STRICT,
    chain_distribution,
    expectation,
    homomesy_report,
    lp_certificate,
    maxchain_distribution,
    orbit_distribution,
    toggle_symmetry_report,
    uniform_distribution,
)
from .errors import ConfigurationError, DomainError, ResourceLimitError
from .heap import (
    Heap,
    heap_from_word,
    heaps_isomorphic,
    random_linear_extension,
    word_of_extension,
)
from .ideals import DEFAULT_IDEAL_CAP, IdealLattice, verify_commutation
from .orbit import (
    DEFAULT_ORBIT_CAP,
    MinusculeReport,
    OrbitPoset,
    generate_orbit,
    verify_minuscule,
)
from .stats import identity_suite, tcde_constant

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3


@dataclass(frozen=True)
class CaseSpec:
    family: str
    rank: int
    node: int
    cap_orbit: int = DEFAULT_ORBIT_CAP
    cap_ideals: int = DEFAULT_IDEAL_CAP

    @property
    def case_id(self) -> str:
        return f"{self.family}{self.rank}.{self.node}"


class NonMinusculeError(DomainError):
    def __init__(self, spec: CaseSpec, report: MinusculeReport):
        super().__init__(f"{spec.case_id}: {report.summary()}")
        self.report = report


@dataclass(frozen=True, eq=False)
class CaseBundle:
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
    cd = build_cartan(spec.family, spec.rank)
    lam = fundamental_weight(cd, spec.node)
    orb = generate_orbit(cd, lam, cap=spec.cap_orbit)
    report = verify_minuscule(cd, orb)
    if not report.ok:
        raise NonMinusculeError(spec, report)
    lattice = report.lattice
    if len(lattice) > spec.cap_ideals:
        raise ResourceLimitError(f"ideal count exceeds cap of {spec.cap_ideals}")
    return CaseBundle(spec, cd, lam, orb, report, lattice.heap, lattice)


def build_case(
    family: str,
    rank: int,
    node: int,
    cap_orbit: int = DEFAULT_ORBIT_CAP,
    cap_ideals: int = DEFAULT_IDEAL_CAP,
) -> CaseBundle:
    """Build (and cache) everything for one catalog case."""
    return _build_case(CaseSpec(family, rank, node, cap_orbit, cap_ideals))


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class CheckRow:
    check: str
    instances: int
    failures: int


@dataclass(frozen=True)
class DistRow:
    name: str
    expectation: Fraction
    constant: Fraction

    @property
    def equal(self) -> bool:
        return self.expectation == self.constant


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    constant: Fraction
    checks: tuple[CheckRow, ...]
    distributions: tuple[DistRow, ...]
    lp: dict

    @property
    def failures(self) -> int:
        return sum(row.failures for row in self.checks)


def _structure_failures(bundle: CaseBundle) -> tuple[int, int]:
    """Ideal lattice against orbit poset: equal size, weight bijection,
    and containment matching the orbit order in both directions."""
    lattice, orb = bundle.lattice, bundle.orbit
    n = len(lattice)
    instances = 2 + n * n
    failures = 0
    if n != len(orb):
        failures += 1
    if sorted(lattice.weights) != sorted(orb.weights):
        failures += 1
    order = [m | (1 << k) for k, m in enumerate(orb.below_masks)]
    weight_pos = [orb.index[w] for w in lattice.weights]
    for a in range(n):
        mask_a, wa = lattice.ideals[a], weight_pos[a]
        for b in range(n):
            contained = mask_a & ~lattice.ideals[b] == 0
            dominated = bool(order[weight_pos[b]] >> wa & 1)
            if contained != dominated:
                failures += 1
    return instances, failures


def _word_robustness_failures(bundle: CaseBundle, trials: int, seed: int) -> tuple[int, int]:
    """Rebuild the heap from random linear extensions; each rebuild must
    be label-preserving isomorphic with identical canonical names."""
    h = bundle.heap
    rng = random.Random(f"{seed}:{bundle.spec.case_id}")
    failures = 0
    for _ in range(trials):
        word = word_of_extension(h, random_linear_extension(h, rng))
        rebuilt = heap_from_word(bundle.cartan, word, base=bundle.weight)
        if heaps_isomorphic(h, rebuilt) is None or sorted(h.names) != sorted(rebuilt.names):
            failures += 1
    return trials, failures


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
    degrees = lattice.down_degrees
    checks: list[CheckRow] = []
    dists: list[DistRow] = []

    rep = bundle.report
    checks.append(CheckRow("minuscule", len(bundle.orbit), 0 if rep.ok else 1))
    checks.append(CheckRow("structure", *_structure_failures(bundle)))

    com = verify_commutation(lattice)
    checks.append(CheckRow("commutation", com.instances, len(com.violations)))

    for row in identity_suite(lattice):
        checks.append(CheckRow(row.check, row.instances, row.failures))

    named: list[tuple[str, tuple[Fraction, ...]]] = [
        ("uni", uniform_distribution(lattice)),
        ("maxchain", maxchain_distribution(lattice)),
    ]
    rank = len(h)
    for mode in chain_modes:
        named += [
            (f"chain_{mode}_{k}", chain_distribution(lattice, k, mode))
            for k in range(rank + 1)
        ]
    action_rows = {action: homomesy_report(lattice, action) for action in ("rowmotion", "gyration")}
    for action, report in action_rows.items():
        named += [
            (f"{action}_orbit_{j}", orbit_distribution(lattice, row.orbit))
            for j, row in enumerate(report.rows)
        ]

    symmetry_instances = symmetry_failures = 0
    for name, dist in named:
        sym = toggle_symmetry_report(lattice, dist)
        symmetry_instances += sym.instances
        symmetry_failures += len(sym.violations)
        dists.append(DistRow(name, expectation(dist, degrees), constant))
    checks.append(CheckRow("toggle_symmetry", symmetry_instances, symmetry_failures))

    for mode in chain_modes:
        prefix = f"chain_{mode}_"
        rows = [d for d in dists if d.name.startswith(prefix)]
        checks.append(
            CheckRow(f"cde_{mode}", len(rows), sum(1 for d in rows if not d.equal))
        )

    cert = lp_certificate(lattice)
    lp_failures = int(cert.minimum != constant) + int(cert.maximum != constant)
    checks.append(CheckRow("lp_certificate", 2, lp_failures))
    lp = {
        "minimum": serialize.frac_str(cert.minimum),
        "maximum": serialize.frac_str(cert.maximum),
        "constant": serialize.frac_str(constant),
        "equal": cert.minimum == cert.maximum == constant,
        "min_basis": list(cert.min_basis),
        "max_basis": list(cert.max_basis),
        "min_vertex": [serialize.frac_str(p) for p in cert.minimizer],
        "max_vertex": [serialize.frac_str(p) for p in cert.maximizer],
    }

    for action, report in action_rows.items():
        checks.append(
            CheckRow(
                f"homomesy_{action}",
                len(report.rows),
                sum(1 for r in report.rows if not r.matches),
            )
        )

    checks.append(CheckRow("heap_words", *_word_robustness_failures(bundle, word_trials, seed)))
    return CaseResult(bundle.spec.case_id, constant, tuple(checks), tuple(dists), lp)


def render_verify_csv(results: list[CaseResult], skipped: list[str]) -> str:
    lines = ["case,check,instances,failures"]
    for res in results:
        for row in res.checks:
            lines.append(f"{res.case_id},{row.check},{row.instances},{row.failures}")
    for case_id in skipped:
        lines.append(f"{case_id},skipped,0,0")
    return "\n".join(lines) + "\n"


def render_verify_json(results: list[CaseResult], skipped: list[str]) -> str:
    payload = {
        "cases": [
            {
                "case": res.case_id,
                "constant": serialize.frac_str(res.constant),
                "checks": [
                    {"check": c.check, "instances": c.instances, "failures": c.failures}
                    for c in res.checks
                ],
                "distributions": [
                    {
                        "case": res.case_id,
                        "distribution": d.name,
                        "expectation": serialize.frac_str(d.expectation),
                        "constant": serialize.frac_str(d.constant),
                        "equal": d.equal,
                    }
                    for d in res.distributions
                ],
                "lp": res.lp,
            }
            for res in results
        ],
        "skipped": skipped,
        "total_failures": sum(res.failures for res in results),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def _case_from_args(args) -> CaseSpec:
    return CaseSpec(args.family, args.rank, args.node, cap_ideals=args.cap_ideals)


def _write(out_dir: str | None, filename: str, text: str) -> None:
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")


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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    _write(args.out, f"{spec.case_id}.json", text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.all:
        specs = [
            CaseSpec(s.family, s.rank, s.node, cap_ideals=args.cap_ideals)
            for s in default_catalog()
        ]
    else:
        if args.family is None or args.rank is None or args.node is None:
            raise DomainError("verify needs FAMILY RANK NODE or --all")
        specs = [_case_from_args(args)]
    if args.words < 0:
        raise DomainError(f"--words must be at least 0, got {args.words}")
    modes = (STRICT, MULTI) if args.chain_mode == "both" else (args.chain_mode,)

    results = []
    skipped = []
    for spec in specs:
        try:
            bundle = _build_case(spec)
        except ResourceLimitError:
            if not args.all:
                raise
            skipped.append(spec.case_id)
            continue
        results.append(verify_case(bundle, modes, seed=args.seed, word_trials=args.words))

    if args.format == "json":
        text = render_verify_json(results, skipped)
        filename = "report.json"
    else:
        text = render_verify_csv(results, skipped)
        filename = "report.csv"
    sys.stdout.write(text)
    _write(args.out, filename, text)

    if any(res.failures for res in results):
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
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
