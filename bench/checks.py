"""Output checkers for the three CLI commands, built on the closed-form oracle.

Each checker takes the text a command printed and returns a list of
problems; an empty list means the output is correct.  Nothing is compared
against a stored copy of an earlier output: every fact checked follows
from the oracle or from the structure of the answer itself.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from oracle import expected_for, parse_case


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _first_difference(got: list, want: list) -> str:
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"item {k} is {g}, expected {w}"
    return f"{len(got)} items, expected {len(want)}"


def _parse(text: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


IDENTITIES = ("label_count", "signed_toggle_sum", "weighted_toggle_sum", "fiber_statistic")
WORDS = 100  # the default of verify --words


def verify_rows(case_id: str, rowmotion_orbits: int, gyration_orbits: int) -> tuple[list, list]:
    """The check rows ``verify`` prints for a case, in order, as (check,
    instances), and the names of its distributions.  Every count follows
    from the oracle except the number of orbits of each action."""
    want = expected_for(case_id)
    n, p, rank = want.ideals, want.elements, parse_case(case_id)[1]
    names = ["uni", "maxchain"]
    names += [f"chain_{mode}_{k}" for mode in ("strict", "multi") for k in range(p + 1)]
    names += [f"rowmotion_orbit_{j}" for j in range(rowmotion_orbits)]
    names += [f"gyration_orbit_{j}" for j in range(gyration_orbits)]
    rows = [("minuscule", n), ("structure", 2 + n * n), ("commutation", n * rank)]
    rows += [(check, n * rank) for check in IDENTITIES]
    rows += [
        ("ddeg_decomposition", n),
        ("toggle_symmetry", p * len(names)),
        ("cde_strict", p + 1),
        ("cde_multi", p + 1),
        ("lp_certificate", 2),
        ("homomesy_rowmotion", rowmotion_orbits),
        ("homomesy_gyration", gyration_orbits),
        ("heap_words", WORDS),
    ]
    return rows, names


def check_verify(text: str, cases: tuple[str, ...]) -> list[str]:
    """Exactly ``cases`` were run, each with the check rows and instance
    counts that follow from the oracle, and every row has 0 failures;
    every distribution expectation and both LP optima equal the oracle
    constant."""
    payload, problems = _parse(text)
    if payload is None:
        return problems
    got = tuple(c["case"] for c in payload["cases"])
    if got != cases:
        problems.append(f"cases {got} != expected {cases}")
    if payload["skipped"]:
        problems.append(f"skipped cases {payload['skipped']}")
    if payload["total_failures"] != 0:
        problems.append(f"total_failures = {payload['total_failures']}")
    for case in payload["cases"]:
        cid = case["case"]
        want = expected_for(cid)
        if _frac(case["constant"]) != want.constant:
            problems.append(f"{cid}: constant {case['constant']} != {want.constant}")
        got_rows = [(row["check"], row["instances"]) for row in case["checks"]]
        orbits = dict(got_rows)
        rowmotion, gyration = orbits.get("homomesy_rowmotion", 0), orbits.get("homomesy_gyration", 0)
        # Orbit sizes divide h, so there are at least |J(P)| / h orbits.
        if min(rowmotion, gyration) * want.coxeter < want.ideals:
            problems.append(f"{cid}: too few orbits ({rowmotion} rowmotion, {gyration} gyration)")
        want_rows, want_names = verify_rows(cid, rowmotion, gyration)
        if got_rows != want_rows:
            problems.append(f"{cid}: check rows differ: {_first_difference(got_rows, want_rows)}")
        for row in case["checks"]:
            if row["failures"] != 0:
                problems.append(f"{cid}: check {row['check']} has {row['failures']} failures")
        got_names = [d["distribution"] for d in case["distributions"]]
        if got_names != want_names:
            problems.append(f"{cid}: distributions differ: {_first_difference(got_names, want_names)}")
        for d in case["distributions"]:
            if _frac(d["expectation"]) != want.constant:
                problems.append(
                    f"{cid}: {d['distribution']} expectation {d['expectation']} != {want.constant}"
                )
        for end in ("minimum", "maximum"):
            if _frac(case["lp"][end]) != want.constant:
                problems.append(f"{cid}: LP {end} {case['lp'][end]} != {want.constant}")
    return problems


def check_build(text: str, case_id: str) -> list[str]:
    """Counts match the oracle, every ideal bit string is downward closed
    under the heap covers, and ideal weights equal orbit weights as sets."""
    payload, problems = _parse(text)
    if payload is None:
        return problems
    want = expected_for(case_id)
    c = payload["case"]
    got_id = f"{c['family']}{c['rank']}.{c['node']}"
    if got_id != case_id:
        problems.append(f"case {got_id} != {case_id}")
    if _frac(payload["constant"]) != want.constant:
        problems.append(f"constant {payload['constant']} != {want.constant}")
    orbit, heap, ideals = payload["orbit"], payload["heap"], payload["ideals"]
    sizes = {
        "orbit.size": (orbit["size"], want.ideals),
        "orbit.weights": (len(orbit["weights"]), want.ideals),
        "heap.size": (heap["size"], want.elements),
        "heap.labels": (len(heap["labels"]), want.elements),
        "ideals.count": (ideals["count"], want.ideals),
        "ideals.ideals": (len(ideals["ideals"]), want.ideals),
    }
    for name, (got, exp) in sizes.items():
        if got != exp:
            problems.append(f"{name} = {got}, oracle says {exp}")
    width = heap["size"]
    if len(set(ideals["ideals"])) != len(ideals["ideals"]):
        problems.append("repeated ideal bit strings")
    for bits in ideals["ideals"]:
        if len(bits) != width or set(bits) - {"0", "1"}:
            problems.append(f"malformed ideal bit string {bits!r}")
            break
        bad = [(a, b) for a, b in heap["covers"] if bits[b] == "1" and bits[a] == "0"]
        if bad:
            problems.append(f"ideal {bits} is not downward closed (cover {bad[0]})")
            break
    ideal_weights = {tuple(w) for w in ideals["weights"] or ()}
    orbit_weights = {tuple(w) for w in orbit["weights"]}
    if ideal_weights != orbit_weights or len(orbit_weights) != want.ideals:
        problems.append("ideal weights and orbit weights differ as sets")
    return problems


def orbit_sizes(text: str) -> list[int]:
    return sorted(row["size"] for row in json.loads(text)["orbits"])


def check_orbits(text: str, case_id: str, action: str) -> list[str]:
    """Orbits partition J(P), each size divides h, and every orbit mean
    equals the oracle constant."""
    payload, problems = _parse(text)
    if payload is None:
        return problems
    want = expected_for(case_id)
    if (payload["case"], payload["action"]) != (case_id, action):
        problems.append(f"answer for {payload['case']} {payload['action']}")
    if _frac(payload["constant"]) != want.constant:
        problems.append(f"constant {payload['constant']} != {want.constant}")
    members: list[int] = []
    for row in payload["orbits"]:
        size = row["size"]
        if size != len(row["ideals"]):
            problems.append(f"orbit lists {len(row['ideals'])} ideals but size {size}")
        if want.coxeter % size:
            problems.append(f"orbit size {size} does not divide h = {want.coxeter}")
        if _frac(row["ddeg_mean"]) != want.constant or not row["matches_constant"]:
            problems.append(f"orbit mean {row['ddeg_mean']} != {want.constant}")
        members += row["ideals"]
    if sum(r["size"] for r in payload["orbits"]) != want.ideals:
        problems.append(f"orbit sizes do not sum to |J(P)| = {want.ideals}")
    if sorted(members) != list(range(want.ideals)):
        problems.append("orbits do not partition the ideals")
    return problems


def check_conjugate(rowmotion: list[int], gyration: list[int]) -> list[str]:
    """Rowmotion and gyration are conjugate in the toggle group, so they
    have the same multiset of orbit sizes."""
    if Counter(rowmotion) != Counter(gyration):
        return [f"rowmotion orbit sizes {rowmotion} != gyration orbit sizes {gyration}"]
    return []


def check_setup(text: str, cases: tuple[str, ...]) -> list[str]:
    """The set-up child reports [|J(P)|, |P|] for each case it built."""
    payload, problems = _parse(text)
    if payload is None:
        return problems
    for cid in cases:
        want = expected_for(cid)
        if payload.get(cid) != [want.ideals, want.elements]:
            problems.append(f"set-up of {cid} gave sizes {payload.get(cid)}")
    return problems

