"""Acceptance suite: one test per criterion, one printed line per criterion.

Every equality here is exact (tolerance zero); runtime bounds are wall
clock.  Run with ``pytest -s tests/test_acceptance.py`` to see the
summary lines as they happen.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import minuscule
from minuscule import (
    action_orbits,
    build_cartan,
    build_minuscule_heap,
    chain_distribution,
    enumerate_ideals,
    expectation,
    fundamental_weight,
    gyration,
    heap_from_word,
    heaps_isomorphic,
    homomesy_report,
    identity_suite,
    lp_certificate,
    orbit_distribution,
    random_linear_extension,
    rowmotion,
    tcde_constant,
    toggle_symmetry_report,
    uniform_distribution,
    verify_commutation,
    word_of_extension,
)
from minuscule.cli import build_case, default_catalog
from oracles import grid_word

GRIDS = [(a, b) for a in range(2, 5) for b in range(a, 5)]
CATALOG = [(spec.family, spec.rank, spec.node) for spec in default_catalog()]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:>3}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


def test_criterion_1_grid_family():
    start = time.perf_counter()
    failures = []
    for a, b in GRIDS:
        cd = build_cartan("A", a + b - 1)
        lam = fundamental_weight(cd, a)
        h = build_minuscule_heap(cd, lam)
        grid = heap_from_word(cd, grid_word(a, b))
        if heaps_isomorphic(h, grid) is None:
            failures.append((a, b, "not grid-isomorphic"))
        L = enumerate_ideals(h)
        mean = expectation(uniform_distribution(L), L.down_degrees)
        if mean != Fraction(a * b, a + b):
            failures.append((a, b, f"uniform mean {mean}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report("1", ok, f"{len(GRIDS)} grids, uniform mean ab/(a+b), {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_2_exceptional_cases():
    start = time.perf_counter()
    expected = {("E", 6, 6): (16, 27, Fraction(4, 3)), ("E", 7, 7): (27, 56, Fraction(3, 2))}
    failures = []
    for (family, rank, node), (heap_size, ideal_count, constant) in expected.items():
        cd = build_cartan(family, rank)
        lam = fundamental_weight(cd, node)
        h = build_minuscule_heap(cd, lam)
        L = enumerate_ideals(h)
        if len(h) != heap_size or len(L) != ideal_count:
            failures.append((family, rank, node, len(h), len(L)))
        if tcde_constant(cd, lam) != constant:
            failures.append((family, rank, node, "constant"))
        if any(row.failures for row in identity_suite(L)):
            failures.append((family, rank, node, "identity suite"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report("2", ok, f"E6: 16/27 const 4/3, E7: 27/56 const 3/2, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_identity_suites():
    total = 0
    failed = 0
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        for row in identity_suite(bundle.lattice):
            total += row.instances
            failed += row.failures
    report("3", failed == 0, f"{total} identity instances across {len(CATALOG)} cases")
    assert failed == 0


def test_criterion_4_commutation():
    total = 0
    bad = 0
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        rep = verify_commutation(bundle.lattice)
        total += rep.instances
        bad += len(rep.violations)
    report("4", bad == 0, f"{total} (ideal, node) commutations")
    assert bad == 0


def test_criterion_5_cde_mcde():
    checked = 0
    failures = []
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        L = bundle.lattice
        constant = expectation(uniform_distribution(L), L.down_degrees)
        for mode in ("strict", "multi"):
            for k in range(len(bundle.heap) + 1):
                checked += 1
                if expectation(chain_distribution(L, k, mode), L.down_degrees) != constant:
                    failures.append((bundle.spec.case_id, mode, k))
    report("5", not failures, f"{checked} chain distributions, strict and multi")
    assert not failures, failures


def test_criterion_6_lp_certificate_catalog():
    failures = []
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        if len(bundle.lattice) > 1000:
            continue
        cert = lp_certificate(bundle.lattice)
        if not (cert.minimum == cert.maximum == bundle.constant):
            failures.append((bundle.spec.case_id, cert.minimum, cert.maximum))
    report("6a", not failures, f"LP min = max = constant on {len(CATALOG)} cases")
    assert not failures, failures


def test_criterion_6_v_poset_control():
    """Stated control: the 3-element fork (two minimal elements under one
    top) should separate, i.e. LP min != max.  Exhaustive computation
    over its 5-ideal lattice shows every toggle-symmetric distribution
    has expected down-degree exactly 1 (this holds for every 3-element
    poset), so the assertion below fails; the 4-element N-shaped control
    in test_cde.py::test_nonminuscule_control_poset_separates is the
    smallest poset that actually separates."""
    cd = build_cartan("A", 3)
    fork = heap_from_word(cd, (1, 3, 2))  # two minimal elements below one top
    assert set(fork.covers) == {(0, 2), (1, 2)}
    L = enumerate_ideals(fork)
    assert len(L) == 5
    cert = lp_certificate(L)
    separated = cert.minimum != cert.maximum
    report(
        "6b",
        separated,
        f"3-element fork control: min {cert.minimum}, max {cert.maximum}"
        + ("" if separated else " (control cannot separate; see 4-element control)"),
    )
    assert separated, (
        "every toggle-symmetric distribution on the 3-element fork lattice "
        f"has expectation {cert.minimum}; no 3-element poset separates"
    )


def test_criterion_7_homomesy():
    orbit_count = 0
    failures = []
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        L = bundle.lattice
        for action_name, action in (("rowmotion", rowmotion), ("gyration", gyration)):
            rep = homomesy_report(L, action_name)
            orbit_count += len(rep.rows)
            if not rep.ok:
                failures.append((bundle.spec.case_id, action_name, "mean"))
            for orbit in action_orbits(L, action):
                if not toggle_symmetry_report(L, orbit_distribution(L, orbit)).ok:
                    failures.append((bundle.spec.case_id, action_name, "symmetry"))
    report("7", not failures, f"{orbit_count} action orbits, means and symmetry")
    assert not failures, failures


def test_criterion_8_heap_robustness():
    trials = 100
    failures = []
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        h = bundle.heap
        rng = random.Random(f"acceptance:{family}{rank}.{node}")
        for _ in range(trials):
            rebuilt = heap_from_word(
                bundle.cartan, word_of_extension(h, random_linear_extension(h, rng))
            )
            if heaps_isomorphic(h, rebuilt) is None or sorted(rebuilt.names) != sorted(h.names):
                failures.append((bundle.spec.case_id,))
                break
    report("8", not failures, f"{trials} random words per case, {len(CATALOG)} cases")
    assert not failures, failures


def test_criterion_9_structural_oracle_equivalence():
    failures = []
    for family, rank, node in CATALOG:
        bundle = build_case(family, rank, node)
        L, orb = bundle.lattice, bundle.orbit
        if len(L) != len(orb):
            failures.append((bundle.spec.case_id, "size"))
            continue
        if sorted(L.weights) != sorted(orb.weights):
            failures.append((bundle.spec.case_id, "bijection"))
            continue
        order = [m | (1 << k) for k, m in enumerate(orb.below_masks)]
        pos = [orb.index[w] for w in L.weights]
        for a in range(len(L)):
            for b in range(len(L)):
                contained = L.ideals[a] & ~L.ideals[b] == 0
                dominated = bool(order[pos[b]] >> pos[a] & 1)
                if contained != dominated:
                    failures.append((bundle.spec.case_id, a, b))
    report("9", not failures, "|J(P)| = |orbit| and order isomorphism, both directions")
    assert not failures, failures


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "minuscule", "verify", "--all", "--seed=1"]
    # The subprocess imports the same package as this process, installed or not.
    src = str(Path(minuscule.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report("10", ok, f"two full sweeps, {len(first.stdout)} bytes each, byte-identical")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    rows = first.stdout.decode().strip().splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) >= 20  # sweep breadth
    assert all(row.split(",")[3] == "0" for row in rows)  # zero failures


def test_catalog_is_large_enough():
    assert len(CATALOG) >= 20


PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """Under this project's warning filters, a failing ``@given`` test
    fails alone: the patch writer hypothesis imports for it must not turn
    into an INTERNALERROR that stops the session."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config)]
    cmd += ["--rootdir", str(tmp_path), "test_probe.py"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
