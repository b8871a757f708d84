import hashlib
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minuscule import IdealLattice, cli
from minuscule.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    CaseSpec,
    CheckRow,
    build_case,
    default_catalog,
    main,
    render_verify_csv,
    verify_case,
)
from oracles import pairwise_structure_failures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_grid_bundle(capsys):
    code, out, _ = run(capsys, "build", "A", "3", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["heap"]["size"] == 4
    assert payload["ideals"]["count"] == 6
    assert payload["constant"] == "1/1"
    assert payload["ideals"]["ideals"][0] == "0000"
    assert payload["orbit"]["weights"][0] == [0, 1, 0]


def test_build_exceptional_bundle(capsys):
    code, out, _ = run(capsys, "build", "E", "7", "7")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["heap"]["size"] == 27
    assert payload["ideals"]["count"] == 56


def test_build_node_out_of_range(capsys):
    code, _, err = run(capsys, "build", "A", "2", "0")
    assert code == EXIT_DOMAIN
    assert "out of range" in err


def test_build_unsupported_family_rank(capsys):
    code, _, err = run(capsys, "build", "E", "8", "1")
    assert code == EXIT_DOMAIN
    assert "E8" in err


def test_build_dot_output(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "A", "2", "1", "--format=dot", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert out.count("digraph") == 2
    assert (tmp_path / "A2.1.orbit.dot").exists()
    assert (tmp_path / "A2.1.heap.dot").exists()


def test_verify_single_case_csv(capsys):
    code, out, _ = run(capsys, "verify", "A", "3", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "case,check,instances,failures"
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[0] == "A3.2" and row[3] == "0" for row in rows)
    checks = {row[1] for row in rows}
    assert {
        "minuscule",
        "structure",
        "commutation",
        "label_count",
        "signed_toggle_sum",
        "weighted_toggle_sum",
        "fiber_statistic",
        "ddeg_decomposition",
        "toggle_symmetry",
        "cde_strict",
        "cde_multi",
        "lp_certificate",
        "homomesy_rowmotion",
        "homomesy_gyration",
        "heap_words",
    } <= checks


def test_verify_non_minuscule_node(capsys):
    code, _, err = run(capsys, "verify", "D", "4", "2")
    assert code == EXIT_DOMAIN
    assert "not minuscule" in err


def test_verify_json_report(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "A", "1", "1", "--format=json", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    case = payload["cases"][0]
    assert case["case"] == "A1.1"
    assert case["constant"] == "1/2"
    assert payload["total_failures"] == 0
    assert case["lp"]["minimum"] == "1/2" and case["lp"]["maximum"] == "1/2"
    names = {d["distribution"] for d in case["distributions"]}
    assert {"uni", "maxchain", "chain_strict_0", "chain_multi_1"} <= names
    assert all(d["equal"] for d in case["distributions"])
    assert (tmp_path / "report.json").read_text() == out


def test_verify_needs_case_or_all(capsys):
    code, _, err = run(capsys, "verify")
    assert code == EXIT_DOMAIN
    assert "FAMILY RANK NODE" in err


def test_verify_resource_cap_single_case(capsys):
    code, _, err = run(capsys, "verify", "E", "6", "6", "--cap-ideals", "5")
    assert code == EXIT_RESOURCE
    assert "cap" in err


def test_sweep_skips_capped_cases_with_distinct_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--cap-ideals", "20", "--words", "5")
    assert code == EXIT_RESOURCE  # skipped entries, but zero check failures
    lines = out.strip().splitlines()
    skipped = [line for line in lines if line.endswith(",skipped,0,0")]
    verified = [line for line in lines[1:] if not line.endswith(",skipped,0,0")]
    assert skipped and verified
    assert any(line.startswith("E6.6,skipped") for line in skipped)
    assert all(line.split(",")[3] == "0" for line in verified)


def test_orbits_tables(capsys):
    code, out, _ = run(capsys, "orbits", "A", "3", "2", "--action=rowmotion")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "size,ddeg_mean,matches_constant",
        "4,1/1,true",
        "2,1/1,true",
    ]
    code, out, _ = run(capsys, "orbits", "A", "1", "1")
    assert out.splitlines()[1] == "2,1/2,true"


def test_orbits_gyration_e6(capsys):
    code, out, _ = run(capsys, "orbits", "E", "6", "6", "--action=gyration")
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert rows
    for row in rows:
        size, mean, match = row.split(",")
        assert mean == "4/3" and match == "true"


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "A", "2", "1", "--format=json")
    payload = json.loads(out)
    assert payload["constant"] == "2/3"
    assert sum(o["size"] for o in payload["orbits"]) == 3


def test_default_catalog_shape():
    catalog = default_catalog()
    assert len(catalog) >= 20
    ids = [spec.case_id for spec in catalog]
    assert len(set(ids)) == len(ids)
    assert "A7.4" in ids and "D8.8" in ids and "E7.7" in ids and "E6.1" in ids


def test_render_csv_is_stable():
    bundle = build_case("A", 2, 1)
    res1 = verify_case(bundle, seed=1, word_trials=5)
    res2 = verify_case(bundle, seed=1, word_trials=5)
    assert render_verify_csv([res1], []) == render_verify_csv([res2], [])


def test_verify_rerun_output_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "D", "4", "4", "--seed=3")
    code2, out2, _ = run(capsys, "verify", "D", "4", "4", "--seed=3")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


# sha256 of ``verify --all --seed=1`` stdout, per format.  Any change to
# the sweep's report, even a reordered row, changes these.
SWEEP_DIGESTS = {
    "json": "58c4157c5938b35f3ee0aa431812616225e059e58581f0e10f6fab2f034b016b",
    "csv": "2dd9de4e767d149d647dfab95edb378608539f96b5bd1f24f6be8bfa08960688",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_DIGESTS))
def test_sweep_report_matches_its_golden_digest(capsys, fmt):
    code, out, err = run(capsys, "verify", "--all", "--seed=1", f"--format={fmt}")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[fmt]


def test_verify_case_runs_word_rebuilds_through_the_module_binding(monkeypatch):
    """The benchmark times ``heap.rebuild_s`` by wrapping this binding, so
    ``verify_case`` must look it up on the module at call time."""
    calls = []
    rebuild = cli._word_robustness_failures

    def spy(bundle, trials, seed):
        calls.append((bundle.spec.case_id, trials, seed))
        return rebuild(bundle, trials, seed)

    monkeypatch.setattr(cli, "_word_robustness_failures", spy)
    result = verify_case(build_case("A", 3, 2), seed=4, word_trials=7)
    assert calls == [("A3.2", 7, 4)]
    assert CheckRow("heap_words", 7, 0) in result.checks


def test_verify_multi_chain_mode_alone(capsys):
    """Multichain rows come from the strict ones even when the strict
    rows are not reported; they match those of the default run."""
    code, out, _ = run(capsys, "verify", "E", "6", "6", "--chain-mode", "multi", "--format=json")
    assert code == EXIT_OK
    case = json.loads(out)["cases"][0]
    _, both, _ = run(capsys, "verify", "E", "6", "6", "--format=json")
    full = json.loads(both)["cases"][0]
    names = [d["distribution"] for d in case["distributions"]]
    assert [f"chain_multi_{k}" for k in range(17)] == [n for n in names if n.startswith("chain_")]
    checks = {c["check"]: c for c in case["checks"]}
    assert "cde_strict" not in checks and checks["cde_multi"]["instances"] == 17
    full_checks = {c["check"]: c for c in full["checks"]}
    symmetry = full_checks["toggle_symmetry"]["instances"] - 16 * 17  # no strict rows
    assert checks["toggle_symmetry"] == dict(full_checks["toggle_symmetry"], instances=symmetry)
    multi = [d for d in full["distributions"] if not d["distribution"].startswith("chain_strict_")]
    assert case["distributions"] == multi


def test_verify_negative_words_is_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "A", "1", "1", "--words", "-3")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "verify", "A", "1", "1", "--words", "0")
    assert code == EXIT_OK
    assert "A1.1,heap_words,0,0" in out.splitlines()


def test_verify_json_lp_block_carries_the_witness(capsys):
    code, out, _ = run(capsys, "verify", "A", "1", "1", "--format=json", "--words", "0")
    assert code == EXIT_OK
    lp = json.loads(out)["cases"][0]["lp"]
    assert lp == {
        "constant": "1/2",
        "equal": True,
        "minimum": "1/2",
        "maximum": "1/2",
        "witness": ["1/2", "-1/2"],
    }


def test_out_files_are_written_whole(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "A", "3", "2", "--out", str(tmp_path / "reports"))
    assert code == EXIT_OK
    assert [p.name for p in (tmp_path / "reports").iterdir()] == ["A3.2.json"]
    assert (tmp_path / "reports" / "A3.2.json").read_text() == out


def test_out_path_occupied_by_a_file_is_a_domain_error(capsys, tmp_path):
    occupied = tmp_path / "occupied"
    occupied.write_text("keep\n")
    for argv in (
        ("build", "A", "3", "2"),
        ("verify", "A", "1", "1", "--words", "0"),
        ("orbits", "A", "3", "2"),
    ):
        code, _, err = run(capsys, *argv, "--out", str(occupied))
        assert code == EXIT_DOMAIN
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert occupied.read_text() == "keep\n"


def test_verify_case_together_with_all_is_a_domain_error(capsys):
    for argv in (("A", "3"), ("A", "3", "2"), ("E",)):
        code, out, err = run(capsys, "verify", *argv, "--all")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "FAMILY RANK NODE" in err and "--all" in err


def test_negative_cap_ideals_is_a_domain_error(capsys):
    for argv in (("verify", "A", "3", "2"), ("verify", "--all"), ("build", "A", "3", "2")):
        code, out, err = run(capsys, *argv, "--cap-ideals", "-5")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--cap-ideals" in err
    code, _, err = run(capsys, "verify", "A", "3", "2", "--cap-ideals", "0")
    assert code == EXIT_RESOURCE
    assert err == "error: ideal count exceeds cap of 0\n"


def test_cap_ideals_stops_before_the_lattice_is_built(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("verify_minuscule ran past the ideal cap")

    monkeypatch.setattr(cli, "verify_minuscule", never)
    code, out, err = run(capsys, "build", "A", "16", "8", "--cap-ideals", "10")
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == "error: ideal count exceeds cap of 10\n"


def test_empty_out_is_a_domain_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", "A", "3", "2", "--out", "")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_structure_check_matches_the_pairwise_oracle():
    tampered_failures = 0
    for spec in default_catalog():
        bundle = build_case(spec.family, spec.rank, spec.node)
        assert cli._structure_failures(bundle) == pairwise_structure_failures(bundle)
        L = bundle.lattice
        ideals = L.ideals[:1] + L.ideals[2:3] + L.ideals[1:2] + L.ideals[3:]
        for weights, masks in (
            (L.weights[1:] + L.weights[:1], L.ideals),  # rotated
            (L.weights[:-1] + L.weights[:1], L.ideals),  # not injective
            (L.weights, ideals),  # two ideals swapped
        ):
            lattice = IdealLattice(L.heap, masks, L.covers, weights)
            tampered = bundle._replace(lattice=lattice)
            instances, failures = cli._structure_failures(tampered)
            assert (instances, failures) == pairwise_structure_failures(tampered)
            tampered_failures += failures > 0
    assert tampered_failures > 2 * len(default_catalog())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import minuscule.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_records_and_structures_stay_immutable():
    bundle = build_case("A", 3, 2)
    lattice = bundle.lattice
    for obj, name in (
        (CaseSpec("A", 3, 2), "rank"),
        (CheckRow("structure", 38, 0), "failures"),
        (bundle.cartan, "det"),
        (bundle.heap, "base"),
        (lattice, "weights"),
        (bundle.orbit, "covers"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert lattice.toggle_masks is lattice.toggle_masks
    assert weakref.ref(lattice)() is lattice
    assert lattice != IdealLattice(lattice.heap, lattice.ideals, lattice.covers, lattice.weights)


@st.composite
def command_lines(draw):
    """A command over a family (X is not one), a rank, a node and the
    flags, each drawn from both sides of its valid range; ``one_of``
    draws from the valid part half the time, so some commands succeed."""
    command = draw(st.sampled_from(("build", "verify", "orbits")))
    rank = draw(st.one_of(st.integers(1, 9), st.integers(-2, 9)))
    node = draw(st.one_of(st.integers(1, max(rank, 1)), st.integers(-1, 10)))
    argv = [command, draw(st.sampled_from("ADEX")), str(rank), str(node)]
    argv += ["--cap-ideals", str(draw(st.one_of(st.integers(10, 50), st.integers(-1, 50))))]
    if command == "verify":
        argv += ["--words", str(draw(st.one_of(st.integers(0, 3), st.integers(-2, 3))))]
        argv += ["--chain-mode", draw(st.sampled_from(("strict", "multi", "both")))]
    return argv


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_cli_fuzz_exits_cleanly(capsys, argv):
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    if code:
        assert "error:" in err.rstrip("\n").split("\n")[-1], (argv, err)
