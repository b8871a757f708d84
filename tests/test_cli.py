import json

from minuscule.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    build_case,
    default_catalog,
    main,
    render_verify_csv,
    verify_case,
)


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


def test_verify_negative_words_is_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "A", "1", "1", "--words", "-3")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "verify", "A", "1", "1", "--words", "0")
    assert code == EXIT_OK
    assert "A1.1,heap_words,0,0" in out.splitlines()
