import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minuscule.cde as cde
from minuscule import (
    DomainError,
    Heap,
    IdealLattice,
    InternalCheckError,
    cli,
    enumerate_ideals,
    fundamental_weight,
    heap_from_word,
)
from minuscule.heap import word_rebuild_failures
from minuscule.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    CaseSpec,
    CheckRow,
    _case_csv,
    build_case,
    default_catalog,
    main,
    verify_case,
)
from oracles import (
    commutation_violations_by_toggle_label,
    pairwise_structure_failures,
    per_triple_identity_suite,
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
    assert _case_csv(res1) == _case_csv(res2)


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


# sha256 of the stdout of the benchmark's two ladder command lines.
LADDER_DIGESTS = {
    "verify A 9 5 --format=json --seed=1": "cc59e3d69e1b0d0c918e009842faec712a84d76d53a4e06b4ad1c78fcde54d4d",
    "verify D 9 9 --format=json --seed=1": "6160fe1dc5e4f9232f8131e6afeb6f9eff54c44080f4543a11ebc77edcc59757",
}


@pytest.mark.parametrize("argv", sorted(LADDER_DIGESTS))
def test_ladder_report_matches_its_golden_digest(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LADDER_DIGESTS[argv]


# sha256 of the stdout of the benchmark's explore command lines, and of
# the DOT rendering and the CSV orbit tables, per command line.
EXPLORE_DIGESTS = {
    "build A 9 5 --format=json": "1fee6a7c1d037deb86bdea5ba9bc2abaeca5c375debcf8365ac9308119b95ac4",
    "build D 9 9 --format=json": "00d0eb64ee490c168ec40f23f64069f3fb83e84fadfe3f81bf888a3ff5052630",
    "build D 10 10 --format=json": "ad2c15e11d005cfd972434e6467cec188cd24a38640a86365a275585965991c0",
    "build E 6 6 --format=json": "2c926c4ec0fb3986d7bca84492becbf1f4abc64dc9674461fd83da4ff0c58042",
    "build E 7 7 --format=json": "84af589f87a5466df9b46468ee929179cc32781da1b2bfe3d3e9534347657cd6",
    "build E 7 7 --format=dot": "0e19940bafeaabb36ce8309b25efdf2d2327e17f2c59f40a1693b4a41b115af4",
    "orbits A 9 5 --action=rowmotion --format=json": "09b4c5a7d9225ed397ff3442e37c99cb49d41ff5dcf54e47d255f0c07a40d99d",
    "orbits A 9 5 --action=gyration --format=json": "f20d6978ef561ebd353e5a5ea34cba8904abfee564576a60bef5a8aef9a25780",
    "orbits D 9 9 --action=rowmotion --format=json": "7b59987e1584082414a3f311d6a9c443e4bccc1773019392498ad7639b1f9a00",
    "orbits D 9 9 --action=gyration --format=json": "0b37a5474456631177fd191eec002cc4d78a2719d262cb2993ce158128ec145d",
    "orbits D 10 10 --action=rowmotion --format=json": "8bdc1f5fcde64e6b86842262bb5841d40fb202e3544bd58fc4857b04852904f3",
    "orbits D 10 10 --action=gyration --format=json": "69e4501047a790fd25344d8a1e07d5b2d3d76688a3ac5c7ffc999b593af66cf3",
    "orbits E 6 6 --action=rowmotion --format=json": "e8babc1a8c0d30f27e1bfa8e828cacd585514625d3afc6996962ab4933cf3c45",
    "orbits E 6 6 --action=gyration --format=json": "8155ff8680fec3e0eea1072b1dfa445792169019527716fe0209c13fa09a6bcd",
    "orbits E 7 7 --action=rowmotion --format=json": "d5f93b8f239b2ffb81b4f336d89f661bd86156defdfcb645a6e9a4582d2e3756",
    "orbits E 7 7 --action=gyration --format=json": "421f56a36a87da86c2a641676b0e8c0a40e779d5d94e9814b64bd438b46e8328",
    "orbits E 6 6 --action=rowmotion --format=csv": "6925027f58fa2d59096f660c2d5c39c9baf57c75399dfac7c8372a1471aeb890",
    "orbits E 6 6 --action=gyration --format=csv": "6925027f58fa2d59096f660c2d5c39c9baf57c75399dfac7c8372a1471aeb890",
}


@pytest.mark.parametrize("argv", sorted(EXPLORE_DIGESTS))
def test_explore_output_matches_its_golden_digest(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EXPLORE_DIGESTS[argv]


def assert_canonical_json(out):
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [f"build {c[0]} {c[1:].replace('.', ' ')}" for c in ("A9.5", "D9.9", "D10.10", "E6.6", "E7.7")]
    + [
        f"orbits {c[0]} {c[1:].replace('.', ' ')} --action={action} --format=json"
        for c in ("A9.5", "D9.9", "D10.10", "E6.6", "E7.7")
        for action in ("rowmotion", "gyration")
    ],
)
def test_build_and_orbits_json_is_what_the_json_module_writes(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert_canonical_json(out)


@pytest.mark.parametrize("cap,cases", [("20", 28), ("0", 0)])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_json_is_what_the_json_module_writes(capsys, monkeypatch, cpus, cap, cases):
    """Capped sweeps, with some cases skipped or all of them, render the
    report the json module writes on any number of processes."""
    use_cpus(monkeypatch, cpus)
    code, out, _ = run(capsys, "verify", "--all", "--cap-ideals", cap, "--words", "5", "--format=json")
    assert_no_worker_left()
    assert code == EXIT_RESOURCE
    assert_canonical_json(out)
    payload = json.loads(out)
    assert len(payload["cases"]) == cases
    assert len(payload["skipped"]) == len(default_catalog()) - cases


def use_cpus(monkeypatch, cpus):
    """Make ``verify --all`` see ``cpus`` CPUs, so it runs on that many
    processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", sorted(SWEEP_DIGESTS))
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_report_is_the_same_on_any_number_of_processes(capsys, monkeypatch, cpus, fmt):
    use_cpus(monkeypatch, cpus)
    code, out, err = run(capsys, "verify", "--all", "--seed=1", f"--format={fmt}")
    assert_no_worker_left()
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[fmt]


def test_capped_sweep_is_the_same_on_any_number_of_processes(capsys, monkeypatch):
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        runs.append(run(capsys, "verify", "--all", "--cap-ideals", "20", "--words", "5"))
        assert_no_worker_left()
    code, out, err = runs[0]
    assert code == EXIT_RESOURCE and err == ""
    assert "E7.7,skipped,0,0" in out.splitlines()
    assert runs == [runs[0]] * 3


def catalog_position(cpus, worker):
    """A catalog position that process ``worker`` (0 is the parent) runs
    in a sweep on ``cpus`` processes."""
    return 2 * cpus + worker


@pytest.mark.parametrize("earlier", ["worker", "parent"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_raises_the_error_of_the_earliest_failing_case(capsys, monkeypatch, cpus, earlier):
    """One case run by a worker and one run by the parent raise; the
    sweep reports the earlier one in catalog order, as a serial sweep
    would, and prints no report."""
    use_cpus(monkeypatch, cpus)
    catalog = default_catalog()
    in_worker = catalog_position(cpus, 1)
    in_parent = catalog_position(cpus, 0) + (0 if earlier == "parent" else 2 * cpus)
    failing = {catalog[in_worker].case_id, catalog[in_parent].case_id}
    real = cli.verify_case

    def verify_case_or_raise(bundle, *args, **kwargs):
        if bundle.spec.case_id in failing:
            raise DomainError(f"planted failure in {bundle.spec.case_id}, pid {os.getpid()}")
        return real(bundle, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_case", verify_case_or_raise)
    code, out, err = run(capsys, "verify", "--all", "--words", "5")
    assert_no_worker_left()
    first = catalog[min(in_worker, in_parent)].case_id
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith(f"error: planted failure in {first}, pid ")
    ran_in_parent = err == f"error: planted failure in {first}, pid {os.getpid()}\n"
    assert ran_in_parent == (cpus == 1 or earlier == "parent")


def test_a_sweep_stops_at_its_first_failing_case(capsys, monkeypatch):
    """On one process the sweep verifies no case after the first failing
    one, whose error it raises as before."""
    use_cpus(monkeypatch, 1)
    first = default_catalog()[0].case_id
    calls = []

    def verify_case_or_raise(bundle, *args, **kwargs):
        calls.append(bundle.spec.case_id)
        raise DomainError(f"planted failure in {bundle.spec.case_id}")

    monkeypatch.setattr(cli, "verify_case", verify_case_or_raise)
    code, out, err = run(capsys, "verify", "--all", "--words", "5")
    assert (code, out, err) == (EXIT_DOMAIN, "", f"error: planted failure in {first}\n")
    assert calls == [first]


@pytest.mark.parametrize("status", [9, 0])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_that_dies_fails_the_sweep_with_its_cases(capsys, monkeypatch, cpus, status):
    """A worker that exits in the middle of its share, with an error
    status or with 0 and no results sent, fails the sweep with an
    InternalCheckError naming its cases; no report is printed."""
    use_cpus(monkeypatch, cpus)
    catalog = default_catalog()
    victim = catalog[catalog_position(cpus, 1)].case_id
    parent = os.getpid()
    real = cli.verify_case

    def verify_case_or_exit(bundle, *args, **kwargs):
        if bundle.spec.case_id == victim and os.getpid() != parent:
            os._exit(status)
        return real(bundle, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_case", verify_case_or_exit)
    with pytest.raises(InternalCheckError) as info:
        main(["verify", "--all", "--words", "5"])
    assert_no_worker_left()
    assert capsys.readouterr().out == ""
    message = str(info.value)
    assert ", ".join(spec.case_id for spec in catalog[1::cpus]) in message
    expected = f"wait status {status << 8}" if status else "unreadable results"
    assert expected in message


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_interrupted_sweep_kills_its_workers(capsys, monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    interrupted = default_catalog()[catalog_position(cpus, 0)].case_id
    real = cli.verify_case

    def verify_case_or_interrupt(bundle, *args, **kwargs):
        if bundle.spec.case_id == interrupted:
            raise KeyboardInterrupt
        return real(bundle, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_case", verify_case_or_interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--all"])
    assert_no_worker_left()
    assert capsys.readouterr().out == ""


def test_commands_on_one_process_never_import_pickle():
    """Single-case verify, build, orbits and a sweep on one CPU fork no
    worker, so they pay for no pickle import, nor for the signal import
    of the worker cleanup."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import contextlib, io, os\n"
        "import minuscule.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv.split()) for argv in (\n"
        "        'verify A 3 2', 'build A 3 2', 'orbits A 3 2', 'verify --all --words 0')]\n"
        "print(codes, 'pickle' in sys.modules, 'signal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[0, 0, 0, 0] False False\n"


def run_module(*argv, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m minuscule`` in a fresh interpreter, on this checkout's
    package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "minuscule", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [
        "build A 3 2",
        "build E 6 6 --format=dot",
        "orbits D 5 5 --action=gyration --format=json",
        "verify A 3 2 --words 5",
        "build A 3 9",
        "build X 3 2",
        "verify A 16 8 --cap-ideals 10",
    ],
)
def test_module_exit_matches_the_in_process_cli(capsys, argv):
    """The module ends without the interpreter's teardown, and prints and
    exits as ``cli.main`` does in process; argparse's exit 2 included."""
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    proc = run_module(*argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == {"build A 3 9": 2, "build X 3 2": 2, "verify A 16 8 --cap-ideals 10": 3}.get(argv, 0)


def test_module_out_file_equals_its_stdout(tmp_path):
    proc = run_module("orbits", "E", "6", "6", "--format=json", "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "E6.6.rowmotion.json").read_text() == proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv,buffered_code", [("build E 6 6", 1), ("orbits A 3 2", 120)])
def test_module_on_a_closed_pipe_exits_as_the_interpreter_does(argv, buffered_code, unbuffered):
    """Exit codes of a normal interpreter exit with stdout closed: a report
    larger than the stream buffer fails in ``write`` (1, with a
    traceback); a small one fails in the flush at exit (120, with no
    traceback), or in ``write`` when unbuffered."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = run_module(*argv.split(), stdout=write_fd, unbuffered=unbuffered)
    finally:
        os.close(write_fd)
    code = 1 if unbuffered else buffered_code
    lines = proc.stderr.splitlines()
    assert proc.returncode == code
    assert lines[-1] == "BrokenPipeError: [Errno 32] Broken pipe"
    if code == 120:
        assert len(lines) == 2 and lines[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    else:
        assert lines[0] == "Traceback (most recent call last):"


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


def spy_on(monkeypatch, name):
    """Record the arguments and result of each call to ``cli.<name>``."""
    calls = []
    real = getattr(cli, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, spy)
    return calls


@pytest.mark.parametrize("argv", ["verify --all", "verify A 9 5", "verify D 9 9"])
def test_the_cover_certificate_draws_no_trial_on_the_catalog_or_the_ladder(
    capsys, monkeypatch, argv
):
    """Every case's lattice is J(P) of its heap with no failing cover, so
    its ``heap_words`` row reads all 100 trials passed and none is drawn."""
    use_cpus(monkeypatch, 1)
    trials = spy_on(monkeypatch, "word_rebuild_failures")
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK and trials == []
    rows = [line for line in out.splitlines() if ",heap_words," in line]
    cases = len(default_catalog()) if "--all" in argv else 1
    assert len(rows) == cases and all(row.endswith(",heap_words,100,0") for row in rows)


def test_a_consistently_tampered_bundle_reports_the_trials_count(monkeypatch):
    """With a cover added to the heap, and the lattice its J(P), the
    heap is no heap of its own word on every catalog case that has a
    pair to add, and the row then reads the seeded trials' count."""
    certificates = spy_on(monkeypatch, "is_heap_of_its_word")
    trials = spy_on(monkeypatch, "word_rebuild_failures")
    tampered = 0
    for spec in default_catalog():
        bundle = build_case(spec.family, spec.rank, spec.node)
        h = bundle.heap
        pairs = [(a, b) for b in range(len(h)) for a in range(b) if (a, b) not in h.covers]
        if not pairs:
            continue
        heap = Heap(h.cartan, h.labels, tuple(sorted(h.covers + (pairs[0],))), h.base)
        bundle = bundle._replace(heap=heap, lattice=enumerate_ideals(heap))
        want = word_rebuild_failures(heap, random.Random(f"3:{spec.case_id}"), 20)
        assert cli._word_robustness_failures(bundle, 20, 3) == (20, want) == (20, 20)
        assert certificates[-1][0] == (heap,) and certificates[-1][1] is False
        assert trials[-1][0][0] is heap
        tampered += 1
    assert tampered == len(certificates) == len(trials) == len(default_catalog()) - 3


def test_a_genuine_heap_needs_no_lattice(monkeypatch):
    """A heap of its own word certifies its word rebuilds by itself: with
    the lattice J(P) of another ``Heap`` object, built from the same
    word, the ``heap_words`` row reads every trial passed and none is
    drawn."""
    trials = spy_on(monkeypatch, "word_rebuild_failures")
    for spec in default_catalog():
        bundle = build_case(spec.family, spec.rank, spec.node)
        h = bundle.heap
        other = heap_from_word(h.cartan, h.labels, h.base)
        bundle = bundle._replace(lattice=enumerate_ideals(other))
        assert bundle.lattice.heap is not bundle.heap
        assert cli._word_robustness_failures(bundle, 100, 1) == (100, 0), spec
    result = verify_case(bundle, seed=1, word_trials=100)
    assert CheckRow("heap_words", 100, 0) in result.checks
    assert trials == []


def test_cde_rows_count_the_chain_rows(capsys, monkeypatch):
    """One strict chain row of A3.2 off the constant fails ``cde_strict``
    once, and ``cde_multi`` on each multichain row built on it (k = 2, 3,
    4); the JSON shows which distributions miss the constant."""
    real = cli.strict_chain_rows

    def tampered(lattice):
        rows = list(real(lattice))
        rows[2] = rows[2]._replace(ddeg_sum=rows[2].ddeg_sum + 1)
        return tuple(rows)

    monkeypatch.setattr(cli, "strict_chain_rows", tampered)
    code, out, _ = run(capsys, "verify", "A", "3", "2", "--format=json")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    case = payload["cases"][0]
    failures = {row["check"]: row["failures"] for row in case["checks"]}
    assert (failures["cde_strict"], failures["cde_multi"]) == (1, 3)
    assert payload["total_failures"] == 4
    unequal = {d["distribution"] for d in case["distributions"] if not d["equal"]}
    assert unequal == {"chain_strict_2", "chain_multi_2", "chain_multi_3", "chain_multi_4"}
    assert {d["constant"] for d in case["distributions"]} == {"1/1"}


def _swap_weights_of_ideals_1_and_2(bundle, monkeypatch):
    L = bundle.lattice
    weights = L.weights[:1] + L.weights[2:3] + L.weights[1:2] + L.weights[3:]
    return bundle._replace(lattice=IdealLattice(L.heap, L.ideals, L.covers, weights))


def _shift_heap_base_by_omega_1(bundle, monkeypatch):
    h, L = bundle.heap, bundle.lattice
    base = (h.base[0] + 1,) + h.base[1:]
    heap = Heap(h.cartan, h.labels, h.covers, base)
    return bundle._replace(heap=heap, lattice=IdealLattice(heap, L.ideals, L.covers, L.weights))


def test_the_gram_solve_decides_the_lp_row_for_a_shifted_base(monkeypatch):
    """The closed-form witness read off a base shifted by omega_1 fails
    the exact check, so the Gram solve finds the witness of the
    untouched lattice, and the ``lp_certificate`` row still passes."""
    bundle = build_case("A", 3, 2)
    want = cde._dual_witness(bundle.lattice)
    shifted = _shift_heap_base_by_omega_1(bundle, monkeypatch)
    calls = []
    gram = cde._gram_witness
    monkeypatch.setattr(
        cde, "_gram_witness", lambda lattice: calls.append(lattice) or gram(lattice)
    )
    cert = cde.lp_certificate(shifted.lattice)
    assert calls == [shifted.lattice]
    assert cert.witness == want
    assert cert.minimum == cert.maximum == shifted.constant


@pytest.mark.parametrize(
    "tamper,failing",
    [
        (
            _swap_weights_of_ideals_1_and_2,
            {
                "structure": 4,
                "commutation": 7,
                "label_count": 2,
                "signed_toggle_sum": 4,
                "weighted_toggle_sum": 3,
            },
        ),
        (
            _shift_heap_base_by_omega_1,
            {
                "label_count": 18,
                "fiber_statistic": 12,
                "ddeg_decomposition": 6,
                "homomesy_rowmotion": 2,
                "homomesy_gyration": 2,
            },
        ),
    ],
)
def test_identity_rows_through_verify_count_planted_faults(capsys, monkeypatch, tamper, failing):
    """A3.2 with a fault planted in its lattice or heap: ``verify`` exits
    1, the identity rows equal the per-triple oracle, ``structure`` the
    pairwise oracle and ``commutation`` the element-by-element toggles,
    and exactly the rows the fault must trip fail."""
    bundle = tamper(build_case("A", 3, 2), monkeypatch)
    monkeypatch.setattr(cli, "_build_case", lambda spec: bundle)
    code, out, _ = run(capsys, "verify", "A", "3", "2", "--format=json")
    assert code == EXIT_CHECK_FAILED
    failures = {row["check"]: row["failures"] for row in json.loads(out)["cases"][0]["checks"]}
    assert {check: n for check, n in failures.items() if n} == failing
    for row in per_triple_identity_suite(bundle.lattice):
        assert failures[row.check] == row.failures
    assert failures["structure"] == pairwise_structure_failures(bundle)[1]
    assert failures["commutation"] == len(commutation_violations_by_toggle_label(bundle.lattice))


def _report_with_a_mismatch(bundle, monkeypatch):
    return bundle._replace(report=bundle.report._replace(mismatch="planted mismatch"))


def _orbit_of_a3_1(bundle, monkeypatch):
    return bundle._replace(orbit=build_case("A", 3, 1).orbit)


def _weight_of_node_1(bundle, monkeypatch):
    return bundle._replace(weight=fundamental_weight(bundle.cartan, 1))


def _top_ideal_read_twice_by_label_sums(bundle, monkeypatch):
    label_sums = cde.label_sums

    def twice(lattice, values):
        lows, highs = label_sums(lattice, values)
        _, hi, p = lattice.covers[-1]
        highs[p] += values[hi]
        return lows, highs

    monkeypatch.setattr(cde, "label_sums", twice)
    return bundle


def _heap_with_an_extra_cover(bundle, monkeypatch):
    h = bundle.heap
    extra = next((a, b) for b in range(len(h)) for a in range(b) if (a, b) not in h.covers)
    heap = Heap(h.cartan, h.labels, tuple(sorted(h.covers + (extra,))), h.base)
    return bundle._replace(heap=heap)


VERIFY_ROWS = (
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
)

# Each fault planted in the A3.2 case data, or in a reader of it, with
# exactly the rows it trips.
# The report carries a mismatch only the minuscule row reads, and the
# orbit (A3.1's) only the structure row.  Swapping two ideal weights
# breaks the weight map; shifting the heap's base by omega_1 moves every
# weight the identity suite and homomesy read from it, but not the lattice
# weights structure and commutation compare.  The weight of node 1 moves
# only the constant the cde and LP rows compare against (homomesy takes
# its constant from the heap's base).  No lattice can list a cover twice,
# and on J(P) every chain count and orbit indicator is toggle-symmetric,
# so that row's fault is planted in its one reader: ``label_sums``
# adding the value of the top ideal twice to the upper-end sum of the top
# cover's element unbalances every weighting that is nonzero there, and
# changes nothing else.  An extra heap cover fails every rebuilt word.
PLANTED_FAULTS = (
    (_report_with_a_mismatch, {"minuscule"}),
    (_orbit_of_a3_1, {"structure"}),
    (
        _swap_weights_of_ideals_1_and_2,
        {"structure", "commutation", "label_count", "signed_toggle_sum", "weighted_toggle_sum"},
    ),
    (
        _shift_heap_base_by_omega_1,
        {
            "label_count",
            "fiber_statistic",
            "ddeg_decomposition",
            "homomesy_rowmotion",
            "homomesy_gyration",
        },
    ),
    (_top_ideal_read_twice_by_label_sums, {"toggle_symmetry"}),
    (_weight_of_node_1, {"cde_strict", "cde_multi", "lp_certificate"}),
    (_heap_with_an_extra_cover, {"heap_words"}),
)


@pytest.mark.parametrize("row", VERIFY_ROWS)
def test_every_verify_row_fails_on_a_planted_fault(capsys, monkeypatch, row):
    """For each row ``verify`` prints, a fault planted in the case data
    that trips it: ``verify`` exits 1 and exactly the fault's rows fail."""
    tamper, tripped = next(fault for fault in PLANTED_FAULTS if row in fault[1])
    bundle = tamper(build_case("A", 3, 2), monkeypatch)
    monkeypatch.setattr(cli, "_build_case", lambda spec: bundle)
    code, out, _ = run(capsys, "verify", "A", "3", "2", "--format=json")
    assert code == EXIT_CHECK_FAILED
    checks = json.loads(out)["cases"][0]["checks"]
    assert tuple(c["check"] for c in checks) == VERIFY_ROWS
    assert {c["check"] for c in checks if c["failures"]} == tripped


@pytest.mark.parametrize("mode,other", [("strict", "multi"), ("multi", "strict")])
def test_verify_one_chain_mode_alone(capsys, mode, other):
    """One chain mode's rows match those of the default run when the
    other mode is not reported; multichain rows come from the strict ones
    even when the strict rows are not reported."""
    code, out, _ = run(capsys, "verify", "E", "6", "6", "--chain-mode", mode, "--format=json")
    assert code == EXIT_OK
    case = json.loads(out)["cases"][0]
    _, both, _ = run(capsys, "verify", "E", "6", "6", "--format=json")
    full = json.loads(both)["cases"][0]
    names = [d["distribution"] for d in case["distributions"]]
    assert [f"chain_{mode}_{k}" for k in range(17)] == [n for n in names if n.startswith("chain_")]
    checks = {c["check"]: c for c in case["checks"]}
    assert f"cde_{other}" not in checks and checks[f"cde_{mode}"]["instances"] == 17
    full_checks = {c["check"]: c for c in full["checks"]}
    symmetry = full_checks["toggle_symmetry"]["instances"] - 16 * 17  # no rows of the other mode
    assert checks["toggle_symmetry"] == dict(full_checks["toggle_symmetry"], instances=symmetry)
    kept = [d for d in full["distributions"] if not d["distribution"].startswith(f"chain_{other}_")]
    assert case["distributions"] == kept


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


@pytest.mark.parametrize(
    "argv,cap",
    [
        (("build", "A", "99999999999999999999", "1"), 10**6),
        (("verify", "D", "10000000", "1"), 10**6),
        (("orbits", "D", "5", "9", "--cap-ideals", "5"), 5),
    ],
)
def test_a_rank_past_the_ideal_cap_exits_before_any_cartan_data_is_built(argv, cap):
    """An orbit has more weights than the rank, so a rank at or above the
    cap exits 3 at once, before the node is checked.  Run in a fresh
    interpreter with a timeout and a 256 MiB address space, so laying out
    rank x rank Cartan data fails the test instead of exhausting memory."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import resource, sys; sys.path.insert(0, {src!r})\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from minuscule.cli import main\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
    assert proc.stderr == f"error: ideal count exceeds cap of {cap}\n"


def test_empty_out_is_a_domain_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", "A", "3", "2", "--out", "")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_structure_check_matches_the_pairwise_oracle():
    for family, rank, node in (("A", 9, 5), ("D", 9, 9)):  # the ladder cases
        bundle = build_case(family, rank, node)
        assert cli._structure_failures(bundle) == pairwise_structure_failures(bundle)
    rng = random.Random(23)
    shuffles = shuffled_failures = 0
    tampered_failures = 0
    for spec in default_catalog():
        bundle = build_case(spec.family, spec.rank, spec.node)
        assert cli._structure_failures(bundle) == pairwise_structure_failures(bundle)
        L = bundle.lattice
        if len(L) > 2:
            # ideal 1 is the one minimal element; ideal 2 holds two
            ideals = L.ideals[:1] + L.ideals[2:3] + L.ideals[1:2] + L.ideals[3:]
            with pytest.raises(DomainError, match=r"^ideal 2 \(0b1\) does not follow ideal 1"):
                IdealLattice(L.heap, ideals, L.covers, L.weights)
        # a coroot pairing of 2 never occurs on a minuscule orbit
        moved = (2,) + L.weights[1][1:]
        assert moved not in bundle.orbit.index
        for weights in (
            L.weights[1:] + L.weights[:1],  # rotated
            L.weights[:-1] + L.weights[:1],  # not injective
            L.weights[:1] + (moved,) + L.weights[2:],  # off the orbit
        ):
            lattice = IdealLattice(L.heap, L.ideals, L.covers, weights)
            tampered = bundle._replace(lattice=lattice)
            instances, failures = cli._structure_failures(tampered)
            assert (instances, failures) == pairwise_structure_failures(tampered)
            tampered_failures += failures > 0
        # seeded permutations of the weights, every fourth with one weight
        # moved off the orbit
        for k in range(20):
            weights = list(L.weights)
            rng.shuffle(weights)
            if k % 4 == 0:
                weights[rng.randrange(len(weights))] = moved
            lattice = IdealLattice(L.heap, L.ideals, L.covers, tuple(weights))
            tampered = bundle._replace(lattice=lattice)
            instances, failures = cli._structure_failures(tampered)
            assert (instances, failures) == pairwise_structure_failures(tampered)
            shuffles += 1
            shuffled_failures += failures > 0
    assert tampered_failures > 2 * len(default_catalog())
    assert shuffled_failures > 0.95 * shuffles


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
