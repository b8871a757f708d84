"""The stage profiler in tools/: one table row per timed name, and exit 2
when a tree no longer binds a name it times."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROFILER = ROOT / "tools" / "stage_profile.py"


def profile(*args):
    return subprocess.run(
        [sys.executable, str(PROFILER), *args], capture_output=True, text=True, timeout=120
    )


def test_stage_profile_times_every_stage_and_refuses_a_missing_name(tmp_path):
    spec = importlib.util.spec_from_file_location("stage_profile", PROFILER)
    stage_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_profile)

    done = profile(str(ROOT), str(ROOT), "--cases", "A3.2", "--pairs", "1")
    assert done.returncode == 0, done.stderr
    names = [line.split(" | ")[1] for line in done.stdout.splitlines()[2:]]
    assert names == [*stage_profile.STAGES, "other", "total", "peak RSS"]

    shutil.copytree(ROOT / "src" / "minuscule", tmp_path / "minuscule")
    with open(tmp_path / "minuscule" / "cli.py", "a") as cli:
        cli.write("del toggle_suite\n")
    broken = profile(str(ROOT), str(tmp_path), "--cases", "A3.2", "--pairs", "1")
    assert broken.returncode == 2
    assert broken.stderr == f"stage_profile: minuscule.cli in {tmp_path} has no toggle_suite\n"


def test_workload_lines_sums_its_module_rows_and_ends_quietly_on_a_closed_pipe():
    lines_tool = [sys.executable, str(ROOT / "tools" / "workload_lines.py")]
    done = subprocess.run(lines_tool, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    end = next(k for k, line in enumerate(out) if line.startswith("functions no workload"))
    assert out[0] == "code lines"
    *modules, (label, total) = [line.split() for line in out[1:end]]
    assert label == "total"
    assert [name for name, _ in modules] == sorted(
        path.name for path in (ROOT / "src" / "minuscule").glob("*.py")
    )
    assert sum(int(count) for _, count in modules) == int(total)

    # The reader is gone before the one flush at the end, as with `| head`
    # on a pipe that the tool fills only when it is done.
    closed = subprocess.Popen(lines_tool, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    closed.stdout.close()
    _, err = closed.communicate(timeout=120)
    assert (closed.returncode, err) == (1, b"")
