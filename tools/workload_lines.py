"""Code lines per module of ``src/minuscule``, and the functions that no
benchmark workload executes.

    python3 tools/workload_lines.py

The code lines of a module are the lines that hold a token other than a
comment, skipping blank lines and docstrings (module, class and function
docstrings), counted with ``tokenize`` and ``ast``.

The workloads are the command lines of ``WORKLOADS`` in bench/run.py,
which is imported and not changed.  Each runs in this process through
``minuscule.cli.main`` under ``sys.settrace``, with its output discarded.
A ``verify --all`` sweep would fork workers whose calls the trace would
not see, so ``cli._worker_count`` is wrapped to return 1 once it has
run, and the sweep runs every case in this process.  Every line runs
with seed 1.  A function counts as executed when it is called at least
once; a generator, when it is first resumed.  A reader that closes the
pipe early (``| head``) ends the script quietly.  Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "minuscule"
BENCH = ROOT / "bench"
SEED = 1

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for token in tokens:
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def functions(path: Path) -> dict[tuple[int, str], str]:
    """(first line, name) -> dotted name of every function in the module,
    its first line being that of its code object: the first decorator's,
    or the ``def``'s."""
    out = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[first, child.name] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_bytes()), f"{path.stem}.")
    return out


def command_lines() -> list[list[str]]:
    """Every command line of every workload."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))
    from run import WORKLOADS

    return [op.argv(SEED) for ops in WORKLOADS.values() for op in ops]


def executed(argvs: list[list[str]]) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every package function that runs."""
    sys.path.insert(0, str(SRC))
    from minuscule import cli

    cli._worker_count = lambda cases, count=cli._worker_count: min(count(cases), 1)
    package = str(PACKAGE)
    called = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    for argv in argvs:
        sys.settrace(trace)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            sys.settrace(None)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
    return called


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    counts = {path.name: code_lines(path) for path in modules}
    print("code lines")
    for name, count in counts.items():
        print(f"  {name:<14}{count:>5}")
    print(f"  {'total':<14}{sum(counts.values()):>5}")

    argvs = command_lines()
    called = executed(argvs)
    unused = [
        name
        for path in modules
        for (first, short), name in functions(path).items()
        if (str(path), first, short) not in called
    ]
    print(f"functions no workload executes ({len(argvs)} command lines traced)")
    for name in unused:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): end quietly, with
        # stdout pointed at devnull so the interpreter's own flush at
        # exit raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
