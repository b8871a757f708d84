"""Child process of the benchmark; each invocation is a fresh interpreter.

    python child.py setup A9.5 D10.10
        import minuscule and build each case (Cartan datum, orbit,
        minuscule certificate, heap, ideal lattice) with no check run;
        print their sizes.

    python child.py trace verify A 9 5 --format=json --seed=1
        run one CLI command line through ``minuscule.cli.main``, with the
        public functions that the CLI calls wrapped in spans.  Prints one
        JSON object: the command's output and exit code, the spans and the
        counters; exits with the command's exit code.

Spans are kept in memory and written out once, at the end.  Each span is
[name, start, end, parent index or null, case id], times in seconds from
perf_counter.  A wrapped call made inside another one gets no span of its
own (heap_from_word inside the word rebuilds, json.dumps inside
render_verify_json), except the LP solves, which nest inside cde.lp.  The
solve_lp binding in minuscule.cde and the inner_product bindings in
minuscule.stats and minuscule.cde are wrapped to count calls.  An absent
binding leaves its layer or counter at 0.
"""

from __future__ import annotations

import io
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager, redirect_stdout


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.case: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, nested: bool = False):
        """A span around the block; none inside another span unless
        ``nested``."""
        if self._stack and not nested:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, module, attr: str, span: str, measure=None) -> None:
        """Replace ``module.attr`` with a call inside ``span``; ``measure``
        sees each result of a call that got its span.  An absent name is
        left alone, so its layer reads 0."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            outer = bool(self._stack)
            with self.span(span):
                result = fn(*args, **kwargs)
            if measure is not None and not outer:
                measure(result)
            return result

        setattr(module, attr, traced)


def distribution_bits(tracer: Tracer, dist) -> None:
    tracer.count("cde.distributions")
    for p in dist:
        tracer.peak("cde.count_bits", max(p.numerator.bit_length(), p.denominator.bit_length()))


def install(tracer: Tracer) -> None:
    """Wrap the names that minuscule.cli calls, and the counted bindings."""
    import minuscule.cde as cde
    import minuscule.cli as cli
    import minuscule.stats as stats
    from minuscule import serialize

    build_case = getattr(cli, "_build_case", None)
    if build_case is not None:

        def traced_build_case(spec):
            tracer.case = spec.case_id
            return build_case(spec)

        cli._build_case = traced_build_case

    def lattice_sizes(lattice) -> None:
        tracer.count("ideals.count", len(lattice))
        tracer.count("ideals.covers", len(lattice.covers))

    wraps = [
        (cli, "generate_orbit", "orbit.generate", lambda orbit: tracer.count("orbit.weights", len(orbit))),
        (cli, "verify_minuscule", "orbit.certify", None),
        (cli, "saturated_chain", "heap.build", None),
        (cli, "heap_from_word", "heap.build", lambda heap: tracer.count("heap.elements", len(heap))),
        (cli, "_word_robustness_failures", "heap.rebuild", None),
        (cli, "enumerate_ideals", "ideals.enumerate", lattice_sizes),
        (cli, "verify_commutation", "ideals.commutation", None),
        (cli, "identity_suite", "stats.identities",
         lambda rows: tracer.count("stats.instances", sum(row.instances for row in rows))),
        (cli, "uniform_distribution", "cde.chains", lambda d: distribution_bits(tracer, d)),
        (cli, "maxchain_distribution", "cde.chains", lambda d: distribution_bits(tracer, d)),
        (cli, "chain_distribution", "cde.chains", lambda d: distribution_bits(tracer, d)),
        (cli, "homomesy_report", "cde.homomesy", None),
        (cli, "orbit_distribution", "cde.homomesy", lambda d: tracer.count("cde.distributions")),
        (cli, "toggle_symmetry_report", "cde.symmetry", None),
        (cli, "expectation", "cde.expectation", None),
        (cli, "lp_certificate", "cde.lp", None),
        (cli, "render_verify_json", "serialize.render", None),
        (serialize, "cartan_to_dict", "serialize.render", None),
        (serialize, "orbit_to_dict", "serialize.render", None),
        (serialize, "heap_to_dict", "serialize.render", None),
        (serialize, "lattice_to_dict", "serialize.render", None),
    ]
    for module, attr, span, measure in wraps:
        tracer.wrap(module, attr, span, measure)
    # build and orbits render with the json module bound in cli.
    if hasattr(cli, "json"):
        cli.json = types.SimpleNamespace(dumps=cli.json.dumps)
        tracer.wrap(cli.json, "dumps", "serialize.render")

    solve_lp = getattr(cde, "solve_lp", None)
    if solve_lp is not None:

        def traced_solve_lp(objective, rows, rhs, *args, **kwargs):
            tracer.count("simplex.solves")
            tracer.peak("cde.lp_rows", len(rows))
            tracer.peak("cde.lp_cols", len(objective))
            with tracer.span("simplex.solve", nested=True):
                return solve_lp(objective, rows, rhs, *args, **kwargs)

        cde.solve_lp = traced_solve_lp

    for module in (stats, cde):
        inner_product = getattr(module, "inner_product", None)
        if inner_product is not None:

            def counted(*args, _inner=inner_product, **kwargs):
                tracer.count("cartan.inner_product_calls")
                return _inner(*args, **kwargs)

            module.inner_product = counted


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        from minuscule.cli import build_case

        sizes = {}
        for case_id in rest:
            rank, node = case_id[1:].split(".")
            bundle = build_case(case_id[0], int(rank), int(node))
            sizes[case_id] = [len(bundle.lattice), len(bundle.heap)]
        print(json.dumps(sizes))
        return 0
    if mode == "trace":
        import minuscule.cli as cli

        tracer = Tracer()
        install(tracer)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(rest)
        result = {"output": out.getvalue(), "code": code, "spans": tracer.spans, "counters": tracer.counters}
        print(json.dumps(result))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
