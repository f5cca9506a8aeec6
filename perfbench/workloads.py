"""The benchmark's two workloads: inputs, operations and output checks.

Each workload's set-up turns the imported package and a seeded
`random.Random` into a fixed list of `Op`s, filling any cache first.  An op's `run` is what the timed phase executes; its
`check` inspects the outcome afterwards, outside the timed phase, and
returns a failure reason or None.  Inputs are generated here, by code
independent of the program, so that a change to the program cannot change
what it is given.  Every call into the program looks its function up on
the package at call time, which is where the tracer puts its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- inputs, built without the program ----------------------------------


def random_connected_rows(n: int, p: float, rng) -> list[int]:
    """G(n, p) adjacency rows, resampled until connected."""
    while True:
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        seen, frontier = 1, 1
        while frontier:
            reach = 0
            for v in range(n):
                if frontier >> v & 1:
                    reach |= rows[v]
            frontier = reach & ~seen
            seen |= frontier
        if seen == (1 << n) - 1:
            return rows


def graph6(rows: list[int]) -> str:
    """graph6 code of a graph on at most 62 vertices."""
    n = len(rows)
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def _edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def _cli(pkg, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


def _one_report(outcome) -> tuple[dict | None, str | None]:
    """The single JSON report of a zero-exit CLI call, or a failure reason."""
    code, text = outcome
    lines = text.splitlines()
    if len(lines) != 1:
        return None, f"{len(lines)} output lines"
    try:
        report = json.loads(lines[0])
    except ValueError:
        return None, "output is not JSON"
    if not isinstance(report, dict):
        return None, "output is not a JSON object"
    if code != 0:
        return None, f"exit code {code}: {report.get('error')}"
    return report, None


# -- suites --------------------------------------------------------------

# Each suite at its acceptance scale, capped at order 7.
SUITE_ORDERS = (
    ("thm32", 7), ("thm34", 7), ("huangxu", 7), ("p5free", 7), ("p3kp2", 7),
    ("appB", 7), ("separation", 6), ("lem43", 5), ("appC", 5),
)
ENUMERATED_ORDER = 7


def _check_suite(outcome) -> str | None:
    report, why = _one_report(outcome)
    if why:
        return why
    bad = [c["name"] for c in report["results"]["checks"] if c["status"] != "pass"]
    return f"checks not passed: {bad}" if bad else None


def suites_setup(pkg, rng) -> list[Op]:
    """Fill the enumeration cache of a freshly imported package, then list
    the nine suites, which ignore the seed because they sweep every
    connected graph up to their order, and the seeded hosts."""
    for n in range(1, ENUMERATED_ORDER + 1):
        pkg.connected_graphs(n)
    suites = [
        Op(
            f"verify-{suite}-n{n}",
            lambda argv=["verify", "--suite", suite, "--max-n", str(n)]: _cli(pkg, argv),
            _check_suite,
        )
        for suite, n in SUITE_ORDERS
    ]
    return suites + host_ops(pkg, rng)


# -- hosts ---------------------------------------------------------------

# (variables, clauses) of the 2P3-free hosts, 30 to 39 vertices.  Four
# hosts of each shape, all of them mid-sized, keep a pass short enough to
# repeat three times in a run, and their total work and the latency
# percentiles nearly the same from seed to seed.
SAT_SHAPES = ((5, 3), (6, 3), (7, 3), (8, 3)) * 4
# (source order, ell) of the layered chordal hosts, 29 to 37 vertices
CHORDAL_SHAPES = ((6, 3), (6, 4), (7, 3), (8, 3))
TREE_ORDERS = (5, 6, 7)
SOURCE_P = 0.5


def random_sat(num_vars: int, num_clauses: int, rng) -> tuple:
    """Clauses of a positive 1-in-3 instance in which every variable occurs."""
    while True:
        clauses = tuple(tuple(rng.sample(range(num_vars), 3)) for _ in range(num_clauses))
        if len({v for c in clauses for v in c}) == num_vars:
            return clauses


def _build_and_validate(pkg, build):
    out = build()
    back = pkg.from_graph6(pkg.to_graph6(out.graph))
    return out, back, pkg.validate_reduction(out)


def _check_host(outcome) -> str | None:
    out, back, checks = outcome
    if back != out.graph:
        return "graph6 round trip changed the graph"
    bad = [(c.name, c.status) for c in checks if c.status != "pass"]
    return f"validate_reduction: {bad}" if bad else None


# The claw-free host of the one exactly-3-bounded instance on three
# variables: 3 * 41 + 3 * 10 = 153 vertices, target value 14 * 3 + 3.
CLAW_SAT = ((0, 1, 2),) * 3
CLAW_ORDER, CLAW_TARGET = 153, 45


def _claw_host(pkg, assignment):
    out = pkg.reduce_clawfree(pkg.SatInstance(3, CLAW_SAT))
    g = pkg.from_graph6(pkg.to_graph6(out.graph))
    claw = pkg.contains_induced(g, pkg.star_graph(4))
    witness = pkg.satisfying_sds(out, assignment)
    feasible = pkg.is_feasible(g, pkg.DominationKind.SEMITOTAL, witness)
    return out, g, claw, witness, feasible


def _check_claw(outcome) -> str | None:
    out, g, claw, witness, feasible = outcome
    if g != out.graph:
        return "graph6 round trip changed the graph"
    if g.n != CLAW_ORDER:
        return f"order {g.n}"
    if claw is not None:
        return f"induced claw {claw}"
    if not feasible or len(witness) != CLAW_TARGET:
        return f"witness of size {len(witness)} feasible={feasible}"
    return None


def host_ops(pkg, rng) -> list[Op]:
    """Seeded hardness constructions, each built, round-tripped through
    graph6 and validated."""
    ops = []
    for nv, nc in SAT_SHAPES:
        sat = pkg.SatInstance(nv, random_sat(nv, nc, rng))
        ops.append(Op(
            f"2p3free-v{nv}-c{nc}",
            lambda sat=sat: _build_and_validate(pkg, lambda: pkg.reduce_2p3free(sat)),
            _check_host,
        ))
    for n, ell in CHORDAL_SHAPES:
        src = pkg.Graph(n, tuple(random_connected_rows(n, SOURCE_P, rng)))
        ops.append(Op(
            f"chordal-n{n}-ell{ell}",
            lambda src=src, ell=ell: _build_and_validate(
                pkg, lambda: pkg.reduce_chordal(src, ell)),
            _check_host,
        ))
    for n in TREE_ORDERS:
        src = pkg.Graph(n, tuple(random_connected_rows(n, SOURCE_P, rng)))
        ops.append(Op(
            f"tree-n{n}",
            lambda src=src: _build_and_validate(pkg, lambda: pkg.reduce_tree(src)),
            _check_host,
        ))
    # one variable true, two false: each of the three satisfies every clause
    true_var = rng.randrange(3)
    assignment = tuple(v == true_var for v in range(3))
    ops.append(Op("clawfree-153", lambda: _claw_host(pkg, assignment), _check_claw))
    return ops


# -- requests ------------------------------------------------------------

REQUEST_GRAPHS = 480
REQUEST_ORDERS = (36, 42)
# p = c ln n / n, just above the connectivity threshold c = 1
REQUEST_C = 1.5
KINDS = ("dom", "total", "semitotal")


def _check_solve(pkg, graph, kind: str, values: dict, outcome) -> str | None:
    """Check one solve report; `values` collects the graph's three values
    so that gamma <= gamma_t2 <= gamma_t is checked once all are in."""
    report, why = _one_report(outcome)
    if why:
        return why
    if report["input"]["order"] != graph.n or report["input"]["edges"] != graph.m:
        return "graph read back with another order or size"
    res = report["results"]
    witness = res["witness"]
    if len(witness) != res["value"]:
        return f"witness size {len(witness)} != value {res['value']}"
    variant = {"dom": pkg.DominationKind.DOMINATION,
               "total": pkg.DominationKind.TOTAL,
               "semitotal": pkg.DominationKind.SEMITOTAL}[kind]
    if not pkg.is_feasible(graph, variant, witness):
        return "witness is not feasible"
    values[kind] = res["value"]
    if len(values) == 3 and not values["dom"] <= values["semitotal"] <= values["total"]:
        return f"gamma <= gamma_t2 <= gamma_t fails: {values}"
    return None


def _check_blocker(outcome) -> str | None:
    report, why = _one_report(outcome)
    if why:
        return why
    check = report["results"].get("certificate_check")
    return None if check == "ok" else f"certificate_check {check!r}"


def requests_setup(pkg, rng) -> list[Op]:
    """Per graph: the three solves, then one blocker request whose kind
    rotates through the three variants."""
    lo, hi = REQUEST_ORDERS
    ops = []
    for i in range(REQUEST_GRAPHS):
        n = rng.randint(lo, hi)
        rows = random_connected_rows(n, REQUEST_C * math.log(n) / n, rng)
        code = graph6(rows)
        graph = pkg.Graph(n, tuple(rows))
        values: dict[str, int] = {}
        tag = f"g{i}-n{n}-m{_edge_count(rows)}"
        for kind in KINDS:
            ops.append(Op(
                f"solve-{kind}-{tag}",
                lambda argv=["solve", "--graph6", code, "--kind", kind]: _cli(pkg, argv),
                lambda outcome, kind=kind, graph=graph, values=values:
                    _check_solve(pkg, graph, kind, values, outcome),
            ))
        kind = KINDS[i % 3]
        ops.append(Op(
            f"blocker-{kind}-{tag}",
            lambda argv=["blocker", "--graph6", code, "--kind", kind,
                         "--check-certificate"]: _cli(pkg, argv),
            _check_blocker,
        ))
    return ops


# Why each workload exists is set out in README.md.
WORKLOADS = {
    "suites": suites_setup,
    "requests": requests_setup,
}
