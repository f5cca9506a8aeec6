"""Cross-checking suites shared by the CLI and the test suite.

Each suite replays one of the package's load-bearing facts against an
independent route: brute-force contraction scans against the structural
characterization, construction identities against direct solves, the
polynomial deciders against exhaustive oracles, and the plain scan against
the semitotal one where the two values agree.  Suites return CheckResult
lists so callers can render pass/fail/skipped uniformly, and every check
can fail.

Every exhaustive suite, `separation` included, is a per-graph visitor run
by one sweep, `_sweep`.  The visitor returns {check stem: passed} for the
checks that examined the graph, and a stem that examined no graph emits no
check, so no check passes on nothing; `run_suite` raises InvalidSetting
when a run emits no check at all.  A visit asks for the same graph's
value several times, in the suite itself, `ct_exact`, `characterize_ct`,
the classifiers and the re-checks, so each visit runs in one
`domination.solved_once` block and searches each (graph, kind) once;
nothing is kept from one visit to the next, so memory does not grow with
the sweep.  `_sweep` is the one place that opens such a block.  Suites raise ScaleLimit rather than silently
truncating when asked for more than the enumeration can sustain.  The
only random input is appB's fixed order-9 sample of 2P3-free graphs,
`_sample_2p3free`, and `_sweep` runs it like any other source.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations, combinations_with_replacement

from .errors import InvalidSetting, ScaleLimit
from .graphs import (
    contains_induced,
    random_connected,
    to_graph6,
)
from .patterns import parse_pattern
from .smallgraphs import connected_graphs
from .domination import (
    DominationKind,
    enumerate_min_sets,
    solve,
    solved_once,
)
from .blocker import (
    characterize_ct,
    classify_ct_domination,
    classify_ct_total,
    ct_exact,
    min_set_spans_edge,
    path_contraction_certificate,
    replay_contraction,
    validate_ct_verdict,
)
from .hclasses import (
    abc_partition,
    ec1_gt2_p3kp2free,
    ec1_gt2_p5free,
    find_A,
    is_h_free,
)
from .reductions import (
    CheckResult,
    SatInstance,
    _check,
    identity_check,
    reduce_2p3free,
    reduce_chordal,
    reduce_tree,
    structure_checks,
)

_DOM = DominationKind.DOMINATION
_TOTAL = DominationKind.TOTAL
_SDS = DominationKind.SEMITOTAL

_MAX_EXHAUSTIVE = 8
# tree expansions grow elevenfold and layered chordal hosts fast
_MAX_HOST_SOURCE = 5
# appB's sample of 2P3-free graphs beyond the exhaustive orders
_SAMPLE_ORDER, _SAMPLE_SEED, _SAMPLE_COUNT = 9, 0, 500

_P5 = parse_pattern("P5")
_P3P2 = parse_pattern("P3+P2")
_2P3 = parse_pattern("2P3")


def _fail_detail(bad: list[str], examined: int) -> str:
    if not bad:
        return f"{examined} graphs"
    return f"{len(bad)}/{examined} failed, e.g. {' '.join(bad[:5])}"


def _sweep(graphs, suffix: str, stems: tuple[str, ...], visit) -> list[CheckResult]:
    """One check `<stem>-<suffix>` per stem that examined some graph.

    visit(g) returns {stem: passed} for the stems that examined g; a stem
    that examined none of the graphs emits no check.  Each visit runs in
    its own `solved_once` block.
    """
    bad: dict[str, list[str]] = {stem: [] for stem in stems}
    examined = dict.fromkeys(stems, 0)
    for g in graphs:
        with solved_once():
            passed_by_stem = visit(g)
        for stem, passed in passed_by_stem.items():
            examined[stem] += 1
            if not passed:
                bad[stem].append(to_graph6(g))
    return [
        _check(f"{stem}-{suffix}", not bad[stem], _fail_detail(bad[stem], examined[stem]))
        for stem in stems
        if examined[stem]
    ]


def _orders(max_n: int, cap: int) -> range:
    """Orders 2..max_n; ScaleLimit above the suite's cap."""
    if max_n > cap:
        raise ScaleLimit(f"this suite sweeps orders up to {cap}, got {max_n}")
    return range(2, max_n + 1)


def _per_order(max_n: int, cap: int, stems: tuple[str, ...], visit) -> list[CheckResult]:
    """_sweep over the connected graphs of each order 2..max_n in turn."""
    return [
        check
        for n in _orders(max_n, cap)
        for check in _sweep(connected_graphs(n), f"n{n}", stems, visit)
    ]


def suite_contraction_bound(max_n: int = 7) -> list[CheckResult]:
    """Three contractions always suffice, and the constructive certificate
    really lowers the value."""

    def visit(g):
        value = solve(g, _SDS).value
        if value < 3:
            return {}
        cert = path_contraction_certificate(g)
        return {
            "ct-at-most-3": ct_exact(g, _SDS, 3) is not None,
            "certificate-drops": len(cert.edges) <= 3
            and replay_contraction(g, _SDS, cert.edges, value) == cert.value_after,
        }

    return _per_order(
        max_n, _MAX_EXHAUSTIVE, ("ct-at-most-3", "certificate-drops"), visit)


def suite_mechanism_match(max_n: int = 7) -> list[CheckResult]:
    """The structural characterization agrees with the brute contraction
    scan on every connected graph, and its verdicts re-validate."""

    def visit(g):
        verdict = characterize_ct(g)
        res = ct_exact(g, _SDS, 3)
        expected = res[0] if res is not None else None
        return {"mechanism-matches-oracle":
                verdict.k == expected and validate_ct_verdict(g, verdict)}

    return _per_order(max_n, _MAX_EXHAUSTIVE, ("mechanism-matches-oracle",), visit)


def suite_variant_classifiers(max_n: int = 7) -> list[CheckResult]:
    """Plain and total domination classifiers agree with their own brute
    contraction scans off the floor."""

    def visit(g):
        passed = {}
        if solve(g, _DOM).value >= 2:
            res = ct_exact(g, _DOM, 3)
            passed["domination-classifier"] = (
                res is not None and classify_ct_domination(g) == res[0])
        if solve(g, _TOTAL).value >= 3:
            res = ct_exact(g, _TOTAL, 3)
            passed["total-classifier"] = (
                res is not None and classify_ct_total(g) == res[0])
        return passed

    return _per_order(
        max_n, _MAX_EXHAUSTIVE, ("domination-classifier", "total-classifier"), visit)


def suite_tree_identity(max_n: int = 5) -> list[CheckResult]:
    """Tree expansion: value identity and one-contraction equivalence
    between the source and the expanded graph."""

    def visit(g):
        out = reduce_tree(g)
        src_yes = ct_exact(g, _DOM, 1) is not None
        dst_yes = ct_exact(out.graph, _SDS, 1) is not None
        return {
            "expanded-value": identity_check(out).status == "pass",
            "one-contraction-transfers": src_yes == dst_yes,
        }

    return _per_order(
        max_n, _MAX_HOST_SOURCE, ("expanded-value", "one-contraction-transfers"), visit)


def suite_chordal_identity(max_n: int = 5) -> list[CheckResult]:
    """Layered chordal host: value identity, class membership, and the
    fact that every minimum set meets the pendant pair."""

    def visit(g, ell):
        out = reduce_chordal(g, ell)
        anchor = {out.labels["y"], out.labels["x_0"]}
        return {
            "host-value": identity_check(out).status == "pass",
            "host-class": all(c.status == "pass" for c in structure_checks(out)),
            "minimum-sets-meet-pendant": all(
                set(d) & anchor for d in enumerate_min_sets(out.graph, _SDS)),
        }

    graphs = [g for n in _orders(max_n, _MAX_HOST_SOURCE) for g in connected_graphs(n)]
    stems = ("host-value", "host-class", "minimum-sets-meet-pendant")
    return [
        check
        for ell in (2, 3)
        for check in _sweep(graphs, f"ell{ell}", stems, partial(visit, ell=ell))
    ]


def _covering_instances() -> list[SatInstance]:
    """Every 1-in-3 instance on 3 or 4 variables with at most 4 clauses
    in which each variable occurs."""
    instances = []
    for nv in (3, 4):
        pool = sorted(combinations(range(nv), 3))
        for size in range(1, 5):
            for clauses in combinations_with_replacement(pool, size):
                inst = SatInstance(nv, tuple(clauses))
                if inst.all_vars_used:
                    instances.append(inst)
    return instances


def _sample_2p3free():
    """The first _SAMPLE_COUNT 2P3-free graphs among seeded random connected
    graphs of order _SAMPLE_ORDER; ScaleLimit if 400 draws per graph run
    out first."""
    rng = random.Random(_SAMPLE_SEED)
    sampled = 0
    for _ in range(400 * _SAMPLE_COUNT):
        p = rng.choice((0.35, 0.5, 0.65, 0.8))
        g = random_connected(_SAMPLE_ORDER, p, rng.randrange(2**31))
        if contains_induced(g, _2P3) is None:
            yield g
            sampled += 1
            if sampled == _SAMPLE_COUNT:
                return
    raise ScaleLimit(f"{400 * _SAMPLE_COUNT} draws gave {sampled} 2P3-free graphs")


def _independence_equivalence(g) -> bool:
    """One contraction helps iff some minimum set spans an edge."""
    return (ct_exact(g, _SDS, 1) is not None) == min_set_spans_edge(g, _SDS)


def suite_2p3_encoding(max_n: int = 8) -> list[CheckResult]:
    """SAT encoding identity for every covering small instance, plus the
    independence equivalence on 2P3-free graphs: exhaustive up to order 8
    and, when max_n is larger, on a fixed sample of order-9 graphs.

    The equivalence is restricted to value >= 3: at the floor nothing can
    decrease even when a minimum set spans an edge.
    """
    if max_n > _SAMPLE_ORDER:
        raise ScaleLimit(f"appB samples order {_SAMPLE_ORDER} at most, got {max_n}")
    instances = _covering_instances()
    bad_sat: list[str] = []
    for inst in instances:
        if identity_check(reduce_2p3free(inst)).status != "pass":
            bad_sat.append(f"vars={inst.num_vars},clauses={inst.clauses}")
    checks = [_check(
        "encoding-identity", not bad_sat, _fail_detail(bad_sat, len(instances)))]

    def visit(g):
        if contains_induced(g, _2P3) is not None or solve(g, _SDS).value < 3:
            return {}
        return {"independence-equivalence": _independence_equivalence(g)}

    checks += _per_order(
        min(max_n, _MAX_EXHAUSTIVE), _MAX_EXHAUSTIVE, ("independence-equivalence",), visit)

    if max_n > _MAX_EXHAUSTIVE:
        checks += _sweep(_sample_2p3free(), f"sampled-n{_SAMPLE_ORDER}",
                         ("independence-equivalence",), visit)
    return checks


def suite_p5free_decider(max_n: int = 7) -> list[CheckResult]:
    """P5-free graphs: value >= 3 forces a single contraction for both the
    semitotal and plain parameters, and the pair-scan decider agrees with
    the oracle."""

    def visit(g):
        if not is_h_free(g, _P5):
            return {}
        one = ct_exact(g, _SDS, 1) is not None
        return {
            "high-value-forces-one": solve(g, _SDS).value < 3 or one,
            "domination-analogue": solve(g, _DOM).value < 3 or ct_exact(g, _DOM, 1) is not None,
            "decider-matches-oracle": ec1_gt2_p5free(g) == one,
        }

    stems = ("high-value-forces-one", "domination-analogue", "decider-matches-oracle")
    return _per_order(max_n, _MAX_EXHAUSTIVE, stems, visit)


def suite_p3kp2_decider(max_n: int = 7) -> list[CheckResult]:
    """P3+P2-free graphs: layered decider versus the contraction oracle,
    and the two regular-vertex consequences whenever the far layer has
    regular vertices."""

    def visit(g):
        if not is_h_free(g, _P3P2):
            return {}
        oracle = ct_exact(g, _SDS, 1) is not None
        passed = {"decider-matches-oracle": ec1_gt2_p3kp2free(g, 1) == oracle}
        anchor = find_A(g, 1)
        if anchor is not None and abc_partition(g, anchor, 1).R:
            gamma = solve(g, _DOM).value
            gt2 = solve(g, _SDS).value
            dom_one = ct_exact(g, _DOM, 1) is not None
            passed["regular-vertex-consequences"] = gamma == gt2 and dom_one == oracle
        return passed

    stems = ("decider-matches-oracle", "regular-vertex-consequences")
    return _per_order(max_n, _MAX_EXHAUSTIVE, stems, visit)


def suite_separation_scan(max_n: int = 6) -> list[CheckResult]:
    """Where the semitotal and plain values agree, a contraction that lowers
    the semitotal value also lowers the plain one.

    Every semitotal dominating set dominates, so γ <= γt2 on every graph.
    If γ(G) = γt2(G) and γt2(G/e) < γt2(G), then
    γ(G/e) <= γt2(G/e) < γt2(G) = γ(G).  The suite checks that implication
    on every graph whose two values agree, and examines no other graph.
    """

    def visit(g):
        if solve(g, _DOM).value != solve(g, _SDS).value:
            return {}
        return {"equal-values-drop-together":
                ct_exact(g, _SDS, 1) is None or ct_exact(g, _DOM, 1) is not None}

    return _per_order(max_n, _MAX_EXHAUSTIVE, ("equal-values-drop-together",), visit)


SUITES = {
    "thm32": suite_contraction_bound,
    "thm34": suite_mechanism_match,
    "huangxu": suite_variant_classifiers,
    "lem43": suite_tree_identity,
    "appB": suite_2p3_encoding,
    "appC": suite_chordal_identity,
    "p5free": suite_p5free_decider,
    "p3kp2": suite_p3kp2_decider,
    "separation": suite_separation_scan,
}


def run_suite(name: str, *, max_n: int | None = None) -> list[CheckResult]:
    """Run one named suite.  Unknown names raise KeyError for the CLI to map
    to a usage error; a run that emits no check examined no graph, so it
    raises InvalidSetting rather than report success."""
    fn = SUITES[name]
    checks = fn() if max_n is None else fn(max_n=max_n)
    if not checks:
        raise InvalidSetting(f"suite {name} with max_n={max_n} examines no graph")
    return checks
