import hashlib
import json

import pytest

from semitotal import SUITES, InvalidSetting, ScaleLimit, connected_graphs, parse_pattern, run_suite
from semitotal import DominationKind, blocker, domination, to_graph6, verify

import oracles

DOM = DominationKind.DOMINATION

EXPECTED_SUITES = [
    "appB",
    "appC",
    "huangxu",
    "lem43",
    "p3kp2",
    "p5free",
    "separation",
    "thm32",
    "thm34",
]


def _names(checks):
    return [c.name for c in checks]


def _all_pass(checks):
    return all(c.status == "pass" for c in checks)


def test_registry():
    assert sorted(SUITES) == EXPECTED_SUITES


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_contraction_bound_suite_small():
    # no connected graph on at most 5 vertices has semitotal value 3 or more
    checks = run_suite("thm32", max_n=6)
    assert _all_pass(checks)
    assert _names(checks) == ["ct-at-most-3-n6", "certificate-drops-n6"]


def test_a_run_that_examines_nothing_raises():
    for name, max_n in (("thm32", 4), ("separation", 1)):
        with pytest.raises(InvalidSetting):
            run_suite(name, max_n=max_n)


def test_a_visit_solves_each_graph_once(monkeypatch):
    # the suite asks for values more often than it searches, and a solve
    # after the run searches afresh
    calls, searches = [], []
    real_solve, real_greedy = domination.solve, domination._Search.greedy

    def solve_spy(g, kind, **kw):
        calls.append(g.rows)
        return real_solve(g, kind, **kw)

    def greedy_spy(self):
        searches.append(self.rows)
        return real_greedy(self)

    for module in (blocker, verify):
        monkeypatch.setattr(module, "solve", solve_spy)
    monkeypatch.setattr(domination._Search, "greedy", greedy_spy)
    assert _all_pass(run_suite("thm34", max_n=6))
    assert 0 < len(searches) < len(calls)
    g = connected_graphs(6)[-1]
    assert g.rows in calls
    searches.clear()
    real_solve(g, domination.DominationKind.SEMITOTAL)
    assert searches == [g.rows]


def test_a_failing_visit_names_at_most_five_graphs():
    # a stem that examined no graph emits no check, and a failing one names
    # its first five failures in sweep order
    graphs = connected_graphs(5)
    failing = [to_graph6(g) for g in graphs if g.m % 2]
    checks = verify._sweep(graphs, "n5", ("even-size", "never"),
                           lambda g: {"even-size": g.m % 2 == 0})
    assert len(failing) > 5
    assert [(c.name, c.status) for c in checks] == [("even-size-n5", "fail")]
    assert checks[0].detail == (
        f"{len(failing)}/{len(graphs)} failed, e.g. {' '.join(failing[:5])}")


def test_mechanism_suite_small():
    checks = run_suite("thm34", max_n=5)
    assert _all_pass(checks)
    assert _names(checks) == [f"mechanism-matches-oracle-n{n}" for n in range(2, 6)]


def test_variant_suite_small():
    checks = run_suite("huangxu", max_n=5)
    assert _all_pass(checks)
    # plain domination is off the floor from order 4 on, total from order 5
    assert _names(checks) == [
        "domination-classifier-n4", "domination-classifier-n5", "total-classifier-n5"]


def test_tree_suite_small():
    checks = run_suite("lem43", max_n=3)
    assert _all_pass(checks)
    assert _names(checks) == [
        "expanded-value-n2",
        "one-contraction-transfers-n2",
        "expanded-value-n3",
        "one-contraction-transfers-n3",
    ]


def test_sat_suite_small():
    checks = run_suite("appB", max_n=6)
    assert _all_pass(checks)
    assert checks[0].name == "encoding-identity"
    # covering census: every used-everywhere instance on 3 or 4 variables
    # with at most 4 clauses
    assert checks[0].detail == "57 graphs"
    # below order 6 no 2P3-free graph has value 3 or more
    assert _names(checks)[1:] == ["independence-equivalence-n6"]


def test_sat_suite_names_the_instance_whose_identity_fails(monkeypatch):
    # the identity itself is tested in test_reductions; here one covering
    # instance is made to fail so the check's failure line is read
    instances = verify._covering_instances()
    target = instances[17]

    def identity_spy(out):
        return verify.CheckResult(
            "identity", "fail" if out.source_sat == target else "pass", "")

    monkeypatch.setattr(verify, "identity_check", identity_spy)
    checks = run_suite("appB", max_n=6)
    assert checks[0].name == "encoding-identity"
    assert checks[0].status == "fail"
    assert checks[0].detail == (
        f"1/57 failed, e.g. vars={target.num_vars},clauses={target.clauses}")
    assert [c.status for c in checks[1:]] == ["pass"]


def test_order9_sample_refuses_to_run_short(monkeypatch):
    # the sample is the first 2P3-free draws; when the draws run out before
    # it is full it raises, as every suite does past its scale
    monkeypatch.setattr(verify, "_SAMPLE_COUNT", 3)
    sample = list(verify._sample_2p3free())
    assert len(sample) == 3
    assert all(g.n == 9 and verify.contains_induced(g, parse_pattern("2P3")) is None
               for g in sample)
    monkeypatch.setattr(verify, "contains_induced", lambda g, h: (0,))
    with pytest.raises(ScaleLimit, match="1200 draws gave 0 2P3-free graphs"):
        list(verify._sample_2p3free())


def test_chordal_suite_small():
    checks = run_suite("appC", max_n=3)
    assert _all_pass(checks)
    assert _names(checks) == [
        name
        for ell in (2, 3)
        for name in (
            f"host-value-ell{ell}",
            f"host-class-ell{ell}",
            f"minimum-sets-meet-pendant-ell{ell}",
        )
    ]


def test_p5free_suite_small():
    checks = run_suite("p5free", max_n=5)
    assert _all_pass(checks)
    assert len(checks) == 12


def test_p3kp2_suite_small():
    checks = run_suite("p3kp2", max_n=5)
    assert _all_pass(checks)
    # no order-5 far layer holds regular vertices, so only the decider is checked
    assert _names(checks) == [f"decider-matches-oracle-n{n}" for n in range(2, 6)]


# the graphs of order 2..6 whose plain and semitotal values agree
SEPARATION_ROWS = [
    ("equal-values-drop-together-n4", "pass", "2 graphs"),
    ("equal-values-drop-together-n5", "pass", "10 graphs"),
    ("equal-values-drop-together-n6", "pass", "75 graphs"),
]


def test_separation_suite_small():
    checks = run_suite("separation", max_n=6)
    assert [(c.name, c.status, c.detail) for c in checks] == SEPARATION_ROWS
    # the examined counts are those of the brute-force values
    for n, (_, _, detail) in zip(range(4, 7), SEPARATION_ROWS):
        agree = sum(
            oracles.brute_value(*oracles.edge_data(g), "domination")
            == oracles.brute_value(*oracles.edge_data(g), "semitotal")
            for g in connected_graphs(n)
        )
        assert detail == f"{agree} graphs"


def test_separation_suite_fails_when_plain_domination_never_drops(monkeypatch):
    # with the plain scan answering "no contraction helps", every examined
    # graph whose semitotal value one contraction lowers is a failure
    real_ct_exact = verify.ct_exact

    def ct_exact_spy(g, kind, kmax=3):
        return None if kind is DOM else real_ct_exact(g, kind, kmax)

    monkeypatch.setattr(verify, "ct_exact", ct_exact_spy)
    checks = run_suite("separation", max_n=7)
    assert [(c.name, c.status, c.detail) for c in checks] == SEPARATION_ROWS[:2] + [
        ("equal-values-drop-together-n6", "fail", "2/75 failed, e.g. E@QW E@UW"),
        ("equal-values-drop-together-n7", "fail",
         "39/672 failed, e.g. F?CeW F?CmG F?CmW F?DdO F?DdW"),
    ]


def test_order_guards():
    with pytest.raises(ScaleLimit):
        run_suite("thm32", max_n=9)
    with pytest.raises(ScaleLimit):
        run_suite("appB", max_n=10)
    with pytest.raises(ScaleLimit):
        run_suite("lem43", max_n=6)
    with pytest.raises(ScaleLimit):
        run_suite("appC", max_n=6)


# perfbench's `suites` workload: each suite at its acceptance scale, capped
# at order 7
SUITE_ORDERS = (
    ("thm32", 7), ("thm34", 7), ("huangxu", 7), ("p5free", 7), ("p3kp2", 7),
    ("appB", 7), ("separation", 6), ("lem43", 5), ("appC", 5),
)


def test_suite_reports_frozen():
    # the eight suites other than separation pinned from the per-suite
    # loops that preceded `_sweep`, with their vacuous "0 graphs" checks
    # dropped and p3kp2's regular-vertex detail read as "N graphs"
    rows = {
        suite: [(c.name, c.status, c.detail) for c in run_suite(suite, max_n=n)]
        for suite, n in SUITE_ORDERS
    }
    assert rows.pop("separation") == SEPARATION_ROWS
    assert all(not detail.startswith("0 ") for suite in rows.values() for _, _, detail in suite)
    digest = hashlib.sha256(json.dumps([row for suite in rows.values() for row in suite]).encode())
    assert digest.hexdigest() == "5059ceda796b335ee66e11643885cfa5e938fba37610147a6cf846ab9257c3bc"
