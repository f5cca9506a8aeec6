"""Acceptance gate: one test per criterion, every tolerance exact.

Every criterion runs at its full stated scale, the two exhaustive
contraction sweeps over every connected graph up to order 8.  The
153-vertex claw-free identity is attempted under a node budget, 10^8 by
default, and reported as skipped when the search runs out of nodes, which
the criterion accepts; SEMITOTAL_AC7_NODES shortens the attempt for
development runs.
"""

import os
import random
import sys

import pytest

from semitotal import (
    DominationKind,
    SatInstance,
    ScaleLimit,
    brute_1in3,
    characterize_ct,
    classify_h,
    contains_subgraph,
    exists_within,
    is_feasible,
    is_h_free,
    iter_connected_graphs,
    parse_pattern,
    random_connected,
    reduce_clawfree,
    run_suite,
    satisfying_sds,
    solve,
)
from semitotal.domination import DEFAULT_BUDGET
from semitotal.graphs import _at_most
from test_blocker import p4_forces_config
from test_reductions import build_variable_gadget, paw_lower_bound_holds

SDS = DominationKind.SEMITOTAL


def _ac7_nodes() -> int:
    """SEMITOTAL_AC7_NODES, a positive integer, or DEFAULT_BUDGET.  Read
    inside ac07 so a bad value fails that test alone."""
    raw = os.environ.get("SEMITOTAL_AC7_NODES")
    if raw is None:
        return DEFAULT_BUDGET
    nodes = _at_most(raw, sys.maxsize) if raw.isascii() and raw.isdigit() else 0
    if nodes <= 0:
        pytest.fail(f"SEMITOTAL_AC7_NODES must be a positive integer, got {raw!r}")
    return nodes


# mechanism token -> contraction count it certifies
MECHANISM_K = {
    "friendly-triple": 1,
    "st-configuration": 2,
    "path-contraction": 3,
    "floor": None,
}

# pattern -> (verdict, reason, t, p); the P4+P2 row covers the extra-P2
# variants as well
DECISION_TREE = {
    "claw": ("coNP-hard", "Thm-claw", None, None),
    "C3": ("NP-hard", "Thm-girth", None, None),
    "C4": ("NP-hard", "Thm-girth", None, None),
    "C7": ("NP-hard", "Thm-girth", None, None),
    "P6": ("NP-hard", "Thm-P6/P4+P2", None, None),
    "2P3": ("coNP-hard", "Thm-2P3", None, None),
    "P4+P2": ("NP-hard", "Thm-P6/P4+P2", None, None),
    "P4+2P2": ("NP-hard", "Thm-P6/P4+P2", None, None),
    "P5": ("polynomial-time", "Thm-P5+tK1", 0, None),
    "P5+3K1": ("polynomial-time", "Thm-P5+tK1", 3, None),
    "P3+2P2+K1": ("polynomial-time", "Thm-P3+pP2+tK1", 1, 2),
}


def _assert_all_pass(checks):
    failed = [f"{c.name}: {c.detail}" for c in checks if c.status != "pass"]
    assert not failed, "; ".join(failed)


def test_ac01_three_contractions_always_suffice():
    _assert_all_pass(run_suite("thm32", max_n=8))


def test_ac02_characterization_matches_contraction_oracle():
    _assert_all_pass(run_suite("thm34", max_n=8))
    for g in iter_connected_graphs(5, min_n=2):
        verdict = characterize_ct(g)
        assert MECHANISM_K[verdict.mechanism.value] == verdict.k


def test_ac03_variant_classifiers_match_contraction_oracle():
    _assert_all_pass(run_suite("huangxu", max_n=8))


def test_ac04_tree_expansion_identity():
    _assert_all_pass(run_suite("lem43", max_n=5))


def test_ac05_chordal_host_identity():
    _assert_all_pass(run_suite("appC", max_n=5))


def test_ac06_sat_identity_and_independence_equivalence():
    checks = run_suite("appB", max_n=9)
    _assert_all_pass(checks)
    assert checks[0].name == "encoding-identity"
    assert checks[0].detail == "57 graphs"
    assert checks[-1].name == "independence-equivalence-sampled-n9"


def test_ac07_clawfree_construction_and_identity_attempt():
    nodes = _ac7_nodes()
    bounded = SatInstance(3, ((0, 1, 2),) * 3)
    wide = SatInstance(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    claw = parse_pattern("claw")
    for sat in (bounded, wide):
        out = reduce_clawfree(sat)
        assert out.graph.n == 41 * sat.num_vars + 10 * len(sat.clauses)
        assert is_h_free(out.graph, claw)

    gadget = build_variable_gadget()
    assert paw_lower_bound_holds(gadget)
    assert solve(gadget.graph, SDS).value == 14

    host = reduce_clawfree(bounded)
    target = host.meta["gamma_t2_target"]
    assert target == 14 * 3 + 3
    witness = satisfying_sds(host, brute_1in3(bounded))
    assert len(witness) == target
    assert is_feasible(host.graph, SDS, witness)
    try:
        smaller = exists_within(host.graph, SDS, target - 1, budget=nodes)
    except ScaleLimit:
        pytest.skip(
            f"identity attempt used up its {nodes}-node budget; "
            f"the size-{target} witness stands, the lower bound is open"
        )
    # the witness gives <= target, so refuting target-1 settles equality
    assert not smaller


def test_ac08_p5free_one_contraction_suffices():
    _assert_all_pass(run_suite("p5free", max_n=8))


def test_ac09_p3kp2_decider_and_regular_vertex_claims():
    _assert_all_pass(run_suite("p3kp2", max_n=8))


def test_ac10_pattern_decision_tree():
    for text, (verdict, reason, t, p) in DECISION_TREE.items():
        tag = classify_h(parse_pattern(text))
        assert tag.verdict.value == verdict, text
        assert tag.reason == reason, text
        assert tag.t == t and tag.p == p, text


def test_ac11_p4_inside_sds_forces_hub_configuration():
    p4 = parse_pattern("P4")
    rng = random.Random(11)
    done = 0
    while done < 500:
        g = random_connected(
            rng.randint(5, 9), rng.choice([0.3, 0.5, 0.7]), rng.randrange(2**31)
        )
        hit = contains_subgraph(g, p4)
        if hit is None:
            continue
        d = set(hit.values()) | {v for v in range(g.n) if rng.random() < 0.5}
        if not is_feasible(g, SDS, d):
            d = set(range(g.n))
        assert contains_subgraph(g, p4, within=d) is not None
        assert p4_forces_config(g, d)
        done += 1
