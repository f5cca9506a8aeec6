import pytest

from semitotal import parse_pattern
from semitotal.errors import ParseError, PatternTooLarge
from semitotal.graphs import components, disjoint_union
from semitotal.patterns import MAX_EXPRESSION_ORDER, claw, long_paw, net


def test_named_patterns():
    assert (claw().n, claw().m) == (4, 3)
    assert claw().degree(0) == 3
    assert (net().n, net().m) == (6, 6)
    assert sorted(net().degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]
    assert (long_paw().n, long_paw().m) == (5, 5)
    assert sorted(long_paw().degree(v) for v in range(5)) == [1, 2, 2, 2, 3]


def test_parse_simple_terms():
    assert parse_pattern("P5").edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert parse_pattern("C4").m == 4
    assert parse_pattern("K4").m == 6
    assert parse_pattern("K1").n == 1
    assert parse_pattern("claw") == claw()
    assert parse_pattern("Claw") == claw()


def test_parse_sums_and_multipliers():
    g = parse_pattern("P3+2P2+K1")
    assert g.n == 8 and g.m == 4
    assert sorted(len(c) for c in components(g)) == [1, 2, 2, 3]
    assert parse_pattern("P5+3K1").n == 8
    assert parse_pattern("2P3") == parse_pattern("P3+P3")


def test_parse_rejects_junk():
    # U+0663 and U+0661 are Arabic-Indic three and one
    for bad in ["", "  ", "Q3", "P0", "C2", "0P3", "P3+", "P3++P2", "K", "P\u0663+K\u0661", "\u0662P3"]:
        with pytest.raises(ParseError):
            parse_pattern(bad)


def test_parse_refuses_oversized_numbers_before_converting():
    # int() refuses strings of more than 4300 digits
    for bad in ["P" + "9" * 5000, "9" * 5000 + "K2", "P3+" + "0" * 4999 + "1001K1"]:
        with pytest.raises(PatternTooLarge):
            parse_pattern(bad)
    with pytest.raises(ParseError, match="multiplier"):
        parse_pattern("0P" + "9" * 5000)
    assert parse_pattern("0" * 5000 + "2P" + "0" * 5000 + "3") == parse_pattern("2P3")


def test_named_terms_take_a_multiplier():
    assert parse_pattern("2claw") == disjoint_union([claw(), claw()])
    assert parse_pattern("P3+2Long-Paw") == parse_pattern("P3+longpaw+longpaw")
    assert parse_pattern("1net") == net()
    with pytest.raises(ParseError, match="multiplier"):
        parse_pattern("0claw")


def test_named_terms_count_toward_the_order_bound():
    # each named term once added nothing to the running total
    for bad in ["P999+claw+claw", "+".join(["claw"] * 300), "P998+2net"]:
        with pytest.raises(PatternTooLarge):
            parse_pattern(bad)
    assert parse_pattern("P992+2claw").n == MAX_EXPRESSION_ORDER
