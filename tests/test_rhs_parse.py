"""The rhs expression parser: pinned trees, parse errors and the walker.

TREES holds every rhs expression used in tests/, perfbench/workloads.py
and README.md (formatted ones with a sample value) with the tuple tree
the evaluator reads, so a parser change that alters a tree shows here.
"""

import pytest

from inflap import RhsSpec
from inflap.core import _nodes, _parse_rhs, _split_separable

TREES = [
    ("t", ("t",)),
    ("(const 0)", ("const", 0.0)),
    ("(const 1)", ("const", 1.0)),
    ("(const 2)", ("const", 2.0)),
    ("(const 8)", ("const", 8.0)),
    ("(const -1)", ("const", -1.0)),
    ("(const -8)", ("const", -8.0)),
    ("(const 27)", ("const", 27.0)),
    ("(const 2.5)", ("const", 2.5)),
    ("(const 1.3)", ("const", 1.3)),
    ("(const -0.75)", ("const", -0.75)),
    ("(const -1.1839487210593318)", ("const", -1.1839487210593318)),
    ("(exp t)", ("exp",)),
    ("(neg t)", ("neg", ("t",))),
    ("(neg (exp t))", ("neg", ("exp",))),
    ("(pow t 0.5)", ("pow", 0.5)),
    ("(pow t 1.5)", ("pow", 1.5)),
    ("(pow t 2)", ("pow", 2.0)),
    ("(pow t 3)", ("pow", 3.0)),
    ("(pow t 3.5)", ("pow", 3.5)),
    ("(pow t 4)", ("pow", 4.0)),
    ("(pow t 7)", ("pow", 7.0)),
    ("(neg (pow t 3))", ("neg", ("pow", 3.0))),
    ("(neg (pow t 7))", ("neg", ("pow", 7.0))),
    ("(cospow 0.5)", ("cospow", 0.5)),
    ("(cospow 1)", ("cospow", 1.0)),
    ("(cospow 1.5)", ("cospow", 1.5)),
    ("(cospow 2)", ("cospow", 2.0)),
    ("(cospow 3)", ("cospow", 3.0)),
    ("(clip (exp t) 10)", ("clip", ("exp",), 10.0)),
    ("(clip (mul (const 3) t) 2)",
     ("clip", ("mul", [("const", 3.0), ("t",)]), 2.0)),
    ("(add (const 1) (exp t))", ("add", [("const", 1.0), ("exp",)])),
    ("(add (const 1) (pow t 0.5))", ("add", [("const", 1.0), ("pow", 0.5)])),
    ("(add t (pow t 3) (const 1))",
     ("add", [("t",), ("pow", 3.0), ("const", 1.0)])),
    ("(add (pow t 3) (neg (exp t)))",
     ("add", [("pow", 3.0), ("neg", ("exp",))])),
    ("(mul (const -1e4) (exp t))", ("mul", [("const", -10000.0), ("exp",)])),
    ("(mul (const -0.5) (exp t) (cospow 2))",
     ("mul", [("const", -0.5), ("exp",), ("cospow", 2.0)])),
    ("(mul (pow t 3) (cospow 2))", ("mul", [("pow", 3.0), ("cospow", 2.0)])),
    ("(mul t (cospow 1))", ("mul", [("t",), ("cospow", 1.0)])),
    ("(neg (mul (exp t) (cospow 2)))",
     ("neg", ("mul", [("exp",), ("cospow", 2.0)]))),
    ("(mul (coef a) t)", ("mul", [("coef", "a"), ("t",)])),
    ("(mul (coef a) (pow t 3))", ("mul", [("coef", "a"), ("pow", 3.0)])),
    ("(mul (coef a) (exp t))", ("mul", [("coef", "a"), ("exp",)])),
    ("(add (mul (coef c) t) 1)",
     ("add", [("mul", [("coef", "c"), ("t",)]), ("const", 1.0)])),
]

# one malformed expression per parser error message; the bare name, nan
# and inf used to parse (a bare name failed only when evaluated, and
# (pow t nan) gave 1.0 at t = 1)
MALFORMED = [
    ("", "unexpected end of rhs expression"),
    ("(add t (exp t)", "unexpected end of rhs expression"),
    (")", r"unexpected \) in rhs expression"),
    ("t t", "trailing tokens in rhs expression"),
    ("(wat t)", "unknown rhs operator: 'wat'"),
    ("(add a t)", "bare name 'a' in rhs expression"),
    ("(coef 3)", "coef expects a coefficient name"),
    ("(coef exp)", "coef expects a coefficient name"),
    ("(pow t nan)", "non-finite literal 'nan' in rhs expression"),
    ("(const inf)", "non-finite literal 'inf' in rhs expression"),
    ("(exp 1)", "exp expects the t variable"),
    ("(cospow t)", "cospow expects a numeric literal"),
    ("(mul t)", "mul expects at least 2 arguments, got 1"),
    ("(neg t t)", "neg expects 1 arguments, got 2"),
]


@pytest.mark.parametrize("expr, tree", TREES)
def test_tree_pinned(expr, tree):
    assert _parse_rhs(expr) == tree


@pytest.mark.parametrize("expr, message", MALFORMED)
def test_malformed_rejected_when_parsed(expr, message):
    with pytest.raises(ValueError, match=message):
        RhsSpec(expr, coefs={"a": 1.0})


def test_nodes_walks_every_node():
    tree = _parse_rhs("(add (neg (coef a)) (clip (mul t (exp t)) 2))")
    assert [n[0] for n in _nodes(tree)] == [
        "add", "neg", "coef", "clip", "mul", "t", "exp"]


@pytest.mark.parametrize("expr, names, on_t", [
    ("(const 1)", set(), False),
    ("(mul (coef a) (coef b))", {"a", "b"}, False),
    ("(clip (neg (coef a)) 3)", {"a"}, False),
    ("(add (coef a) (mul (coef b) (cospow 2)))", {"a", "b"}, True),
    ("(neg (clip t 1))", set(), True),
])
def test_attributes(expr, names, on_t):
    f = RhsSpec(expr, coefs={"a": 1.0, "b": 2.0})
    assert f.coef_names == names
    assert f.depends_on_x() == bool(names)
    assert f.depends_on_t is on_t


def test_separable_split_kept_in_order():
    f = RhsSpec("(neg (mul (coef a) (exp t) (neg (cospow 2))))",
                coefs={"a": 2.0})
    assert f._separable == _split_separable(f.tree) == (
        [("coef", "a")],
        [("const", -1.0), ("exp",), ("const", -1.0), ("cospow", 2.0)])
    assert RhsSpec("(add (coef a) t)", coefs={"a": 1.0})._separable is None
