import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals, reference_bernoulli_tree_sum, reference_tree_stats
from nonassoc.trees import (
    LEAF,
    PlaneTree,
    bernoulli_number,
    bernoulli_tree_sum,
    bernoulli_weights,
    enumerate_trees,
    parse_tree,
    tree_stats,
    tree_sum_series,
    weighted_tree_sum,
)

# random trees of up to 12 leaves, small enough that two draws are often equal
plane_trees = st.recursive(
    st.just(LEAF), lambda kids: st.builds(PlaneTree, kids, kids), max_leaves=12
)


def independent_catalan(m):
    # C(0) = 1, C(m) = sum C(i) C(m-1-i); kept separate from the library on purpose.
    table = [1]
    for k in range(1, m + 1):
        table.append(sum(table[i] * table[k - 1 - i] for i in range(k)))
    return table[m]


def test_bernoulli_base_cases():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(3) == 0


def test_bernoulli_12_against_independent_iteration():
    # Re-run the recurrence from scratch with plain lists.
    from math import factorial

    values = [F(1)]
    for k in range(1, 13):
        n = k + 1
        acc = sum(values[j] / (factorial(j) * factorial(n - j)) for j in range(k))
        values.append(-factorial(k) * acc)
    assert values[12] == F(-691, 2730)
    assert bernoulli_number(12) == F(-691, 2730)


def test_bernoulli_defining_relation():
    from math import factorial

    for n in range(2, 12):
        total = sum(
            bernoulli_number(k) / (factorial(k) * factorial(n - k)) for k in range(n)
        )
        assert total == 0


def test_enumerate_trees_counts_match_catalan():
    for n in range(1, 11):
        assert len(enumerate_trees(n)) == independent_catalan(n - 1)


def test_enumerate_trees_small():
    assert enumerate_trees(1) == (LEAF,)
    assert [t.encode() for t in enumerate_trees(3)] == ["((xx)x)", "(x(xx))"]
    assert len(enumerate_trees(5)) == 14


def test_enumerate_trees_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_enumeration_is_deterministic_and_distinct():
    for n in range(1, 10):
        trees = enumerate_trees(n)
        assert all(a.encode() < b.encode() and a != b for a, b in zip(trees, trees[1:]))
        # a set merges trees that compare equal, so this counts the pairwise unequal ones
        assert len(set(trees)) == independent_catalan(n - 1)
        # two distinct codes share a hash with probability about 2**-64
        assert len({hash(t) for t in trees}) == len(trees)
        assert all(t.degree() == n for t in trees)


def test_encode_parse_round_trip():
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            back = parse_tree(tree.encode())
            assert back == tree and hash(back) == hash(tree)


def shape(tree):
    """The tree as nested pairs, compared structurally."""
    return () if tree.is_leaf else (shape(tree.left), shape(tree.right))


def reference_encode(tree):
    return "x" if tree.is_leaf else f"({reference_encode(tree.left)}{reference_encode(tree.right)})"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=plane_trees, b=plane_trees)
def test_trees_compare_hash_and_encode_by_shape(a, b):
    assert (a == b) == (shape(a) == shape(b))
    assert a.encode() == reference_encode(a) and a.degree() == reference_encode(a).count("x")
    copy_of_a = a if a.is_leaf else PlaneTree(a.left, a.right)
    assert copy_of_a == a and hash(copy_of_a) == hash(a) and repr(a) == f"PlaneTree[{a.encode()}]"
    back = parse_tree(a.encode())
    assert back == a and hash(back) == hash(a)


def test_parse_tree_rejects_garbage():
    for bad in ["", "(x", "xx", "(xx)x", "y", "()", "(x)", "(xxx)", ")", "x)", "((xx)"]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_deep_trees_hash_encode_and_round_trip():
    comb = LEAF
    for _ in range(4999):
        comb = PlaneTree(comb, LEAF)
    code = comb.encode()
    assert comb.degree() == 5000 and code == "(" * 4999 + "x" + "x)" * 4999
    assert repr(comb) == f"PlaneTree[{code}]"
    back = parse_tree(code)
    assert back is not comb and back in {comb} and hash(back) == hash(comb)
    assert back.left_comb() == (LEAF,) * 4999
    right = parse_tree("(x" * 2999 + "x" + ")" * 2999)
    assert right.degree() == 3000 and right.right.degree() == 2999


def test_deep_malformed_encodings_raise_value_error():
    for bad in [
        "(" * 3000 + "x",
        "(" * 5000,
        "(x" * 3000 + "x" + ")" * 2999,
        "(" * 3000 + "xxx" + ")" * 3000,
        "(xx" + ")" * 3000,
        "(x" * 3000 + "x" + ")" * 3000 + "x",
    ]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_tree_stats_examples():
    assert tree_stats(LEAF) == (F(1), 1)
    assert tree_stats(parse_tree("(xx)")) == (F(-1, 2), 1)
    assert tree_stats(parse_tree("((xx)x)")) == (F(1, 6), 2)
    assert tree_stats(parse_tree("(x(xx))")) == (F(1, 4), 1)


def test_tree_stats_equals_the_fraction_reference():
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            bern, fact = tree_stats(tree)
            assert (bern, fact) == reference_tree_stats(tree)
            assert type(bern) is F and type(fact) is int


def test_tree_stats_degree_three_sum():
    total = sum(
        tree_stats(t)[0] / tree_stats(t)[1] for t in enumerate_trees(3)
    )
    assert total == F(1, 3)


def test_left_comb_decomposition():
    tree = parse_tree("((x(xx))x)")
    comb = tree.left_comb()
    assert [t.encode() for t in comb] == ["(xx)", "x"]


def test_bernoulli_tree_sum_closed_form():
    for n in range(1, 9):
        assert bernoulli_tree_sum(n) == F((-1) ** (n + 1), n)


def test_bernoulli_tree_sum_equals_the_plain_fraction_sum():
    for n in range(1, 11):
        assert bernoulli_tree_sum(n) == reference_bernoulli_tree_sum(n)


def test_weighted_tree_sum_with_bernoulli_weights():
    weights = bernoulli_weights(8)
    for n in range(1, 9):
        assert weighted_tree_sum(n, weights) == bernoulli_tree_sum(n)


def test_weighted_tree_sum_examples():
    assert weighted_tree_sum(4, bernoulli_weights(3)) == F(-1, 4)
    assert weighted_tree_sum(3, [1, 1]) == 2
    assert weighted_tree_sum(1, []) == 1


def test_weighted_tree_sum_counts_trees_with_unit_weights():
    for n in range(1, 9):
        assert weighted_tree_sum(n, [1] * (n - 1) if n > 1 else []) == len(
            enumerate_trees(n)
        )


def test_weighted_tree_sum_missing_weights():
    with pytest.raises(ValueError):
        weighted_tree_sum(4, [1])


def test_plane_tree_validation():
    with pytest.raises(ValueError):
        PlaneTree(LEAF, None)


def test_plane_tree_is_immutable_and_pickles():
    tree = parse_tree("((xx)x)")
    with pytest.raises(AttributeError):
        tree.left = LEAF
    with pytest.raises(AttributeError):
        del tree.right
    with pytest.raises(AttributeError):
        tree.extra = 1
    assert tree.encode() == "((xx)x)" and tree.degree() == 3
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert clone == tree and hash(clone) == hash(tree)
    assert tree != "((xx)x)"


# every degree argument of the module, called with one valid degree first so
# that a cache entry of 1 exists for True to reach; the cached functions are
# called by keyword, where lru_cache keys 1 and True alike unless typed
DEGREE_CALLS = {
    "enumerate_trees": lambda n: enumerate_trees(n=n),
    "bernoulli_number": lambda n: bernoulli_number(k=n),
    "bernoulli_tree_sum": bernoulli_tree_sum,
    "weighted_tree_sum": lambda n: weighted_tree_sum(n, []),
    "bernoulli_weights": bernoulli_weights,
    "tree_sum_series": lambda n: tree_sum_series(n, []),
}


@pytest.mark.parametrize("name", DEGREE_CALLS)
def test_degree_must_be_an_int_not_a_bool(name):
    call = DEGREE_CALLS[name]
    call(1)
    for bad in (True, False, 1.0, F(1), "1"):
        with pytest.raises(ValueError):
            call(bad)


def test_tree_sum_series_matches_enumeration():
    weights = bernoulli_weights(9)
    series = tree_sum_series(10, weights)
    assert len(series) == 11 and series[0] == 0
    for n in range(1, 11):
        assert series[n] == weighted_tree_sum(n, weights) == bernoulli_tree_sum(n)


def test_tree_sum_series_closed_form_to_degree_30():
    series = tree_sum_series(30, bernoulli_weights(29))
    assert series[1:] == [F((-1) ** (n + 1), n) for n in range(1, 31)]


def test_tree_sum_series_counts_trees_with_unit_weights():
    assert tree_sum_series(30, [1] * 29)[1:] == [independent_catalan(n - 1) for n in range(1, 31)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(weights=st.lists(rationals, min_size=6, max_size=6))
def test_tree_sum_series_matches_weighted_enumeration(weights):
    assert tree_sum_series(7, weights)[1:] == [weighted_tree_sum(n, weights) for n in range(1, 8)]


def test_tree_sum_series_missing_weights():
    assert tree_sum_series(1, []) == [0, 1]
    with pytest.raises(ValueError):
        tree_sum_series(4, [1, 1])
