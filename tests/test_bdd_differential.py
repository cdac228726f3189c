"""Randomized differential suite: complement-edge manager vs a reference
no-complement build.

~200 seeded random formulas are compiled into both the production
:class:`BddManager` (complement edges, shared caches, GC machinery) and the
deliberately naive :class:`reference_bdd.ReferenceBdd` oracle, checking for
each one that

* the truth tables agree on every assignment,
* ``not_(not_(f))`` is *the same edge* as ``f`` and negation never allocates,
* satisfying-assignment counts agree,
* the complement-edge node count never exceeds the no-complement baseline
  (and wins strictly overall across the corpus),
* existential quantification agrees with the oracle.
"""

import itertools
import random

import pytest

from repro.bdd import BddManager

from reference_bdd import ReferenceBdd

VAR_NAMES = ["a", "b", "c", "d", "e", "f"]
NUM_FORMULAS = 200
MAX_DEPTH = 5


def random_formula(rng: random.Random, depth: int = 0):
    """A random propositional AST with negation-heavy weighting."""
    if depth >= MAX_DEPTH or rng.random() < 0.25:
        if rng.random() < 0.1:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(VAR_NAMES))
    op = rng.choices(
        ["not", "and", "or", "xor", "ite"], weights=[3, 2, 2, 2, 1], k=1
    )[0]
    if op == "not":
        return ("not", random_formula(rng, depth + 1))
    if op == "ite":
        return (
            "ite",
            random_formula(rng, depth + 1),
            random_formula(rng, depth + 1),
            random_formula(rng, depth + 1),
        )
    return (op, random_formula(rng, depth + 1), random_formula(rng, depth + 1))


def build(expr, mgr):
    tag = expr[0]
    if tag == "var":
        return mgr.var(expr[1])
    if tag == "const":
        return mgr.TRUE if expr[1] else mgr.FALSE
    if tag == "not":
        return mgr.not_(build(expr[1], mgr))
    if tag == "and":
        return mgr.and_(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "or":
        return mgr.or_(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "xor":
        return mgr.xor(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "ite":
        return mgr.ite(build(expr[1], mgr), build(expr[2], mgr), build(expr[3], mgr))
    raise AssertionError(tag)


def all_envs():
    for values in itertools.product([False, True], repeat=len(VAR_NAMES)):
        yield dict(zip(VAR_NAMES, values))


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260729)
    return [random_formula(rng) for _ in range(NUM_FORMULAS)]


@pytest.fixture(params=["array", "dict"])
def store(request):
    """Both node-store layouts must satisfy the whole differential contract."""
    return request.param


def test_truth_tables_and_node_counts_match_reference(corpus, store):
    mgr = BddManager(VAR_NAMES, store=store)
    ref = ReferenceBdd(VAR_NAMES)
    complement_total = 0
    reference_total = 0
    for expr in corpus:
        node = build(expr, mgr)
        oracle = build(expr, ref)
        for env in all_envs():
            assert mgr.eval(node, env) == ref.eval(oracle, env), expr
        n_new = mgr.node_count(node)
        n_ref = ref.node_count(oracle)
        assert n_new <= n_ref, (expr, n_new, n_ref)
        complement_total += n_new
        reference_total += n_ref
    # Across a negation-heavy corpus the complement-edge build must win
    # strictly, not just tie.
    assert complement_total < reference_total


def test_negation_is_the_identity_edge_flip(corpus, store):
    mgr = BddManager(VAR_NAMES, store=store)
    for expr in corpus:
        node = build(expr, mgr)
        stats_before = mgr.stats()
        negated = mgr.not_(node)
        assert mgr.not_(negated) == node
        if node > 1:
            assert negated != node
            # f and not f share every decision node.
            assert mgr.node_count(negated) == mgr.node_count(node)
        stats_after = mgr.stats()
        assert stats_after["nodes"] == stats_before["nodes"]
        assert stats_after["ops"] == stats_before["ops"]


def test_count_sat_matches_reference(corpus, store):
    mgr = BddManager(VAR_NAMES, store=store)
    ref = ReferenceBdd(VAR_NAMES)
    for expr in corpus:
        node = build(expr, mgr)
        oracle = build(expr, ref)
        expected = sum(1 for env in all_envs() if ref.eval(oracle, env))
        assert mgr.count_sat(node, VAR_NAMES) == expected


def test_exists_matches_reference(corpus, store):
    mgr = BddManager(VAR_NAMES, store=store)
    ref = ReferenceBdd(VAR_NAMES)
    rng = random.Random(4242)
    for expr in corpus[:80]:
        qvars = rng.sample(VAR_NAMES, rng.randint(1, 3))
        node = mgr.exists(build(expr, mgr), qvars)
        oracle = ref.exists(build(expr, ref), qvars)
        remaining = [name for name in VAR_NAMES if name not in qvars]
        for values in itertools.product([False, True], repeat=len(remaining)):
            env = dict(zip(remaining, values))
            env.update({name: False for name in qvars})
            assert mgr.eval(node, env) == ref.eval(oracle, env)


def test_layouts_agree_edge_for_edge(corpus):
    """The two layouts are not just truth-table equal: identical operation
    sequences produce identical signed edges, counts and stats-visible node
    totals, including across an interleaved GC sweep."""
    arr = BddManager(VAR_NAMES, store="array")
    dct = BddManager(VAR_NAMES, store="dict")
    assert arr.stats()["store"] == "array"
    assert dct.stats()["store"] == "dict"
    swept = False
    for i, expr in enumerate(corpus):
        node_a = build(expr, arr)
        node_d = build(expr, dct)
        if not swept:
            # Identical allocation order => identical edges, until a sweep
            # makes slot numbering layout-dependent (the dict store refills
            # free-listed slots, the array store compacts and re-extends).
            assert node_a == node_d, expr
        assert arr.count_sat(node_a, VAR_NAMES) == dct.count_sat(node_d, VAR_NAMES)
        if i == NUM_FORMULAS // 2:
            # Mid-corpus sweep with nothing protected: both layouts must
            # reclaim everything down to the terminal.
            assert arr.collect_garbage() > 0
            assert dct.collect_garbage() > 0
            assert len(arr) == len(dct) == 1
            assert arr.stats()["capacity"] == 1  # tail fully compacted
            swept = True
    assert len(arr) == len(dct)


def test_count_sat_wide_variable_sets_fall_back_exactly():
    """Counts past 62 variables overflow the vectorised int64 pass; the
    array store must transparently produce exact big-int counts."""
    names = [f"w{i}" for i in range(70)]
    arr = BddManager(names, store="array")
    dct = BddManager(names, store="dict")
    # f = w0 or w35 or w69 over all 70 variables.
    fa = arr.disjoin([arr.var("w0"), arr.var("w35"), arr.var("w69")])
    fd = dct.disjoin([dct.var("w0"), dct.var("w35"), dct.var("w69")])
    expected = (1 << 70) - (1 << 67)  # all minus the all-three-false space
    assert arr.count_sat(fa) == expected
    assert dct.count_sat(fd) == expected
    assert arr.count_sat(arr.TRUE) == 1 << 70
