import itertools

import pytest

from torsite import fixtures
from torsite.errors import BudgetExceededError
from torsite.fincat import full_subcategory
from torsite.topology import (
    GrothendieckTopology,
    Sieve,
    enumerate_topologies,
    is_sieve,
    is_topology,
    matching_subcategories,
    maximal_sieve,
    pullback_sieve,
    sieves_on,
    subcategory_topology,
    trivial_topology,
)

SITE_FIXTURES = [
    ("terminal", fixtures.terminal_category),
    ("a2", fixtures.a2_category),
    ("a3", fixtures.a3_category),
    ("c2", fixtures.c2_monoid_category),
]


def test_sieve_counts():
    cat = fixtures.terminal_category()
    assert len(sieves_on(cat, 0)) == 2
    a2 = fixtures.a2_category()
    assert len(sieves_on(a2, a2.object_index("1"))) == 2
    assert len(sieves_on(a2, a2.object_index("2"))) == 3
    a3 = fixtures.a3_category()
    assert len(sieves_on(a3, a3.object_index("3"))) == 4
    c2 = fixtures.c2_monoid_category()
    assert len(sieves_on(c2, 0)) == 2  # the singleton {g} is not right-closed
    mp = fixtures.idempotent_monoid_category()
    assert len(sieves_on(mp, 0)) == 3  # {p} is right-closed here


def test_sieves_are_right_closed():
    for _, build in SITE_FIXTURES:
        cat = build()
        for x in range(cat.n_objects):
            for S in sieves_on(cat, x):
                assert is_sieve(cat, S)


def test_pullback_examples():
    a2 = fixtures.a2_category()
    two = a2.object_index("2")
    one = a2.object_index("1")
    a = a2.morphism_index("a")
    S = Sieve(two, frozenset({a}))
    assert is_sieve(a2, S)
    back = pullback_sieve(a2, S, a)
    assert back == maximal_sieve(a2, one)
    assert pullback_sieve(a2, Sieve(two, frozenset()), a) == Sieve(one, frozenset())
    for _, build in SITE_FIXTURES:
        cat = build()
        for x in range(cat.n_objects):
            for f in cat.morphisms_into(x):
                assert pullback_sieve(cat, maximal_sieve(cat, x), f) == maximal_sieve(
                    cat, cat.dom(f)
                )
                for S in sieves_on(cat, x):
                    assert is_sieve(cat, pullback_sieve(cat, S, f))


def test_sieve_generated_by():
    a3 = fixtures.a3_category()
    three = a3.object_index("3")
    b = a3.morphism_index("b")
    # the smallest sieve on 3 containing b
    S = min((S for S in sieves_on(a3, three) if b in S), key=lambda S: len(S.members))
    names = {a3.morphisms[m].name for m in S.members}
    assert names == {"b", "ba"}


def test_is_topology_examples():
    term = fixtures.terminal_category()
    both = GrothendieckTopology(term, [sieves_on(term, 0)])
    assert is_topology(term, both).ok
    assert is_topology(term, trivial_topology(term)).ok
    a2 = fixtures.a2_category()
    one, two = a2.object_index("1"), a2.object_index("2")
    assert is_topology(a2, trivial_topology(a2)).ok
    bad = GrothendieckTopology(
        a2,
        [
            [maximal_sieve(a2, one)],
            [Sieve(two, frozenset()), maximal_sieve(a2, two)],
        ],
    )
    rep = is_topology(a2, bad)
    assert not rep.ok
    assert any(v.rule == "stability" for v in rep.violations)


@pytest.mark.parametrize(
    "name,count",
    [("terminal", 2), ("a2", 4), ("a3", 8), ("c2", 2)],
)
def test_topology_counts(name, count):
    cat = dict(SITE_FIXTURES)[name]()
    tops = enumerate_topologies(cat)
    assert len(tops) == count
    for J in tops:
        assert is_topology(cat, J).ok


def test_empty_category_has_one_topology():
    cat = fixtures.empty_category()
    tops = enumerate_topologies(cat)
    assert len(tops) == 1
    assert is_topology(cat, tops[0]).ok


@pytest.mark.parametrize("name,build", SITE_FIXTURES)
def test_enumeration_matches_subcategory_topologies(name, build):
    cat = build()
    tops = {J.key() for J in enumerate_topologies(cat)}
    from_subcats = {
        subcategory_topology(cat, combo).key()
        for r in range(cat.n_objects + 1)
        for combo in itertools.combinations(range(cat.n_objects), r)
    }
    assert tops == from_subcats
    assert len(from_subcats) == 2**cat.n_objects


def test_idempotent_monoid_breaks_subcategory_correspondence():
    """One non-identity idempotent is enough to produce a topology that no
    full subcategory induces: {max, {p}} passes all three axioms."""
    cat = fixtures.idempotent_monoid_category()
    tops = enumerate_topologies(cat)
    assert len(tops) == 3
    from_subcats = {
        subcategory_topology(cat, combo).key()
        for combo in [(), (0,)]
    }
    assert len(from_subcats) == 2
    extras = [J for J in tops if J.key() not in from_subcats]
    assert len(extras) == 1
    (extra,) = extras
    p = cat.morphism_index("p")
    assert {s.members for s in extra.covers_at(0)} == {
        frozenset({p}),
        frozenset({cat.morphism_index("e"), p}),
    }
    assert matching_subcategories(cat, extra) == []


def test_subcategory_topology_examples():
    a2 = fixtures.a2_category()
    one, two = a2.object_index("1"), a2.object_index("2")
    a = a2.morphism_index("a")
    J1 = subcategory_topology(a2, ["1"])
    assert [s.members for s in J1.covers_at(one)] == [maximal_sieve(a2, one).members]
    assert {s.members for s in J1.covers_at(two)} == {
        frozenset({a}),
        maximal_sieve(a2, two).members,
    }
    Jall = subcategory_topology(a2, ["1", "2"])
    assert Jall == trivial_topology(a2)
    Jempty = subcategory_topology(a2, [])
    assert [len(Jempty.covers_at(x)) for x in (one, two)] == [2, 3]


@pytest.mark.parametrize("name,build", SITE_FIXTURES)
def test_every_subcategory_topology_is_a_topology(name, build):
    cat = build()
    for r in range(cat.n_objects + 1):
        for combo in itertools.combinations(range(cat.n_objects), r):
            J = subcategory_topology(cat, full_subcategory(cat, combo))
            assert is_topology(cat, J).ok


def test_empty_sieve_forces_everything():
    for _, build in SITE_FIXTURES + [("mp", fixtures.idempotent_monoid_category)]:
        cat = build()
        for J in enumerate_topologies(cat):
            for x in range(cat.n_objects):
                if J.contains(Sieve(x, frozenset())):
                    assert len(J.covers_at(x)) == len(sieves_on(cat, x))


def test_matching_subcategories_roundtrip():
    for name, build in SITE_FIXTURES:
        cat = build()
        for r in range(cat.n_objects + 1):
            for combo in itertools.combinations(range(cat.n_objects), r):
                J = subcategory_topology(cat, combo)
                assert combo in matching_subcategories(cat, J)


def test_budget_guard():
    a3 = fixtures.a3_category()
    with pytest.raises(BudgetExceededError):
        enumerate_topologies(a3, budget=3)
