import numpy as np
import pytest

from torsite import fixtures
from torsite.errors import InputError
from torsite.fincat import (
    FiniteCategory,
    full_subcategory,
    validate_category,
)

ALL_CATS = [
    fixtures.terminal_category,
    fixtures.a2_category,
    fixtures.a3_category,
    fixtures.c2_monoid_category,
    fixtures.idempotent_monoid_category,
    fixtures.empty_category,
]


@pytest.mark.parametrize("build", ALL_CATS)
def test_fixture_categories_validate(build):
    rep = validate_category(build())
    assert rep.ok, rep.summary()


def test_compose_bookkeeping():
    cat = fixtures.a3_category()
    a = cat.morphism_index("a")
    b = cat.morphism_index("b")
    ba = cat.morphism_index("ba")
    assert cat.compose(b, a) == ba
    assert cat.dom(ba) == cat.object_index("1")
    assert cat.cod(ba) == cat.object_index("3")
    with pytest.raises(InputError):
        cat.compose(a, b)  # wrong order, not composable


def test_hom_sets():
    cat = fixtures.a2_category()
    one, two = cat.object_index("1"), cat.object_index("2")
    assert cat.hom(one, two) == [cat.morphism_index("a")]
    assert cat.hom(two, one) == []
    assert cat.morphisms_into(two) == [cat.morphism_index("id2"), cat.morphism_index("a")]


def test_missing_composition_rejected():
    with pytest.raises(InputError, match="missing composition"):
        FiniteCategory.from_data(
            ["1", "2", "3"],
            [
                ("id1", "1", "1"),
                ("id2", "2", "2"),
                ("id3", "3", "3"),
                ("a", "1", "2"),
                ("b", "2", "3"),
                ("ba", "1", "3"),
            ],
            {"1": "id1", "2": "id2", "3": "id3"},
            {},
        )


def test_validate_flags_broken_associativity():
    cat = fixtures.c2_monoid_category()
    table = cat.compose_table.copy()
    g = cat.morphism_index("g")
    table[g, g] = g  # force g.g = g, breaking g.(g.g) = (g.g).g? still assoc; breaks identity? no
    broken = FiniteCategory(cat.objects, cat.morphisms, cat.identity, table)
    rep = validate_category(broken)
    # g.g = g makes g idempotent; associativity survives but unit law does not fail;
    # the table is still a valid category (the idempotent monoid), so check a truly bad one
    assert rep.ok
    table2 = cat.compose_table.copy()
    e = cat.morphism_index("e")
    table2[e, g] = e  # identity no longer neutral
    rep2 = validate_category(
        FiniteCategory(cat.objects, cat.morphisms, cat.identity, table2)
    )
    assert not rep2.ok
    assert any(v.rule in ("left-identity", "associativity") for v in rep2.violations)


def test_full_subcategory_of_everything_is_identity():
    for build in ALL_CATS:
        cat = build()
        D = full_subcategory(cat, range(cat.n_objects))
        assert D.object_subset == tuple(range(cat.n_objects))
        assert D.morphism_subset == tuple(range(cat.n_morphisms))
        sub = D.as_category()
        assert sub.objects == cat.objects
        assert [m.name for m in sub.morphisms] == [m.name for m in cat.morphisms]
        assert (sub.compose_table == cat.compose_table).all()


def test_full_subcategory_picks_all_morphisms_between_chosen_objects():
    cat = fixtures.a3_category()
    D = full_subcategory(cat, ["1", "3"])
    names = {cat.morphisms[m].name for m in D.morphism_subset}
    assert names == {"id1", "id3", "ba"}
    sub = D.as_category()
    assert validate_category(sub).ok
    assert sub.n_objects == 2


def test_full_subcategory_empty():
    cat = fixtures.a2_category()
    D = full_subcategory(cat, [])
    assert D.object_subset == ()
    sub = D.as_category()
    assert sub.n_objects == 0 and sub.n_morphisms == 0
    assert validate_category(sub).ok


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        FiniteCategory.from_data(
            ["x", "x"], [("id", "x", "x")], {"x": "id"}, {}
        )
    with pytest.raises(InputError):
        FiniteCategory.from_data(
            ["x"], [("id", "x", "x"), ("id", "x", "x")], {"x": "id"}, {}
        )


def test_empty_category_tables():
    cat = fixtures.empty_category()
    assert cat.n_objects == 0
    assert cat.compose_table.shape == (0, 0)
