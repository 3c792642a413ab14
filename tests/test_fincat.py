
import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from finsite import corpus
from finsite.bundles import Workspace
from finsite.deciders import Prop33Square, SiteFunctor, is_comorphism
from finsite.fibration import (
    direct_image,
    grothendieck,
    structure_functor,
    validate_indexed_morphism,
)
from finsite.fincat import (
    DEFAULT_MAX_ARROWS,
    DEFAULT_MAX_OBJECTS,
    FinCategory,
    Record,
    StructureError,
    arrow_category,
    build_category,
    check_adjunction,
    comma_category,
    composable_pairs,
    compose_functors,
    connected_components,
    constant_functor,
    full_subcategory,
    identity_functor,
    identity_transform,
    is_equivalence,
    validate_category,
    validate_functor,
    validate_transform,
)
from finsite.generate import gen_category, Caps, constant_indexed
from finsite.limits import finite_limits
from finsite.presheaf import plus, sheafify, validate_presheaf
from finsite.sieves import trivial_topology


def test_terminal_category_is_valid(one):
    assert one.objects == ("*",)
    assert one.arrows == ("id_*",)


def test_walk2_is_valid(walk2):
    assert set(walk2.arrows) == {"u", "id_a", "id_b"}
    assert walk2.compose("u", "id_a") == "u"


def test_noncomposable_pair_is_rejected():
    arrows = {"u": ("a", "b"), "id_a": ("a", "a"), "id_b": ("b", "b")}
    table = {
        ("u", "id_a"): "u",
        ("id_b", "u"): "u",
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("u", "u"): "u",
    }
    with pytest.raises(StructureError, match="non-composable pair"):
        validate_category(("a", "b"), arrows, {"a": "id_a", "b": "id_b"}, table)


def test_missing_composite_is_rejected():
    c3 = corpus.chain3()
    table = dict(c3.table)
    del table[("a1->a2", "a0->a1")]
    with pytest.raises(StructureError, match="left undefined"):
        validate_category(c3.objects, {a: (c3.src[a], c3.tgt[a]) for a in c3.arrows}, c3.identity, table)


def test_first_missing_composite_in_arrow_name_order_is_the_witness():
    # pairs are scanned by g, then f, in sorted arrow-name order; scanning by f
    # first would name ("id_a2", "a0->a2") instead
    c3 = corpus.chain3()
    table = dict(c3.table)
    del table[("id_a2", "a0->a2")]
    del table[("a1->a2", "id_a1")]
    with pytest.raises(StructureError, match="left undefined") as info:
        validate_category(c3.objects, {a: (c3.src[a], c3.tgt[a]) for a in c3.arrows}, c3.identity, table)
    assert info.value.witness == ("a1->a2", "id_a1")


def test_broken_unit_law_is_rejected():
    arrows = {"e": ("x", "x"), "id_x": ("x", "x")}
    table = {("e", "e"): "e", ("e", "id_x"): "e", ("id_x", "e"): "id_x", ("id_x", "id_x"): "id_x"}
    with pytest.raises(StructureError, match="unit law"):
        validate_category(("x",), arrows, {"x": "id_x"}, table)


def unital_table(arrows, identity, composites):
    """The unit-law composites of ``arrows`` plus the given non-identity ones."""
    table = dict(composites)
    for a, (s, t) in arrows.items():
        table[(a, identity[s])] = a
        table[(identity[t], a)] = a
    return table


def full_associativity_witness(cat):
    """The first (h, g, f) whose two bracketings differ, by a scan of every
    composable triple in the order ``validate_category`` uses; None if none."""
    for g in cat.arrows:
        for f in cat.into(cat.src[g]):
            for h in cat.out_of(cat.tgt[g]):
                if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                    return (h, g, f)
    return None


def test_associativity_violation_is_reported():
    # two parallel endo-arrows with a deliberately twisted table; (f, f, f)
    # holds, so the first failing triple is (g, f, f)
    arrows = {"f": ("x", "x"), "g": ("x", "x"), "id_x": ("x", "x")}
    table = unital_table(arrows, {"x": "id_x"}, {("f", "f"): "g", ("f", "g"): "f", ("g", "f"): "f", ("g", "g"): "f"})
    with pytest.raises(StructureError, match=r"associativity fails on \(g, f, f\)") as info:
        validate_category(("x",), arrows, {"x": "id_x"}, table)
    assert info.value.witness == ("g", "f", "f")


def test_associativity_is_checked_when_only_a_later_hom_set_has_two_arrows():
    # a -f-> b -g-> c -h-> d with h.(g.f) = p but (h.g).f = q; hom(a, d) is the
    # only hom-set with two arrows, and the first one built (hom(a, b)) is thin
    identity = {o: "id_" + o for o in "abcd"}
    arrows = {"f": ("a", "b"), "g": ("b", "c"), "h": ("c", "d"), "gf": ("a", "c"), "hg": ("b", "d")}
    arrows.update({"p": ("a", "d"), "q": ("a", "d")})
    arrows.update({i: (o, o) for o, i in identity.items()})
    composites = {("g", "f"): "gf", ("h", "g"): "hg", ("h", "gf"): "p", ("hg", "f"): "q"}
    with pytest.raises(StructureError, match="associativity") as info:
        validate_category("abcd", arrows, identity, unital_table(arrows, identity, composites))
    assert info.value.witness == ("h", "g", "f")
    composites[("hg", "f")] = "p"
    validate_category("abcd", arrows, identity, unital_table(arrows, identity, composites))


def associativity_cases(seeds):
    """Tables that pass every check before associativity: for each seed, a
    random unital table on one object, and a fuzzed category with one
    non-identity composite moved to a parallel arrow where it has one."""
    for seed in seeds:
        rng = random.Random(seed)
        names = ["a{}".format(i) for i in range(rng.randint(1, 3))]
        arrows = {a: ("x", "x") for a in names + ["id_x"]}
        composites = {(g, f): rng.choice(names + ["id_x"]) for g in names for f in names}
        yield ("x",), arrows, {"x": "id_x"}, unital_table(arrows, {"x": "id_x"}, composites)
        cat, _ = gen_category(rng, Caps())
        moves = [
            (pair, h2)
            for pair, h in sorted(cat.table.items())
            if not (cat.is_identity(pair[0]) or cat.is_identity(pair[1]))
            for h2 in cat.hom(cat.src[h], cat.tgt[h])
            if h2 != h
        ]
        if moves:
            pair, h2 = rng.choice(moves)
            arrow_ends = {a: (cat.src[a], cat.tgt[a]) for a in cat.arrows}
            yield cat.objects, arrow_ends, cat.identity, {**cat.table, pair: h2}


def test_associativity_witness_matches_the_full_triple_scan():
    """validate_category names the first failing triple of the full scan,
    and accepts exactly when the scan finds none."""
    outcomes = {"fails": 0, "holds": 0, "twisted": 0}
    for objects, arrow_ends, identity, table in associativity_cases(range(300)):
        outcomes["twisted"] += objects != ("x",)
        expected = full_associativity_witness(
            FinCategory(
                objects,
                tuple(sorted(arrow_ends)),
                {a: s for a, (s, _) in arrow_ends.items()},
                {a: t for a, (_, t) in arrow_ends.items()},
                identity,
                table,
            )
        )
        if expected is None:
            outcomes["holds"] += 1
            validate_category(objects, arrow_ends, identity, table)
        else:
            outcomes["fails"] += 1
            with pytest.raises(StructureError, match="associativity") as info:
                validate_category(objects, arrow_ends, identity, table)
            assert info.value.witness == expected
    assert min(outcomes.values()) >= 10, outcomes


def test_composable_pairs_lists_the_all_pairs_scan(walk2, retract):
    for cat in (walk2, retract, corpus.chain3()):
        arrows = {a: (cat.src[a], cat.tgt[a]) for a in cat.arrows}
        scan = [(b, a) for b, (bs, _) in arrows.items() for a, (_, at) in arrows.items() if at == bs]
        assert composable_pairs(arrows) == scan
        assert sorted(scan) == sorted(cat.table)


def test_category_equality_compares_tables_only_between_distinct_objects(walk2):
    assert walk2 == walk2
    assert "_key" not in vars(walk2)
    again = corpus.walk2()
    assert again is not walk2 and again == walk2 and hash(again) == hash(walk2)
    assert walk2 != corpus.retract()


def test_identity_functor_and_constant_functor(walk2, one):
    identity_functor(walk2)
    constant_functor(walk2, one, "*")


def test_functor_endpoint_mismatch_is_rejected(walk2):
    with pytest.raises(StructureError, match="endpoints|preserved"):
        validate_functor(
            {"a": "a", "b": "b"},
            {"u": "id_a", "id_a": "id_a", "id_b": "id_b"},
            walk2,
            walk2,
        )


def _idempotent():
    return build_category(("x",), {"e": ("x", "x")}, {("e", "e"): "e"})


def _involution():
    return build_category(("y",), {"t": ("y", "y")}, {("t", "t"): "id_y"})


WALK2_IDS = {"id_a": "id_a", "id_b": "id_b"}


@pytest.mark.parametrize(
    "source, target, obj_map, arr_map, message, witness",
    [
        (corpus.walk2, corpus.walk2, {"a": "a"}, {"u": "u", **WALK2_IDS}, "dangling object b", "b"),
        (corpus.walk2, corpus.walk2, {"a": "a", "b": "c"}, {"u": "u", **WALK2_IDS}, "object b maps outside", "b"),
        (corpus.walk2, corpus.walk2, {"a": "a", "b": "b"}, WALK2_IDS, "arrow u has no image", "u"),
        (corpus.walk2, corpus.walk2, {"a": "a", "b": "b"}, {"u": "v", **WALK2_IDS}, "arrow u maps outside", "u"),
        (corpus.walk2, corpus.walk2, {"a": "a", "b": "b"}, {"u": "id_a", **WALK2_IDS}, "image of u has wrong endpoints", "u"),
        (corpus.one, _idempotent, {"*": "x"}, {"id_*": "e"}, r"identity of \* not preserved", "*"),
        (_idempotent, _involution, {"x": "y"}, {"id_x": "id_y", "e": "t"}, r"composite \(e, e\) not preserved", ("e", "e")),
    ],
    ids=["dangling-object", "object-outside", "no-image", "arrow-outside", "endpoints", "identity", "composite"],
)
def test_validate_functor_names_the_witness(source, target, obj_map, arr_map, message, witness):
    with pytest.raises(StructureError, match=message) as info:
        validate_functor(obj_map, arr_map, source(), target())
    assert info.value.witness == witness


def test_an_identity_named_for_no_object_is_dropped():
    # A stray entry naming e as an identity must not exempt e's composites
    # from the functoriality check.
    idem = _idempotent()
    arrows = {a: (idem.src[a], idem.tgt[a]) for a in idem.arrows}
    stray = validate_category(idem.objects, arrows, {"x": "id_x", "w": "e"}, idem.table)
    assert stray.identity == {"x": "id_x"} and stray == idem
    with pytest.raises(StructureError, match=r"composite \(e, e\) not preserved"):
        validate_functor({"x": "y"}, {"id_x": "id_y", "e": "t"}, stray, _involution())


def brute_force_comma_objects(f_leg, g_leg):
    amb = f_leg.target
    out = set()
    for d in f_leg.source.objects:
        for d2 in g_leg.source.objects:
            for u in amb.arrows:
                if amb.src[u] == f_leg.ob(d) and amb.tgt[u] == g_leg.ob(d2):
                    out.add((d, d2, u))
    return out


def test_comma_identity_over_one(one):
    cc = comma_category(identity_functor(one), identity_functor(one))
    assert len(cc.category.objects) == 1
    assert len(cc.category.arrows) == 1


def test_comma_pick_b_against_identity(walk2, one):
    pick_b = constant_functor(one, walk2, "b")
    cc = comma_category(pick_b, identity_functor(walk2))
    assert set(cc.obj_data.values()) == brute_force_comma_objects(pick_b, identity_functor(walk2))
    # only arrows out of b exist: id_b
    assert len(cc.category.objects) == 1


def test_comma_identity_against_pick_b(walk2, one):
    pick_b = constant_functor(one, walk2, "b")
    cc = comma_category(identity_functor(walk2), pick_b)
    assert set(cc.obj_data.values()) == brute_force_comma_objects(identity_functor(walk2), pick_b)
    assert len(cc.category.objects) == 2
    non_id = [a for a in cc.category.arrows if not cc.category.is_identity(a)]
    assert len(non_id) == 1


def _comma_matches_arrow_category(cat):
    ac = arrow_category(cat)
    ident = identity_functor(cat)
    cc = comma_category(ident, ident)
    obj_map = {name: ac.of_arrow[u] for name, (_, _, u) in cc.obj_data.items()}
    arr_map = {}
    for name, (w1, w2) in cc.arr_data.items():
        o1, o2 = cc.category.src[name], cc.category.tgt[name]
        arr_map[name] = "[{},{}]:{}->{}".format(w1, w2, obj_map[o1], obj_map[o2])
    iso = validate_functor(obj_map, arr_map, cc.category, ac.category)
    assert sorted(obj_map.values()) == sorted(ac.category.objects)
    assert sorted(arr_map.values()) == sorted(ac.category.arrows)
    assert compose_functors(ac.dom, iso) == cc.left
    assert compose_functors(ac.cod, iso) == cc.right


def test_comma_of_identities_is_the_arrow_category(walk2, retract):
    _comma_matches_arrow_category(walk2)
    _comma_matches_arrow_category(retract)


def disjoint_union(left, right):
    """The coproduct of two categories, names tagged L: and R:."""
    objects = tuple("L:" + o for o in left.objects) + tuple("R:" + o for o in right.objects)
    arrows = {}
    identity = {}
    table = {}
    for tag, cat in (("L:", left), ("R:", right)):
        for a in cat.arrows:
            arrows[tag + a] = (tag + cat.src[a], tag + cat.tgt[a])
        for c, i in cat.identity.items():
            identity[tag + c] = tag + i
        for (g, f), h in cat.table.items():
            table[(tag + g, tag + f)] = tag + h
    return validate_category(objects, arrows, identity, table)


def test_connected_components_examples(one, walk2):
    assert connected_components(one) == (("*",),)
    assert connected_components(walk2) == (("a", "b"),)
    two = disjoint_union(one, one)
    assert len(connected_components(two)) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_connected_components_match_graph_reachability(seed):
    cat, _ = gen_category(random.Random(seed), Caps())
    neighbours = {c: set() for c in cat.objects}
    for a in cat.arrows:
        neighbours[cat.src[a]].add(cat.tgt[a])
        neighbours[cat.tgt[a]].add(cat.src[a])
    groups = []
    seen = set()
    for c in cat.objects:
        if c in seen:
            continue
        stack, group = [c], set()
        while stack:
            x = stack.pop()
            if x not in group:
                group.add(x)
                stack.extend(neighbours[x] - group)
        seen |= group
        groups.append(tuple(sorted(group)))
    assert tuple(sorted(groups)) == tuple(sorted(connected_components(cat)))


def test_check_adjunction_identity(walk2):
    ident = identity_functor(walk2)
    unit = {c: walk2.identity[c] for c in walk2.objects}
    assert check_adjunction(ident, ident, unit, unit)


def test_check_adjunction_terminal_object(walk2, one):
    bang = corpus.bang(walk2)
    pick_b = corpus.pick(walk2, "b")
    assert check_adjunction(bang, pick_b, {"a": "u", "b": "id_b"}, {"*": "id_*"})


def test_check_adjunction_fails_for_pick_a(walk2):
    bang = corpus.bang(walk2)
    pick_a = corpus.pick(walk2, "a")
    assert not check_adjunction(bang, pick_a, {"a": "u", "b": "id_b"}, {"*": "id_*"})
    # even the only well-typed candidate unit fails: a is not terminal
    assert not check_adjunction(bang, pick_a, {"a": "id_a", "b": "id_b"}, {"*": "id_*"})


def _assert_hom_bijection(adj):
    left, right = adj.left, adj.right
    ccat, dcat = left.source, left.target
    for c in ccat.objects:
        for d in dcat.objects:
            down = list(dcat.hom(left.ob(c), d))
            up = list(ccat.hom(c, right.ob(d)))
            transpose = {u: ccat.compose(right.ar(u), adj.unit[c]) for u in down}
            back = {v: dcat.compose(adj.counit[d], left.ar(v)) for v in up}
            assert sorted(transpose.values()) == sorted(up)
            assert all(back[transpose[u]] == u for u in down)


def test_accepted_adjunction_gives_hom_bijection(walk2, one):
    _assert_hom_bijection(corpus.walk2_terminal_adjunction())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzzed_galois_connections_give_hom_bijections(seed):
    from finsite.generate import GenerationError, gen_galois

    try:
        adj = gen_galois(random.Random(seed), Caps())
    except GenerationError:
        return
    assert check_adjunction(adj.left, adj.right, adj.unit, adj.counit)
    _assert_hom_bijection(adj)


def test_is_equivalence_identity(walk2):
    ok, witness = is_equivalence(identity_functor(walk2))
    assert ok and witness[0] == "essential_preimages"


def test_is_equivalence_rejects_collapse(walk2, one):
    ok, witness = is_equivalence(corpus.bang(walk2))
    assert not ok
    assert witness[0] == "not_full"


def test_is_equivalence_accepts_skeleton_inclusion():
    iso2 = corpus.iso2()
    sub = full_subcategory(iso2, ["y"])
    inclusion = validate_functor({"y": "y"}, {"id_y": "id_y"}, sub, iso2)
    ok, witness = is_equivalence(inclusion)
    assert ok
    preimages = dict(witness[1])
    assert "z" in preimages


def test_natural_transform_validation(walk2, one):
    bang = corpus.bang(walk2)
    pick_b = corpus.pick(walk2, "b")
    composite = compose_functors(pick_b, bang)
    validate_transform({"a": "u", "b": "id_b"}, identity_functor(walk2), composite)
    with pytest.raises(StructureError):
        validate_transform({"a": "id_a", "b": "id_b"}, identity_functor(walk2), composite)


def test_category_caps_enforced():
    objects = ["o{:02d}".format(i) for i in range(DEFAULT_MAX_OBJECTS + 1)]
    assert len(build_category(objects[:-1], {}).objects) == DEFAULT_MAX_OBJECTS
    with pytest.raises(StructureError, match="object cap exceeded: 65 > 64"):
        build_category(objects, {})
    # with the two identities, one parallel arrow too many
    parallel = {"f{:03d}".format(i): ("x", "c") for i in range(DEFAULT_MAX_ARROWS - 1)}
    assert len(build_category(("x", "c"), dict(list(parallel.items())[:-1])).arrows) == DEFAULT_MAX_ARROWS
    with pytest.raises(StructureError, match="arrow cap exceeded: 513 > 512"):
        build_category(("x", "c"), parallel)


def test_retract_composition_table(retract):
    assert retract.compose("e", "m") == "id_r"
    assert retract.compose("m", "e") == "t"
    assert retract.compose("t", "t") == "t"
    assert not retract.is_iso("t")
    assert retract.is_iso("id_r")


def _record_samples(walk2, sier, two_point):
    """One instance of every ``Record`` subclass, built from the corpus."""
    one = corpus.one()
    ident = identity_functor(walk2)
    presheaf = validate_presheaf(walk2, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}})
    stf = structure_functor(constant_indexed(one, corpus.discrete(("p", "q"))), corpus.walk2_terminal_adjunction())
    fiber_ids = {c: identity_functor(two_point.fiber[c]) for c in walk2.objects}
    return [
        walk2,
        ident,
        identity_transform(ident),
        comma_category(ident, ident),
        arrow_category(walk2),
        corpus.walk2_terminal_adjunction(),
        two_point,
        grothendieck(two_point),
        validate_indexed_morphism(two_point, two_point, fiber_ids),
        direct_image(two_point, ident),
        stf.inverse,
        stf,
        finite_limits(one)[2],
        sier,
        presheaf,
        plus(presheaf, sier),
        sheafify(presheaf, sier),
        SiteFunctor(ident, sier, sier),
        is_comorphism(SiteFunctor(ident, sier, sier)),
        Prop33Square(ident, ident, identity_transform(ident), ident, ident, sier),
        corpus.corpus_workspace(),
    ]


def _record_classes():
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def test_records_refuse_assignment_and_compare_by_fields(walk2, sier, two_point):
    w2 = corpus.walk2()
    grothendieck(two_point)  # fills ``_scratch``, which equality and repr ignore
    comorphic = is_comorphism(SiteFunctor(identity_functor(walk2), sier, sier))
    twofold = {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}}
    pairs = [
        (walk2, w2, "objects"),
        (identity_functor(walk2), identity_functor(w2), "obj_map"),
        (sier, corpus.sier(w2), "least"),
        (validate_presheaf(walk2, *twofold), validate_presheaf(w2, *twofold), "values"),
        (two_point, corpus.two_point(w2), "fiber"),
        (comorphic, is_comorphism(SiteFunctor(identity_functor(w2), sier, sier)), "ok"),
    ]
    for record, equal, name in pairs:
        assert record is not equal and record == equal, type(record)
        with pytest.raises(AttributeError, match="cannot assign to field '{}'".format(name)):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete field '{}'".format(name)):
            delattr(record, name)
    assert hash(comorphic) == hash(pairs[-1][1])
    assert repr(two_point) == repr(corpus.two_point(w2)) and "_scratch" not in repr(two_point)
    assert comorphic != is_comorphism(SiteFunctor(identity_functor(walk2), trivial_topology(walk2), sier))
    with pytest.raises(TypeError, match="unhashable"):
        hash(identity_functor(walk2))
    # the strings the dataclass versions of these records printed
    assert repr(identity_functor(walk2)) == "FinFunctor(2 -> 2)"
    assert repr(comorphic) == (
        "Verdict(ok=True, rule='comorphism', witness=(), trace=(('a', ('id_a',), ('id_a',)), ('b', ('u',), ('u',))))"
    )
    assert repr(is_comorphism(SiteFunctor(identity_functor(walk2), trivial_topology(walk2), sier))) == (
        "Verdict(ok=False, rule='comorphism', witness=('b', ('u',)), trace=())"
    )
    assert repr(sier) == (
        "Topology(base=FinCategory(2 objects, 3 arrows), least={'a': frozenset({'id_a'}), 'b': frozenset({'u'})})"
    )

    # every record: its constructor takes its fields in order, positionally
    # or by keyword, and nothing else
    samples = _record_samples(walk2, sier, two_point)
    assert sorted(type(r).__qualname__ for r in samples) == sorted(c.__qualname__ for c in _record_classes())
    for record in samples:
        cls, fields = type(record), type(record)._fields
        parameters = inspect.signature(cls).parameters.values()
        assert [p.name for p in parameters] == list(fields), cls
        values = [getattr(record, name) for name in fields]
        assert cls(*values) == record == cls(**dict(zip(fields, values))), cls
        with pytest.raises(TypeError):
            cls(*values, None)
        if all(p.default is p.empty for p in parameters):
            with pytest.raises(TypeError):
                cls(*values[:-1])
        if cls is not Workspace:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(record, fields[0], None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(record, fields[0])
