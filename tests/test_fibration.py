import pytest

from finsite import corpus
from finsite.fincat import (
    StructureError,
    compose_functors,
    constant_functor,
    functor_equal,
    identity_functor,
    identity_transform,
    is_equivalence,
    terminal_category,
    validate_functor,
)
from finsite.fibration import (
    compose_direct_images,
    compose_inverse_images,
    direct_image,
    fiber_functor,
    giraud_topology,
    grothendieck,
    inverse_image_adjoint,
    is_cartesian_fibration,
    is_fibration,
    is_morphism_of_fibrations,
    make_bundle,
    pair_obj,
    q_reflects_cartesian,
    structure_functor,
    total_functor,
    validate_indexed,
    validate_indexed_morphism,
)
from finsite.generate import (
    Caps,
    _rng,
    constant_indexed,
    gen_galois,
    gen_galois_into,
    graded_chain_indexed,
    representable_indexed,
)
from finsite.sieves import maximal_sieve, trivial_topology


def constant_one_indexed(base):
    return constant_indexed(base, terminal_category())


def test_grothendieck_constant_one_fibers_is_the_base(walk2):
    bundle = grothendieck(constant_one_indexed(walk2))
    assert len(bundle.total.objects) == len(walk2.objects)
    assert len(bundle.total.arrows) == len(walk2.arrows)
    ok, _ = is_fibration(bundle)
    assert ok


def test_grothendieck_two_point(two_point):
    bundle = grothendieck(two_point)
    assert len(bundle.total.objects) == 3
    non_id = [a for a in bundle.total.arrows if not bundle.total.is_identity(a)]
    assert len(non_id) == 2
    assert all(a in bundle.cartesian for a in non_id)


def test_non_iso_vertical_arrow_is_not_cartesian(walk2):
    # fiber over b is itself walk2-shaped, so (u, id_b) is vertical and not iso
    fib_b = corpus.walk2()
    fib_a = terminal_category()
    cix = validate_indexed(
        walk2,
        {"a": fib_a, "b": fib_b},
        {"u": constant_functor(fib_b, fib_a, "*")},
    )
    bundle = grothendieck(cix)
    vertical = "(u,id_b):(a,b)->(b,b)"
    assert vertical in bundle.total.arrows
    assert vertical not in bundle.cartesian
    assert bundle.total.identity[pair_obj("a", "b")] in bundle.cartesian


def test_is_fibration_finds_missing_lift(walk2, one):
    bundle = make_bundle(one, corpus.pick(walk2, "b"))
    ok, witness = is_fibration(bundle)
    assert not ok
    assert witness[1][0] == "u"


def test_codomain_projection_of_walk2_arrow_category_is_a_fibration(walk2):
    # lifts are pullback squares; the needed pullbacks all exist in walk2
    from finsite.fincat import arrow_category

    ac = arrow_category(walk2)
    bundle = make_bundle(ac.category, ac.cod)
    ok, witness = is_fibration(bundle)
    assert ok, witness


def test_street_mode_accepts_iso_relabelled_lift():
    # base with an isomorphism: strict lifts over one leg, street over both
    iso2 = corpus.iso2()
    cix = constant_one_indexed(iso2)
    bundle = grothendieck(cix)
    assert is_fibration(bundle, "strict")[0]
    assert is_fibration(bundle, "street")[0]


def test_street_and_strict_modes_genuinely_differ(one):
    # One over iso2 at y: the arrow j: z -> y has no lift lying exactly over
    # it, but the identity lift works after twisting by the iso y ~ z
    iso2 = corpus.iso2()
    bundle = make_bundle(one, corpus.pick(iso2, "y"))
    strict_ok, witness = is_fibration(bundle, "strict")
    assert not strict_ok
    assert witness[1][0] == "j"
    street_ok, _ = is_fibration(bundle, "street")
    assert street_ok


def test_morphism_of_fibrations_identity_square(two_point):
    bundle = grothendieck(two_point)
    ident = identity_functor(bundle.total)
    base_ident = identity_functor(bundle.base)
    square = identity_transform(bundle.projection)
    ok, witness = is_morphism_of_fibrations(ident, base_ident, bundle, bundle, square)
    assert ok, witness


def test_collapse_breaking_cartesian_arrows_is_rejected(two_point, walk2, one):
    src = grothendieck(two_point)
    walk2_over_one = validate_indexed(one, {"*": walk2}, {})
    tgt = grothendieck(walk2_over_one)
    a_fun = validate_functor(
        {"(y,a)": "(a,*)", "(x0,b)": "(b,*)", "(x1,b)": "(b,*)"},
        {
            src.total.identity["(y,a)"]: tgt.total.identity["(a,*)"],
            src.total.identity["(x0,b)"]: tgt.total.identity["(b,*)"],
            src.total.identity["(x1,b)"]: tgt.total.identity["(b,*)"],
            "(id_y,u):(y,a)->(x0,b)": "(u,id_*):(a,*)->(b,*)",
            "(id_y,u):(y,a)->(x1,b)": "(u,id_*):(a,*)->(b,*)",
        },
        src.total,
        tgt.total,
    )
    bang = corpus.bang(walk2)
    square = identity_transform(compose_functors(bang, src.projection))
    ok, witness = is_morphism_of_fibrations(a_fun, bang, src, tgt, square)
    assert not ok
    assert witness[0] == "cartesian_broken"


def test_fiber_functor_of_direct_image_is_iso(two_point, walk2, one):
    di = direct_image(two_point, corpus.pick(walk2, "b"))
    fn = fiber_functor(di.q, corpus.pick(walk2, "b"), di.source, di.target, "*")
    ok, _ = is_equivalence(fn)
    assert ok


def test_fiber_functor_of_collapse_is_constant(two_point, walk2):
    tgt_cix = constant_one_indexed(walk2)
    src = grothendieck(two_point)
    tgt = grothendieck(tgt_cix)
    comps = {c: constant_functor(two_point.fiber[c], terminal_category(), "*") for c in walk2.objects}
    morphism = validate_indexed_morphism(two_point, tgt_cix, comps)
    a_fun = total_functor(morphism, src, tgt)
    fn = fiber_functor(a_fun, identity_functor(walk2), src, tgt, "b")
    assert set(fn.obj_map.values()) == {"*"}


def test_giraud_of_trivial_topology_is_trivial(two_point, walk2):
    gir = giraud_topology(two_point, trivial_topology(walk2))
    bundle = grothendieck(two_point)
    assert gir == trivial_topology(bundle.total)


def test_giraud_two_point_sier_by_hand(two_point, sier):
    bundle = grothendieck(two_point)
    gir = giraud_topology(two_point, sier, bundle)
    for x in ("x0", "x1"):
        obj = pair_obj(x, "b")
        lift = "(id_y,u):(y,a)->({},b)".format(x)
        assert gir.covers[obj] == frozenset(
            {frozenset({lift}), maximal_sieve(bundle.total, obj).arrows}
        )
    assert gir.covers[pair_obj("y", "a")] == frozenset(
        {maximal_sieve(bundle.total, pair_obj("y", "a")).arrows}
    )


def test_giraud_constant_fibers_transports_the_base_topology(walk2, sier, map_topology):
    cix = constant_one_indexed(walk2)
    bundle = grothendieck(cix)
    iso = validate_functor(
        {c: pair_obj("*", c) for c in walk2.objects},
        {
            a: "(id_*,{}):{}->{}".format(a, pair_obj("*", walk2.src[a]), pair_obj("*", walk2.tgt[a]))
            for a in walk2.arrows
        },
        walk2,
        bundle.total,
    )
    assert giraud_topology(cix, sier, bundle) == map_topology(iso, sier)


def test_direct_image_identity(two_point, walk2):
    di = direct_image(two_point, identity_functor(walk2))
    assert functor_equal(di.q, identity_functor(di.source.total))


def test_direct_image_pick_b(two_point, walk2, one):
    di = direct_image(two_point, corpus.pick(walk2, "b"))
    assert di.indexed.fiber["*"] == two_point.fiber["b"]
    assert len(di.source.total.objects) == 2


def test_direct_image_along_bang_gives_constant_fibers(walk2, one):
    over_one = validate_indexed(one, {"*": corpus.discrete(("p", "q"))}, {})
    di = direct_image(over_one, corpus.bang(walk2))
    assert all(di.indexed.fiber[c] == over_one.fiber["*"] for c in walk2.objects)


def test_q_reflects_cartesian_on_examples(two_point, walk2, one):
    assert q_reflects_cartesian(direct_image(two_point, identity_functor(walk2)))[0]
    assert q_reflects_cartesian(direct_image(two_point, corpus.pick(walk2, "b")))[0]


def test_inverse_image_identity_adjunction(walk2):
    ident = identity_functor(walk2)
    unit = {c: walk2.identity[c] for c in walk2.objects}
    adj = corpus.validate_adjunction(ident, ident, unit, unit)
    cix = constant_one_indexed(walk2)
    inv = inverse_image_adjoint(cix, adj)
    assert inv.adjunction_ok
    assert functor_equal(inv.q, identity_functor(inv.source.total))
    assert functor_equal(inv.comparison, identity_functor(inv.source.total))


def test_inverse_image_constant_over_walk2(one, walk2):
    adj = corpus.walk2_terminal_adjunction()
    fib = corpus.discrete(("p", "q"))
    cix = validate_indexed(one, {"*": fib}, {})
    inv = inverse_image_adjoint(cix, adj)
    assert inv.adjunction_ok
    assert all(inv.indexed.fiber[d] == fib for d in walk2.objects)
    # comparison is the fiber inclusion at b
    assert inv.comparison.obj_map == {"(p,*)": "(p,b)", "(q,*)": "(q,b)"}


def test_inverse_image_rejects_invalid_adjunction(one, walk2):
    from finsite.fincat import Adjunction

    bang = corpus.bang(walk2)
    pick_a = corpus.pick(walk2, "a")
    bogus = Adjunction(bang, pick_a, {"a": "id_a", "b": "id_b"}, {"*": "id_*"})
    cix = validate_indexed(one, {"*": terminal_category()}, {})
    with pytest.raises(StructureError, match="adjunction data invalid"):
        inverse_image_adjoint(cix, bogus)


def test_comparison_is_the_slice_functor_on_representables():
    """With a representable indexed category, the adjoint comparison is the
    slice functor [u] |-> [right(u)] after transposing the inverse image's
    fibers along the adjunction."""
    rng = _rng(7)
    adj = None
    while adj is None:
        adj = gen_galois(rng, Caps(base_objects=3))
    base = adj.left.target
    dcat = adj.left.source
    c0 = sorted(base.objects)[-1]
    cix = representable_indexed(base, c0)
    inv = inverse_image_adjoint(cix, adj)
    assert inv.adjunction_ok
    slice_ix = representable_indexed(dcat, adj.right.ob(c0))
    slice_total = grothendieck(slice_ix)
    src_total = inv.source.total

    def transpose(u, d):
        # u: left(d) -> c0 corresponds to right(u) . unit_d : d -> right(c0)
        return dcat.compose(adj.right.ar(u), adj.unit[d])

    obj_map = {name: pair_obj(transpose(u, d), d) for name, (u, d) in inv.source.obj_pair.items()}
    arr_map = {}
    for name, (v, g) in inv.source.arr_pair.items():
        o1, o2 = src_total.src[name], src_total.tgt[name]
        # representable fibers are discrete, so the vertical part is an identity
        x1 = slice_total.obj_pair[obj_map[o1]][0]
        d1 = slice_total.obj_pair[obj_map[o1]][1]
        vert = slice_ix.fiber[d1].identity[x1]
        arr_map[name] = "({},{}):{}->{}".format(vert, g, obj_map[o1], obj_map[o2])
    transpose_iso = validate_functor(obj_map, arr_map, src_total, slice_total.total)
    ok, _ = is_equivalence(transpose_iso)
    assert ok
    composed = compose_functors(transpose_iso, inv.comparison)
    expected = {
        name: pair_obj(adj.right.ar(u), adj.right.ob(c))
        for name, (u, c) in inv.target.obj_pair.items()
    }
    assert {k: composed.ob(k) for k in inv.target.obj_pair} == expected


def test_compose_direct_images_table_exact(two_point, walk2, one):
    result = compose_direct_images(two_point, identity_functor(one), corpus.pick(walk2, "b"))
    assert result.mode == "direct"
    assert result.equal


def test_compose_inverse_images_identity_iso():
    rng = _rng(11)
    adj_inner = None
    while adj_inner is None:
        adj_inner = gen_galois(rng, Caps(base_objects=3))
    adj_outer = None
    while adj_outer is None:
        adj_outer = gen_galois_into(rng, Caps(base_objects=3), adj_inner.left.source)
    cix = representable_indexed(adj_inner.left.target, sorted(adj_inner.left.target.objects)[0])
    result = compose_inverse_images(cix, adj_inner, adj_outer)
    assert result.equal
    assert all(
        result.composite.target.is_identity(a) for a in result.iso.values()
    )


def test_is_cartesian_fibration_examples(two_point, walk2):
    assert is_cartesian_fibration(grothendieck(constant_one_indexed(walk2)))[0]
    ok, witness = is_cartesian_fibration(grothendieck(two_point))
    assert not ok
    assert witness[0] == "fiber"


def test_graded_chain_indexed_is_cartesian():
    from finsite.generate import _chain

    rng = _rng(3)
    base = _chain(3, "c")
    cix = graded_chain_indexed(rng, base, 3)
    assert is_cartesian_fibration(grothendieck(cix))[0]


def test_structure_functor_identity_adjunction(walk2):
    ident = identity_functor(walk2)
    unit = {c: walk2.identity[c] for c in walk2.objects}
    adj = corpus.validate_adjunction(ident, ident, unit, unit)
    cix = constant_one_indexed(walk2)
    stf = structure_functor(cix, adj)
    assert functor_equal(stf.composite, identity_functor(grothendieck(cix).total))


def test_structure_functor_is_fiber_inclusion(one, walk2):
    adj = corpus.walk2_terminal_adjunction()
    fib = corpus.discrete(("p", "q"))
    cix = validate_indexed(one, {"*": fib}, {})
    stf = structure_functor(cix, adj)
    assert stf.composite.obj_map == {"(p,*)": "(p,b)", "(q,*)": "(q,b)"}
    assert functor_equal(stf.composite, stf.inverse.comparison)
