import gc
import weakref

import pytest

from finsite import corpus, fibration
from finsite.fincat import (
    FinFunctor,
    StructureError,
    arrow_category,
    compose_functors,
    constant_functor,
    identity_functor,
    is_equivalence,
    terminal_category,
    validate_functor,
)
from finsite.fibration import (
    FibrationBundle,
    arrow_is_cartesian,
    compose_direct_images,
    compose_inverse_images,
    direct_image,
    giraud_topology,
    grothendieck,
    inverse_image_adjoint,
    is_cartesian_fibration,
    is_fibration,
    is_morphism_of_fibrations,
    pair_arr,
    pair_obj,
    q_reflects_cartesian,
    structure_functor,
    total_functor,
    validate_indexed,
    validate_indexed_morphism,
)
from finsite.generate import (
    Caps,
    GenerationError,
    _rng,
    collapse_morphism,
    constant_indexed,
    derive_seed,
    gen_category,
    gen_fibration,
    gen_functor,
    gen_galois,
    gen_galois_into,
    gen_indexed,
    gen_indexed_morphism,
    gen_poset,
    gen_site,
    generate_instance,
    graded_chain_indexed,
    representable_indexed,
    _chain,
    _chain_map,
)
from finsite.limits import (
    finite_limits,
    is_equalizer_cone,
    is_product_cone,
    is_terminal,
    preserves_cones,
    reflects_limits_jointly,
)
from finsite.sieves import CapExceeded, maximal_sieve, trivial_topology


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
    bundle = FibrationBundle(one, corpus.pick(walk2, "b"), None, None)
    ok, witness = is_fibration(bundle)
    assert not ok
    assert witness[1][0] == "u"


def test_codomain_projection_of_walk2_arrow_category_is_a_fibration(walk2):
    # lifts are pullback squares; the needed pullbacks all exist in walk2
    from finsite.fincat import arrow_category

    ac = arrow_category(walk2)
    bundle = FibrationBundle(ac.category, ac.cod, None, None)
    ok, witness = is_fibration(bundle)
    assert ok, witness


def reference_is_street_fibration(bundle):
    """The up-to-iso (Street 1980) lifting condition: every base arrow f into
    a projected object has a cartesian lift whose image is f . sigma for some
    iso sigma.  ``is_fibration`` asks for sigma = id."""
    total, proj, base = bundle.total, bundle.projection, bundle.base
    for d in total.objects:
        for f in base.into(proj.ob(d)):
            if not any(
                base.is_iso(sigma) and base.compose(f, sigma) == proj.ar(lift)
                for lift in total.into(d)
                if lift in bundle.cartesian
                for sigma in base.hom(proj.ob(total.src[lift]), base.src[f])
            ):
                return False
    return True


def test_street_mode_accepts_iso_relabelled_lift():
    # base with an isomorphism: strict lifts over one leg, street over both
    iso2 = corpus.iso2()
    cix = constant_one_indexed(iso2)
    bundle = grothendieck(cix)
    assert is_fibration(bundle)[0]
    assert reference_is_street_fibration(bundle)


def test_street_and_strict_modes_genuinely_differ(one):
    # One over iso2 at y: the arrow j: z -> y has no lift lying exactly over
    # it, but the identity lift works after twisting by the iso y ~ z
    iso2 = corpus.iso2()
    bundle = FibrationBundle(one, corpus.pick(iso2, "y"), None, None)
    strict_ok, witness = is_fibration(bundle)
    assert not strict_ok
    assert witness[1][0] == "j"
    assert reference_is_street_fibration(bundle)


def test_strict_lifts_are_street_lifts_on_generated_fibrations():
    # a lift lying exactly over f is a Street lift with sigma = id, so every
    # grothendieck bundle, which is a strict fibration, is a Street one
    checked = 0
    for seed in range(40):
        bundle = grothendieck(generate_instance("fibration", derive_seed(3, seed), Caps())["indexed"])
        assert is_fibration(bundle)[0]
        assert reference_is_street_fibration(bundle)
        checked += any(bundle.base.is_iso(f) and not bundle.base.is_identity(f) for f in bundle.base.arrows)
    assert checked > 0


def test_morphism_of_fibrations_identity_square(two_point):
    bundle = grothendieck(two_point)
    ident = identity_functor(bundle.total)
    base_ident = identity_functor(bundle.base)
    ok, witness = is_morphism_of_fibrations(ident, base_ident, bundle, bundle)
    assert ok, witness


def test_morphism_of_fibrations_needs_a_commuting_square(walk2):
    # the identity on the total of one-point fibers over walk2, against the
    # base endofunctor sending both objects to b: the square commutes at b only
    bundle = grothendieck(constant_one_indexed(walk2))
    to_b = compose_functors(corpus.pick(walk2, "b"), corpus.bang(walk2))
    ok, witness = is_morphism_of_fibrations(identity_functor(bundle.total), to_b, bundle, bundle)
    assert not ok
    assert witness[0] == "square_not_commuting"
    assert bundle.projection.ob(bundle.total.src[witness[1]]) == "a"


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
    ok, witness = is_morphism_of_fibrations(a_fun, corpus.bang(walk2), src, tgt)
    assert not ok
    assert witness[0] == "cartesian_broken"


def fiber_functor(a_fun, b_fun, src_cix, tgt_cix, c):
    """Restriction to the fiber over c of a functor between the Grothendieck
    constructions of ``src_cix`` and ``tgt_cix`` whose square with ``b_fun``
    commutes strictly."""
    src, tgt = grothendieck(src_cix), grothendieck(tgt_cix)
    if compose_functors(tgt.projection, a_fun) != compose_functors(b_fun, src.projection):
        raise StructureError("square must commute strictly for fiber restriction")
    fib = src_cix.fiber[c]
    obj_map = {}
    for x in fib.objects:
        y, bc = tgt.obj_pair[a_fun.ob(pair_obj(x, c))]
        assert bc == b_fun.ob(c)
        obj_map[x] = y
    arr_map = {}
    idc = src.base.identity[c]
    for u in fib.arrows:
        o1 = pair_obj(fib.src[u], c)
        o2 = pair_obj(fib.tgt[u], c)
        v, g = tgt.arr_pair[a_fun.ar(pair_arr(u, idc, o1, o2))]
        if not tgt.base.is_identity(g):
            raise StructureError("functor does not preserve verticality at {}".format(u), witness=u)
        arr_map[u] = v
    return validate_functor(obj_map, arr_map, fib, tgt_cix.fiber[b_fun.ob(c)])


def test_fiber_functor_of_direct_image_is_iso(two_point, walk2, one):
    di = direct_image(two_point, corpus.pick(walk2, "b"))
    fn = fiber_functor(di.q, corpus.pick(walk2, "b"), di.indexed, two_point, "*")
    ok, _ = is_equivalence(fn)
    assert ok


def test_fiber_functor_of_collapse_is_constant(two_point, walk2):
    tgt_cix = constant_one_indexed(walk2)
    comps = {c: constant_functor(two_point.fiber[c], terminal_category(), "*") for c in walk2.objects}
    morphism = validate_indexed_morphism(two_point, tgt_cix, comps)
    a_fun = total_functor(morphism)
    fn = fiber_functor(a_fun, identity_functor(walk2), two_point, tgt_cix, "b")
    assert set(fn.obj_map.values()) == {"*"}


def test_giraud_of_trivial_topology_is_trivial(two_point, walk2):
    gir = giraud_topology(two_point, trivial_topology(walk2))
    bundle = grothendieck(two_point)
    assert gir == trivial_topology(bundle.total)


def test_giraud_two_point_sier_by_hand(two_point, sier):
    bundle = grothendieck(two_point)
    gir = giraud_topology(two_point, sier)
    for x in ("x0", "x1"):
        obj = pair_obj(x, "b")
        lift = "(id_y,u):(y,a)->({},b)".format(x)
        assert gir.covers[obj] == frozenset(
            {frozenset({lift}), maximal_sieve(bundle.total, obj)}
        )
    assert gir.covers[pair_obj("y", "a")] == frozenset(
        {maximal_sieve(bundle.total, pair_obj("y", "a"))}
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
    assert giraud_topology(cix, sier) == map_topology(iso, sier)


def test_direct_image_identity(two_point, walk2):
    di = direct_image(two_point, identity_functor(walk2))
    assert di.q == identity_functor(di.source.total)


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
    assert inv.q == identity_functor(inv.source.total)
    assert inv.comparison == identity_functor(inv.source.total)


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
    adj = gen_galois(_rng(7), Caps(base_objects=3))
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
    assert compose_direct_images(two_point, identity_functor(one), corpus.pick(walk2, "b"))


def test_compose_inverse_images_identity_iso():
    rng = _rng(11)
    adj_inner = gen_galois(rng, Caps(base_objects=3))
    adj_outer = gen_galois_into(rng, Caps(base_objects=3), adj_inner.left.source)
    cix = representable_indexed(adj_inner.left.target, sorted(adj_inner.left.target.objects)[0])
    assert compose_inverse_images(cix, adj_inner, adj_outer)


def test_is_cartesian_fibration_examples(two_point, walk2):
    assert is_cartesian_fibration(constant_one_indexed(walk2))[0]
    ok, witness = is_cartesian_fibration(two_point)
    assert not ok
    assert witness[0] == "fiber"


def test_graded_chain_indexed_is_cartesian():
    rng = _rng(3)
    base = _chain(3, "c")
    cix = graded_chain_indexed(rng, base, 3)
    assert is_cartesian_fibration(cix)[0]


def test_structure_functor_identity_adjunction(walk2):
    ident = identity_functor(walk2)
    unit = {c: walk2.identity[c] for c in walk2.objects}
    adj = corpus.validate_adjunction(ident, ident, unit, unit)
    cix = constant_one_indexed(walk2)
    stf = structure_functor(cix, adj)
    assert stf.composite == identity_functor(grothendieck(cix).total)


def test_structure_functor_is_fiber_inclusion(one, walk2):
    adj = corpus.walk2_terminal_adjunction()
    fib = corpus.discrete(("p", "q"))
    cix = validate_indexed(one, {"*": fib}, {})
    stf = structure_functor(cix, adj)
    assert stf.composite.obj_map == {"(p,*)": "(p,b)", "(q,*)": "(q,b)"}
    assert stf.composite == stf.inverse.comparison


# ---------------------------------------------------------------------------
# Differential oracles: the searches that the kernel replaced


def reference_arrow_is_cartesian(total, proj, f):
    """Unique lifting checked triple by triple: for every d'', g: d'' -> tgt f
    and h over p with p(f).h = p(g), the lifts are listed by a scan of
    hom(d'', src f)."""
    base = proj.target
    d_prime, d = total.src[f], total.tgt[f]
    pf = proj.ar(f)
    for d2 in total.objects:
        homs = total.hom(d2, d_prime)
        for g in total.hom(d2, d):
            pg = proj.ar(g)
            for h in base.hom(proj.ob(d2), proj.ob(d_prime)):
                if base.compose(pf, h) != pg:
                    continue
                lifts = [h2 for h2 in homs if proj.ar(h2) == h and total.compose(f, h2) == g]
                if len(lifts) != 1:
                    return False
    return True


def reference_cartesian_table(bundle):
    """The cartesian table, decided for every arrow as bundles once did when built."""
    total, proj = bundle.total, bundle.projection
    return frozenset(a for a in total.arrows if arrow_is_cartesian(total, proj, a))


def reference_validate_indexed(base, fiber, restriction):
    """Strict functoriality checked on composed functor objects."""
    fiber = dict(fiber)
    restriction = dict(restriction)
    for c in base.objects:
        if c not in fiber:
            raise StructureError("missing fiber over {}".format(c), witness=c)
    for f in base.arrows:
        if base.is_identity(f):
            restriction.setdefault(f, identity_functor(fiber[base.src[f]]))
    for f in base.arrows:
        r = restriction.get(f)
        if r is None:
            raise StructureError("missing restriction along {}".format(f), witness=f)
        if r.source != fiber[base.tgt[f]] or r.target != fiber[base.src[f]]:
            raise StructureError("restriction along {} has wrong endpoints".format(f), witness=f)
    for c in base.objects:
        if restriction[base.identity[c]] != identity_functor(fiber[c]):
            raise StructureError("restriction along id_{} is not the identity".format(c), witness=c)
    for (g, f), h in base.table.items():
        lhs = compose_functors(restriction[f], restriction[g])
        if lhs != restriction[h]:
            raise StructureError(
                "restrictions not strictly functorial on ({}, {})".format(g, f), witness=(g, f)
            )


def cartesian_table_cases(draws):
    """Bundles from the corpus, plus fuzzed fibrations, direct images and
    inverse images (their source and target bundles)."""
    walk2 = corpus.walk2()
    arrows = arrow_category(walk2)
    yield grothendieck(corpus.two_point())
    yield grothendieck(constant_one_indexed(corpus.iso2()))
    yield FibrationBundle(arrows.category, arrows.cod, None, None)
    yield FibrationBundle(corpus.one(), corpus.pick(corpus.iso2(), "y"), None, None)
    yield direct_image(corpus.two_point(walk2), corpus.pick(walk2, "b")).source
    yield inverse_image_adjoint(constant_indexed(corpus.one(), corpus.discrete(("p", "q"))), corpus.walk2_terminal_adjunction()).source
    caps = Caps(base_objects=3, fiber_objects=3)
    for index in range(draws):
        rng = _rng(derive_seed(5, index))
        try:
            yield grothendieck(generate_instance("fibration", derive_seed(6, index), caps)["indexed"])
            dix, _ = gen_fibration(rng, caps)
            src, _ = gen_site(rng, caps)
            try:
                fn = gen_functor(rng, src, dix.base)
            except GenerationError:
                pass
            else:
                di = direct_image(dix, fn)
                yield di.source
                yield di.target
            adj = gen_galois(rng, caps)
            yield inverse_image_adjoint(gen_indexed(rng, adj.left.target, caps), adj).source
        except (GenerationError, CapExceeded):
            continue


def test_cartesian_tables_match_the_triple_by_triple_search():
    cartesian = not_cartesian = 0
    for bundle in cartesian_table_cases(100):
        total, proj = bundle.total, bundle.projection
        expected = frozenset(a for a in total.arrows if reference_arrow_is_cartesian(total, proj, a))
        assert bundle.cartesian == expected == reference_cartesian_table(bundle)
        cartesian += len(expected)
        not_cartesian += len(total.arrows) - len(expected)
    assert cartesian > 100 and not_cartesian > 100, (cartesian, not_cartesian)


def swap(cat):
    """The automorphism of a two-object discrete category exchanging its objects."""
    x, y = cat.objects
    return validate_functor({x: y, y: x}, {cat.identity[x]: cat.identity[y], cat.identity[y]: cat.identity[x]}, cat, cat)


def discrete_map(src, tgt, obj_map):
    return validate_functor(obj_map, {src.identity[x]: tgt.identity[y] for x, y in obj_map.items()}, src, tgt)


def broken_restriction_tables():
    """(base, fiber, restriction) over chain3 with two-point discrete fibers,
    each failing validate_indexed in a different place, and one valid."""
    chain = corpus.chain3()
    pair = corpus.discrete(("p", "q"))
    fiber = {c: pair for c in chain.objects}
    ident = identity_functor(pair)
    valid = {a: ident for a in chain.arrows if not chain.is_identity(a)}
    with_extra_key = FinFunctor(pair, pair, {"p": "p", "q": "q", "r": "r"}, dict(ident.arr_map))
    collapse = discrete_map(pair, pair, {"p": "p", "q": "p"})
    return {
        "valid": (chain, fiber, valid),
        "twisted-composite": (chain, fiber, {**valid, "a0->a2": swap(pair)}),
        "twisted-factor": (chain, fiber, {**valid, "a1->a2": swap(pair)}),
        "collapsed-factor": (chain, fiber, {**valid, "a0->a1": collapse}),
        "identity-swapped": (chain, fiber, {**valid, "id_a1": swap(pair)}),
        "identity-with-extra-key": (chain, fiber, {**valid, "id_a0": with_extra_key}),
        "restriction-with-extra-key": (chain, fiber, {**valid, "a1->a2": with_extra_key}),
        "wrong-endpoints": (chain, {**fiber, "a0": corpus.discrete(("p",))}, valid),
    }


def validation_outcome(validate, base, fiber, restriction):
    try:
        validate(base, fiber, restriction)
    except StructureError as err:
        return str(err), err.witness
    return None


@pytest.mark.parametrize("case", sorted(broken_restriction_tables()))
def test_validate_indexed_matches_the_composed_functor_check(case):
    base, fiber, restriction = broken_restriction_tables()[case]
    expected = validation_outcome(reference_validate_indexed, base, fiber, restriction)
    assert (expected is None) == (case == "valid")
    assert validation_outcome(validate_indexed, base, fiber, restriction) == expected


def test_validate_indexed_matches_the_composed_functor_check_on_random_tables():
    """Random restrictions between discrete fibers over fuzzed posets: the
    first witness (or acceptance) agrees with the composed-functor check."""
    outcomes = set()
    for index in range(150):
        rng = _rng(derive_seed(8, index))
        base = gen_poset(rng, 3)
        fiber = {c: corpus.discrete(tuple("xyz"[: rng.randint(1, 2)])) for c in base.objects}
        restriction = {}
        for a in base.arrows:
            src, tgt = fiber[base.tgt[a]], fiber[base.src[a]]
            if base.is_identity(a) and rng.random() < 0.7:
                continue
            restriction[a] = discrete_map(src, tgt, {x: rng.choice(tgt.objects) for x in src.objects})
        expected = validation_outcome(reference_validate_indexed, base, fiber, restriction)
        assert validation_outcome(validate_indexed, base, fiber, restriction) == expected
        outcomes.add(expected and expected[0].split(" ")[0])
    assert {None, "restrictions", "restriction"} <= outcomes, outcomes


# ---------------------------------------------------------------------------
# One total category per indexed category


def test_grothendieck_is_built_once_per_indexed_category(two_point):
    assert grothendieck(two_point) is grothendieck(two_point)
    copy = validate_indexed(two_point.base, two_point.fiber, two_point.restriction)
    assert copy == two_point
    assert grothendieck(copy) is not grothendieck(two_point)
    assert grothendieck(copy).total == grothendieck(two_point).total


def test_direct_image_targets_the_memoised_bundle(two_point, walk2):
    di = direct_image(two_point, corpus.pick(walk2, "b"))
    assert di.target is grothendieck(two_point)
    assert di.source is grothendieck(di.indexed)


def test_giraud_topology_matches_the_bundle_passing_result(two_point, sier):
    fresh = grothendieck(validate_indexed(two_point.base, two_point.fiber, two_point.restriction))
    assert fresh is not grothendieck(two_point)
    assert giraud_topology(two_point, sier) == giraud_topology(two_point, sier, fresh)


def test_grothendieck_memo_is_freed_with_its_indexed_category(walk2):
    # the bundle kept on the indexed category must not point back at it, or
    # only the cycle collector could free the pair
    cix = constant_one_indexed(walk2)
    bundle = weakref.ref(grothendieck(cix))
    gc.disable()
    try:
        del cix
        assert bundle() is None
    finally:
        gc.enable()


def reference_reflects_limits_jointly(functor, base_proj):
    """``limits.reflects_limits_jointly`` before it decided each image cone
    once per call: every cone upstairs decides its images again."""
    src, tgt = functor.source, functor.target
    base = base_proj.target
    for t in src.objects:
        if is_terminal(tgt, functor.ob(t)) and is_terminal(base, base_proj.ob(t)) and not is_terminal(src, t):
            return False, ("terminal_not_reflected", t)
    for x in src.objects:
        for y in src.objects:
            for apex in src.objects:
                for p1 in src.hom(apex, x):
                    for p2 in src.hom(apex, y):
                        if (
                            is_product_cone(
                                tgt, functor.ob(x), functor.ob(y), functor.ob(apex), functor.ar(p1), functor.ar(p2)
                            )
                            and is_product_cone(
                                base,
                                base_proj.ob(x),
                                base_proj.ob(y),
                                base_proj.ob(apex),
                                base_proj.ar(p1),
                                base_proj.ar(p2),
                            )
                            and not is_product_cone(src, x, y, apex, p1, p2)
                        ):
                            return False, ("product_not_reflected", (x, y, apex, p1, p2))
    for f in src.arrows:
        for g in src.arrows:
            if src.src[f] != src.src[g] or src.tgt[f] != src.tgt[g]:
                continue
            for apex in src.objects:
                for m in src.hom(apex, src.src[f]):
                    if (
                        is_equalizer_cone(tgt, functor.ar(f), functor.ar(g), functor.ob(apex), functor.ar(m))
                        and is_equalizer_cone(
                            base, base_proj.ar(f), base_proj.ar(g), base_proj.ob(apex), base_proj.ar(m)
                        )
                        and not is_equalizer_cone(src, f, g, apex, m)
                    ):
                        return False, ("equalizer_not_reflected", (f, g, apex, m))
    return True, ()


def prop29_inputs(seed, count):
    """The (indexed category, base functor) pairs that prop-2.9-cartesian
    checks on its first ``count`` instances at ``seed`` and the default caps."""
    caps = Caps()
    for i in range(count):
        rng = _rng(derive_seed(seed, i))
        base_objects, fiber_objects = min(3, caps.base_objects), min(3, caps.fiber_objects)
        tgt_size = rng.randint(1, base_objects)
        src_size = rng.randint(1, base_objects)
        tgt, src = _chain(tgt_size, "d"), _chain(src_size, "c")
        fn = _chain_map(rng, src_size, tgt_size, src, tgt)
        yield graded_chain_indexed(rng, tgt, fiber_objects), fn


def prop29_direct_images(seed, count):
    """The direct images that prop-2.9-cartesian checks on its first ``count``
    instances at ``seed`` and the default caps."""
    for dix, fn in prop29_inputs(seed, count):
        yield direct_image(dix, fn)


@pytest.mark.parametrize("seed", [0, 1])
def test_reflects_limits_jointly_matches_the_reference_on_prop29_direct_images(seed):
    for di in prop29_direct_images(seed, 40):
        expected = reference_reflects_limits_jointly(di.q, di.source.projection)
        assert reflects_limits_jointly(di.q, di.source.projection) == expected


def test_reflects_limits_jointly_matches_the_reference_on_the_corpus():
    ws = corpus.corpus_workspace()
    functors = list(ws.functors.values()) + [identity_functor(cat) for cat in ws.categories.values()]
    tp = ws.indexed["twopoint"]
    for fn in ws.functors.values():
        if fn.target == tp.base:
            di = direct_image(tp, fn)
            functors += [di.q, di.source.projection]
    verdicts = set()
    for functor in functors:
        for base_proj in functors:
            if functor.source == base_proj.source:
                expected = reference_reflects_limits_jointly(functor, base_proj)
                assert reflects_limits_jointly(functor, base_proj) == expected
                verdicts.add(expected[1][0] if expected[1] else "ok")
    assert "ok" in verdicts and len(verdicts) > 1, verdicts


def test_reflects_limits_jointly_matches_the_reference_on_generated_functor_pairs():
    verdicts = set()
    for i in range(40):
        rng = _rng(derive_seed(5, i))
        src, image, base = (gen_category(rng, Caps())[0] for _ in range(3))
        try:
            functor, base_proj = gen_functor(rng, src, image), gen_functor(rng, src, base)
        except GenerationError:
            continue
        expected = reference_reflects_limits_jointly(functor, base_proj)
        assert reflects_limits_jointly(functor, base_proj) == expected
        verdicts.add(expected[1][0] if expected[1] else "ok")
    assert verdicts == {"ok", "terminal_not_reflected", "product_not_reflected", "equalizer_not_reflected"}


# ---------------------------------------------------------------------------
# Finite limits searched once per fiber, cartesian tables decided on first read


def reference_is_cartesian_fibration(cix):
    """``is_cartesian_fibration`` before fibers kept their finite limits: a
    fresh ``finite_limits`` search per fiber on every call."""
    cones = {}
    for c in cix.base.objects:
        ok, witness, found = finite_limits(cix.fiber[c])
        if not ok:
            return False, ("fiber", c) + witness
        cones[c] = found
    for f in cix.base.arrows:
        if cix.base.is_identity(f):
            continue
        ok, witness = preserves_cones(cix.restriction[f], cones[cix.base.tgt[f]])
        if not ok:
            return False, ("restriction", f) + witness
    return True, ()


def random_step_chain_indexed(rng):
    """``graded_chain_indexed`` with any monotone step maps, so restrictions
    need not keep the top (the terminal object) of their fiber."""
    base = _chain(rng.randint(2, 3), "c")
    objs = base.objects
    fibers = {c: _chain(rng.randint(1, 3), "v") for c in objs}
    steps = [gen_functor(rng, fibers[objs[i + 1]], fibers[objs[i]]) for i in range(len(objs) - 1)]
    restriction = {}
    for a in base.arrows:
        if base.is_identity(a):
            continue
        i, j = objs.index(base.src[a]), objs.index(base.tgt[a])
        fn = identity_functor(fibers[objs[j]])
        for k in range(j - 1, i - 1, -1):
            fn = compose_functors(steps[k], fn)
        restriction[a] = fn
    return validate_indexed(base, fibers, restriction)


def cartesian_fibration_cases():
    """Indexed categories whose verdicts ``ok``, ``fiber`` and ``restriction``
    are all reached: prop-2.9 inputs and their direct images, graded chains,
    the corpus, and generated indexed categories."""
    for seed in (0, 1):
        for dix, fn in prop29_inputs(seed, 40):
            yield dix
            yield direct_image(dix, fn).indexed
    for i in range(20):
        rng = _rng(derive_seed(11, i))
        yield graded_chain_indexed(rng, _chain(rng.randint(1, 3), "c"), 3)
    ws = corpus.corpus_workspace()
    tp = ws.indexed["twopoint"]
    yield tp
    for fn in ws.functors.values():
        if fn.target == tp.base:
            yield direct_image(tp, fn).indexed
    for cat in ws.categories.values():
        yield constant_one_indexed(cat)
    for i in range(60):
        rng = _rng(derive_seed(12, i))
        try:
            yield gen_fibration(rng, Caps())[0]
        except (GenerationError, CapExceeded):
            pass
        yield random_step_chain_indexed(rng)


def test_is_cartesian_fibration_matches_the_fresh_search():
    verdicts = set()
    for cix in cartesian_fibration_cases():
        expected = reference_is_cartesian_fibration(cix)
        assert is_cartesian_fibration(cix) == expected
        assert is_cartesian_fibration(cix) == expected
        sharing = validate_indexed(cix.base, cix.fiber, cix.restriction)
        assert sharing is not cix and all(sharing.fiber[c] is cix.fiber[c] for c in cix.base.objects)
        assert is_cartesian_fibration(sharing) == expected
        verdicts.add(expected[1][0] if expected[1] else "ok")
    assert verdicts == {"ok", "fiber", "restriction"}, verdicts


@pytest.mark.parametrize("seed", [0, 1])
def test_the_lazy_cartesian_table_matches_the_eager_one_on_prop29_bundles(seed):
    for di in prop29_direct_images(seed, 40):
        for bundle in (di.source, di.target):
            assert bundle.cartesian == reference_cartesian_table(bundle)


def test_the_cartesian_table_is_decided_on_first_read_only(monkeypatch, walk2, sier):
    calls = []

    def counting(total, proj, f):
        calls.append(f)
        return arrow_is_cartesian(total, proj, f)

    monkeypatch.setattr(fibration, "arrow_is_cartesian", counting)
    cix = corpus.two_point(walk2)
    bundle = grothendieck(cix)
    giraud_topology(cix, sier)
    di = direct_image(cix, corpus.pick(walk2, "b"))
    assert calls == []
    for b in (bundle, di.source):
        calls.clear()
        table = b.cartesian
        assert calls == list(b.total.arrows)
        calls.clear()
        assert b.cartesian is table and calls == []


# ---------------------------------------------------------------------------
# One builder for the functors that base change induces on total categories


def reference_total_functor(morphism, src, tgt):
    """``total_functor`` as a loop of its own: (x, c) to (A_c(x), c)."""
    obj_map = {}
    for name, (x, c) in src.obj_pair.items():
        obj_map[name] = pair_obj(morphism.components[c].ob(x), c)
    arr_map = {}
    for name, (u, f) in src.arr_pair.items():
        o1, o2 = src.total.src[name], src.total.tgt[name]
        x1, c1 = src.obj_pair[o1]
        arr_map[name] = pair_arr(morphism.components[c1].ar(u), f, obj_map[o1], obj_map[o2])
    return validate_functor(obj_map, arr_map, src.total, tgt.total)


def reference_direct_image_q(functor, src, tgt):
    """A direct image's q as a loop of its own: (x, c) to (x, F(c))."""
    obj_map = {}
    for name, (x, c) in src.obj_pair.items():
        obj_map[name] = pair_obj(x, functor.ob(c))
    arr_map = {}
    for name, (u, f) in src.arr_pair.items():
        o1, o2 = src.total.src[name], src.total.tgt[name]
        arr_map[name] = pair_arr(u, functor.ar(f), obj_map[o1], obj_map[o2])
    return validate_functor(obj_map, arr_map, src.total, tgt.total)


def reference_comparison(cix, adj, c_total, d_total):
    """An inverse image's comparison as a loop of its own: (x, c) to
    (restriction along the counit at c of x, R(c))."""
    obj_map = {}
    for name, (x, c) in c_total.obj_pair.items():
        obj_map[name] = pair_obj(cix.restriction[adj.counit[c]].ob(x), adj.right.ob(c))
    arr_map = {}
    for name, (u, f) in c_total.arr_pair.items():
        o1, o2 = c_total.total.src[name], c_total.total.tgt[name]
        c1 = c_total.obj_pair[o1][1]
        v = cix.restriction[adj.counit[c1]].ar(u)
        arr_map[name] = pair_arr(v, adj.right.ar(f), obj_map[o1], obj_map[o2])
    return validate_functor(obj_map, arr_map, c_total.total, d_total.total)


def reference_unit_leg(cix, adj, c_bundle, m_bundle):
    """The structure functor's unit leg as a loop of its own: (x, c) to
    (restriction along the counit at c of x, c)."""
    obj_map = {}
    for name, (x, c) in c_bundle.obj_pair.items():
        obj_map[name] = pair_obj(cix.restriction[adj.counit[c]].ob(x), c)
    arr_map = {}
    for name, (u, f) in c_bundle.arr_pair.items():
        o1, o2 = c_bundle.total.src[name], c_bundle.total.tgt[name]
        c1 = c_bundle.obj_pair[o1][1]
        arr_map[name] = pair_arr(cix.restriction[adj.counit[c1]].ar(u), f, obj_map[o1], obj_map[o2])
    return validate_functor(obj_map, arr_map, c_bundle.total, m_bundle.total)


def same_maps(new, old):
    return new.obj_map == old.obj_map and new.arr_map == old.arr_map


@pytest.fixture(scope="module")
def base_changes():
    """Fixed-base morphisms, (indexed, functor) pairs and (indexed, adjunction)
    pairs: the corpus ones, then generated ones."""
    walk2 = corpus.walk2()
    tp = corpus.two_point(walk2)
    morphisms = [collapse_morphism(tp)]
    direct = [(tp, corpus.pick(walk2, "b"))]
    adjoint = [(constant_indexed(corpus.one(), corpus.discrete(("p", "q"))), corpus.walk2_terminal_adjunction())]
    caps = Caps(base_objects=3, fiber_objects=3)
    for index in range(40):
        rng = _rng(derive_seed(13, index))
        cix, _ = gen_fibration(rng, caps)
        morphisms.append(gen_indexed_morphism(rng, cix, caps))
        src, _ = gen_site(rng, caps)
        try:
            direct.append((cix, gen_functor(rng, src, cix.base)))
        except GenerationError:
            pass
        try:
            adj = gen_galois(rng, caps)
        except GenerationError:
            continue
        adjoint.append((gen_indexed(rng, adj.left.target, caps), adj))
    assert min(len(morphisms), len(direct), len(adjoint)) > 20
    return morphisms, direct, adjoint


def test_total_functor_matches_the_componentwise_loop(base_changes):
    for morphism in base_changes[0]:
        src, tgt = grothendieck(morphism.source), grothendieck(morphism.target)
        assert same_maps(total_functor(morphism), reference_total_functor(morphism, src, tgt))


def test_direct_image_q_matches_the_base_functor_loop(base_changes):
    for dix, fn in base_changes[1]:
        di = direct_image(dix, fn)
        assert same_maps(di.q, reference_direct_image_q(fn, di.source, di.target))


def test_inverse_image_comparison_matches_the_counit_loop(base_changes):
    for cix, adj in base_changes[2]:
        inv = inverse_image_adjoint(cix, adj)
        assert same_maps(inv.comparison, reference_comparison(cix, adj, inv.target, inv.source))


def test_structure_functor_matches_the_unit_leg_loop_then_the_projection(base_changes):
    for cix, adj in base_changes[2]:
        stf = structure_functor(cix, adj)
        mid = direct_image(stf.inverse.indexed, adj.right)
        leg = reference_unit_leg(cix, adj, stf.inverse.target, mid.source)
        expected = compose_functors(reference_direct_image_q(adj.right, mid.source, mid.target), leg)
        assert same_maps(stf.composite, expected)
