from dataclasses import replace

import pytest

from finsite import corpus
from finsite.deciders import (
    Prop33Square,
    SiteFunctor,
    Verdict,
    _comma_component_table,
    _image_sieve,
    check_prop33_conditions,
    is_comorphism,
    is_continuous,
    is_cover_preserving,
    is_covering_flat,
    is_dense_morphism,
    is_morphism_of_sites,
    replay,
)
from finsite.fincat import (
    compose_functors,
    constant_functor,
    full_subcategory,
    identity_functor,
    identity_transform,
    terminal_category,
    validate_functor,
)
from finsite.fibration import (
    giraud_bundle,
    giraud_topology,
    grothendieck,
    total_functor,
    validate_indexed,
    validate_indexed_morphism,
)
from finsite.generate import Caps, GenerationError, derive_seed, generate_instance
from finsite.sieves import (
    CapExceeded,
    Sieve,
    elements_of_sieve,
    enumerate_topologies,
    make_coverage,
    saturate,
    topology_candidate_count,
    trivial_topology,
)


@pytest.fixture
def giraud_two_point(two_point, sier):
    return giraud_bundle(two_point, sier)


def identity_site(cat, topology):
    return SiteFunctor(identity_functor(cat), topology, topology)


def test_comorphism_identity(walk2, sier):
    assert is_comorphism(identity_site(walk2, sier)).ok


def test_comorphism_giraud_projection(giraud_two_point, sier):
    sf = SiteFunctor(giraud_two_point.projection, giraud_two_point.giraud, sier)
    verdict = is_comorphism(sf)
    assert verdict.ok
    assert replay(verdict, sf)


def test_comorphism_fails_below_giraud(giraud_two_point, sier):
    sf = SiteFunctor(giraud_two_point.projection, trivial_topology(giraud_two_point.total), sier)
    verdict = is_comorphism(sf)
    assert not verdict.ok
    assert verdict.witness[1] == ("u",)
    assert replay(verdict, sf)


def test_cover_preserving_examples(walk2, one, sier):
    assert is_cover_preserving(identity_site(walk2, sier)).ok
    bang_site = SiteFunctor(corpus.bang(walk2), sier, trivial_topology(one))
    assert is_cover_preserving(bang_site).ok
    empty_covers = saturate(make_coverage(one, {"*": [[]]}))
    pick_site = SiteFunctor(corpus.pick(walk2, "a"), empty_covers, sier)
    verdict = is_cover_preserving(pick_site)
    assert not verdict.ok
    assert replay(verdict, pick_site)


def test_continuous_identity_and_giraud(walk2, sier, giraud_two_point):
    assert is_continuous(identity_site(walk2, sier)).ok
    sf = SiteFunctor(giraud_two_point.projection, giraud_two_point.giraud, sier)
    verdict = is_continuous(sf)
    assert verdict.ok
    assert replay(verdict, sf)


def test_fibration_morphism_is_continuous_between_giraud_sites(two_point, walk2, sier):
    one_fib = terminal_category()
    target = validate_indexed(
        walk2,
        {c: one_fib for c in walk2.objects},
        {"u": identity_functor(one_fib)},
    )
    comps = {c: constant_functor(two_point.fiber[c], one_fib, "*") for c in walk2.objects}
    morphism = validate_indexed_morphism(two_point, target, comps)
    src = grothendieck(two_point)
    tgt = grothendieck(target)
    a_fun = total_functor(morphism, src, tgt)
    sf = SiteFunctor(
        a_fun,
        giraud_topology(two_point, sier, src),
        giraud_topology(target, sier, tgt),
    )
    assert is_continuous(sf).ok


def test_covering_flat_identity(walk2, sier):
    assert is_covering_flat(identity_site(walk2, sier)).ok


def test_covering_flat_vacuous_when_empty_sieve_covers(walk2, one):
    everything = saturate(make_coverage(walk2, {c: [[]] for c in walk2.objects}))
    sf = SiteFunctor(corpus.pick(walk2, "a"), trivial_topology(one), everything)
    assert is_covering_flat(sf).ok


def test_covering_flat_fails_without_cone(walk2, one):
    sf = SiteFunctor(corpus.pick(walk2, "a"), trivial_topology(one), trivial_topology(walk2))
    verdict = is_covering_flat(sf)
    assert not verdict.ok
    assert verdict.witness[0] == "no_local_cone"
    assert verdict.witness[1] == "b"
    assert replay(verdict, sf)


def test_morphism_of_sites_identity_and_failure(walk2, one, sier):
    assert is_morphism_of_sites(identity_site(walk2, sier)).ok
    empty_covers = saturate(make_coverage(one, {"*": [[]]}))
    broken = SiteFunctor(corpus.pick(walk2, "a"), empty_covers, sier)
    verdict = is_morphism_of_sites(broken)
    assert not verdict.ok
    assert verdict.witness[0] == "not_cover_preserving"
    assert replay(verdict, broken)


def test_structure_functor_is_morphism_of_sites(one, walk2):
    from finsite.fibration import structure_functor
    from finsite.generate import pushforward_topology

    adj = corpus.walk2_terminal_adjunction()
    fib = corpus.discrete(("p", "q"))
    cix = validate_indexed(one, {"*": fib}, {})
    stf = structure_functor(cix, adj)
    j = trivial_topology(one)
    k = pushforward_topology(adj.right, j)
    sf = SiteFunctor(
        stf.composite,
        giraud_topology(cix, j),
        giraud_topology(stf.inverse.indexed, k),
    )
    assert is_morphism_of_sites(sf).ok


def test_dense_identity(walk2, sier):
    assert is_dense_morphism(identity_site(walk2, sier)).ok


def test_dense_full_subcategory_inclusion(retract):
    from finsite.sieves import induced_image_topology

    top = corpus.retract_topology(retract)
    sub = full_subcategory(retract, ["r"])
    inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, sub, retract)
    induced = induced_image_topology(inclusion, top)
    verdict = is_dense_morphism(SiteFunctor(inclusion, induced, top))
    assert verdict.ok
    assert replay(verdict, SiteFunctor(inclusion, induced, top))


def test_dense_fails_for_non_covering_subcategory(walk2):
    sub = full_subcategory(walk2, ["a"])
    inclusion = validate_functor({"a": "a"}, {"id_a": "id_a"}, sub, walk2)
    sf = SiteFunctor(inclusion, trivial_topology(sub), trivial_topology(walk2))
    verdict = is_dense_morphism(sf)
    assert not verdict.ok
    assert verdict.witness[0] in ("not_locally_covered_by_images", "not_morphism_of_sites")
    assert replay(verdict, sf)


def test_dense_q_between_giraud_sites(retract):
    """Direct-image projection along a dense inclusion is again dense."""
    from finsite.fibration import direct_image
    from finsite.sieves import induced_image_topology

    top = corpus.retract_topology(retract)
    sub = full_subcategory(retract, ["r"])
    inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, sub, retract)
    induced = induced_image_topology(inclusion, top)
    fib = corpus.discrete(("m0", "m1"))
    cix = validate_indexed(
        retract,
        {c: fib for c in retract.objects},
        {a: identity_functor(fib) for a in retract.arrows if not retract.is_identity(a)},
    )
    di = direct_image(cix, inclusion)
    sf = SiteFunctor(
        di.q,
        giraud_topology(di.indexed, induced, di.source),
        giraud_topology(cix, top, di.target),
    )
    assert is_dense_morphism(sf).ok


def _breaking_square(walk2, one, two_point):
    src = grothendieck(two_point)
    w_over_one = validate_indexed(one, {"*": walk2}, {})
    tgt = grothendieck(w_over_one)
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
    gir_tgt = giraud_topology(w_over_one, trivial_topology(one), tgt)
    phi = identity_transform(compose_functors(tgt.projection, a_fun))
    return Prop33Square(a_fun, corpus.bang(walk2), phi, tgt.projection, src.projection, gir_tgt)


def test_prop33_identity_square(two_point, sier):
    bundle = grothendieck(two_point)
    gir = giraud_topology(two_point, sier, bundle)
    ident = identity_functor(bundle.total)
    phi = identity_transform(bundle.projection)
    square = Prop33Square(
        ident, identity_functor(sier.base), phi, bundle.projection, bundle.projection, gir
    )
    verdict = check_prop33_conditions(square)
    assert verdict.ok
    assert replay(verdict, square)


def test_prop33_fixed_base_morphism(two_point, walk2, sier):
    one_fib = terminal_category()
    target = validate_indexed(
        walk2,
        {c: one_fib for c in walk2.objects},
        {"u": identity_functor(one_fib)},
    )
    comps = {c: constant_functor(two_point.fiber[c], one_fib, "*") for c in walk2.objects}
    morphism = validate_indexed_morphism(two_point, target, comps)
    src = grothendieck(two_point)
    tgt = grothendieck(target)
    a_fun = total_functor(morphism, src, tgt)
    gir_tgt = giraud_topology(target, sier, tgt)
    phi = identity_transform(compose_functors(tgt.projection, a_fun))
    square = Prop33Square(
        a_fun, identity_functor(walk2), phi, tgt.projection, src.projection, gir_tgt
    )
    assert check_prop33_conditions(square).ok


def test_prop33_rejects_cartesian_breaking_functor(walk2, one, two_point):
    square = _breaking_square(walk2, one, two_point)
    verdict = check_prop33_conditions(square)
    assert not verdict.ok
    assert verdict.witness[0] == "no_local_triplets"
    assert verdict.witness[1][0] == "u"
    assert replay(verdict, square)


# ---------------------------------------------------------------------------
# Least-cover deciders against the all-covers searches they replaced


def reference_is_comorphism(sf):
    """Every target cover of F(c) has a source cover of c mapping inside it."""
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    for c in functor.source.objects:
        for sieve in j_tgt.sieves(functor.ob(c)):
            if not any(all(functor.ar(f) in sieve for f in cand) for cand in j_src.sieves(c)):
                return False, (c, tuple(sorted(sieve)))
    return True, ()


def reference_is_cover_preserving(sf):
    """The image of every source cover is a target cover."""
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    for c in functor.source.objects:
        for sieve in j_src.sieves(c):
            image = _image_sieve(functor, c, sieve)
            if not j_tgt.is_cover(functor.ob(c), image):
                return False, (c, tuple(sorted(sieve)), tuple(sorted(image)))
    return True, ()


def reference_is_continuous(sf):
    """Cover preservation plus the zig-zag condition on every source cover."""
    ok, witness = reference_is_cover_preserving(sf)
    if not ok:
        return False, ("not_cover_preserving",) + witness
    functor, j_src, k_tgt = sf.functor, sf.source_topology, sf.target_topology
    ccat, dcat = functor.source, functor.target
    for c in ccat.objects:
        for sieve in j_src.sieves(c):
            elems = elements_of_sieve(Sieve(ccat, c, sieve))
            to_d = compose_functors(functor, elems.projection)
            obj_of = {arrow: name for name, arrow in elems.object_arrow.items()}
            tables = {}
            for f in sorted(sieve):
                for g in sorted(sieve):
                    for d in dcat.objects:
                        for alpha in dcat.hom(d, functor.ob(ccat.src[f])):
                            for beta in dcat.hom(d, functor.ob(ccat.src[g])):
                                if dcat.compose(functor.ar(f), alpha) != dcat.compose(functor.ar(g), beta):
                                    continue
                                qualifying = set()
                                for t in dcat.into(d):
                                    d_i = dcat.src[t]
                                    if d_i not in tables:
                                        tables[d_i] = _comma_component_table(to_d, d_i)
                                    c1 = tables[d_i].get((obj_of[f], dcat.compose(alpha, t)))
                                    c2 = tables[d_i].get((obj_of[g], dcat.compose(beta, t)))
                                    if c1 is not None and c1 == c2:
                                        qualifying.add(t)
                                if not k_tgt.is_cover(d, frozenset(qualifying)):
                                    witness = (c, tuple(sorted(sieve)), f, g, d, alpha, beta, tuple(sorted(qualifying)))
                                    return False, ("no_local_connection", witness)
    return True, ()


def cospan_site_functor():
    """x -f-> c <-g- y with {f, g} covering c, mapped to the terminal site.

    Cover preserving, but f and g are not connected in the elements of the
    cover, so the zig-zag condition fails."""
    cospan = corpus.build_category(("x", "c", "y"), {"f": ("x", "c"), "g": ("y", "c")})
    covers = saturate(make_coverage(cospan, {"c": [["f", "g"]]}))
    return SiteFunctor(corpus.bang(cospan), covers, trivial_topology(terminal_category()))


def fuzzed_site_functors(instances):
    """Fixed-seed site functors: fuzzed site-functor, comorphism and dense-pair
    instances, each also with the trivial source topology."""
    out = []
    for kind in ("site-functor", "comorphism", "dense-pair"):
        for index in range(instances):
            try:
                inst = generate_instance(kind, derive_seed(7, index), Caps())
            except (GenerationError, CapExceeded):
                continue
            fn = inst["functor"]
            for src_top in (inst["source_topology"], trivial_topology(fn.source)):
                out.append(SiteFunctor(fn, src_top, inst["target_topology"]))
    return out


def minimality_site_functors(instances):
    """The projection of small fixed-seed fibrations, with every candidate
    topology on the total category as source topology."""
    small = replace(Caps(), base_objects=3, fiber_objects=2)
    out = []
    for index in range(instances):
        try:
            inst = generate_instance("fibration", derive_seed(7, index), small)
        except (GenerationError, CapExceeded):
            continue
        bundle = grothendieck(inst["indexed"])
        if topology_candidate_count(bundle.total) > small.enumeration_limit:
            continue
        try:
            candidates = list(enumerate_topologies(bundle.total))
        except CapExceeded:
            continue
        out += [SiteFunctor(bundle.projection, top, inst["base_topology"]) for top in candidates]
    return out


@pytest.fixture(scope="module")
def differential_site_functors():
    return fuzzed_site_functors(200) + minimality_site_functors(100) + [cospan_site_functor()]


def test_least_cover_deciders_match_the_all_covers_searches(differential_site_functors):
    site_functors = differential_site_functors
    failing = {"comorphism": 0, "cover-preserving": 0}
    for sf in site_functors:
        for decide, reference in (
            (is_comorphism, reference_is_comorphism),
            (is_cover_preserving, reference_is_cover_preserving),
        ):
            verdict = decide(sf)
            assert (verdict.ok, verdict.witness) == reference(sf)
            assert replay(verdict, sf)
            failing[verdict.rule] += not verdict.ok
    assert len(site_functors) >= 2000
    assert min(failing.values()) >= 500


def test_least_cover_continuity_matches_the_all_covers_search(differential_site_functors):
    outcomes = set()
    for sf in differential_site_functors:
        verdict = is_continuous(sf)
        assert (verdict.ok, verdict.witness) == reference_is_continuous(sf)
        outcomes.add(verdict.witness[:1])
    assert outcomes == {(), ("not_cover_preserving",), ("no_local_connection",)}


def test_continuity_fails_on_an_unconnected_cospan_cover():
    sf = cospan_site_functor()
    assert is_cover_preserving(sf).ok
    verdict = is_continuous(sf)
    assert not verdict.ok
    assert verdict.witness == ("no_local_connection", ("c", ("f", "g"), "f", "g", "*", "id_*", "id_*", ()))
    assert replay(verdict, sf)


def test_positive_replay_refuses_a_forged_or_truncated_trace(giraud_two_point, sier):
    below_giraud = SiteFunctor(giraud_two_point.projection, trivial_topology(giraud_two_point.total), sier)
    assert not is_comorphism(below_giraud).ok
    assert not replay(Verdict(True, "comorphism", (), ()), below_giraud)
    assert not replay(Verdict(True, "cover-preserving", (), ()), below_giraud)

    sf = SiteFunctor(giraud_two_point.projection, giraud_two_point.giraud, sier)
    for decide in (is_comorphism, is_cover_preserving):
        verdict = decide(sf)
        assert verdict.ok and replay(verdict, sf)
        assert len(verdict.trace) == len(sf.functor.source.objects)
        assert not replay(Verdict(True, verdict.rule, (), ()), sf)
        assert not replay(Verdict(True, verdict.rule, (), verdict.trace[:-1]), sf)
        assert not replay(Verdict(True, verdict.rule, (), verdict.trace[::-1]), sf)


def test_positive_replay_refuses_a_cover_that_is_not_the_least(walk2, sier):
    sf = identity_site(walk2, sier)
    verdict = is_cover_preserving(sf)
    assert verdict.trace[1] == ("b", ("u",), ("u",))
    maximal = ("b", ("id_b", "u"), ("id_b", "u"))
    assert not replay(Verdict(True, "cover-preserving", (), (verdict.trace[0], maximal)), sf)
    wrong_image = ("b", ("u",), ("id_b", "u"))
    assert not replay(Verdict(True, "cover-preserving", (), (verdict.trace[0], wrong_image)), sf)
