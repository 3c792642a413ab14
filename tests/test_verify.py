import functools
import itertools
import random
from dataclasses import dataclass, replace

import pytest

from finsite import corpus, experiments
from finsite.deciders import (
    Prop33Square,
    SiteFunctor,
    Verdict,
    _comma_components,
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
    FinCategory,
    FinFunctor,
    build_category,
    comma_category,
    composable_pairs,
    compose_functors,
    connected_components,
    constant_functor,
    full_subcategory,
    identity_functor,
    identity_transform,
    terminal_category,
    validate_category,
    validate_functor,
)
from finsite.fibration import (
    giraud_topology,
    grothendieck,
    total_functor,
    validate_indexed,
    validate_indexed_morphism,
)
from finsite.generate import (
    Caps,
    GenerationError,
    derive_seed,
    gen_fibration,
    gen_functor,
    gen_indexed_morphism,
    gen_site,
    gen_topology,
    generate_instance,
    min_comorphism_topology,
)
from finsite.presheaf import Presheaf, prop33_pullback_data, validate_presheaf
from finsite.sieves import (
    CapExceeded,
    Topology,
    _least_cover_failure,
    generate_sieve,
    image_cover_meet,
    image_sieve,
    saturate,
    sieve_lattice,
    sieve_without,
    topology_candidate_count,
    topology_leq,
    trivial_topology,
)


@pytest.fixture
def giraud_two_point(two_point, sier):
    """The Grothendieck bundle of the two-point fibration and its Giraud topology."""
    bundle = grothendieck(two_point)
    return bundle, giraud_topology(two_point, sier)


def identity_site(cat, topology):
    return SiteFunctor(identity_functor(cat), topology, topology)


def test_comorphism_identity(walk2, sier):
    assert is_comorphism(identity_site(walk2, sier)).ok


def test_comorphism_giraud_projection(giraud_two_point, sier):
    bundle, giraud = giraud_two_point
    sf = SiteFunctor(bundle.projection, giraud, sier)
    verdict = is_comorphism(sf)
    assert verdict.ok
    assert replay(verdict, sf)


def test_comorphism_fails_below_giraud(giraud_two_point, sier):
    bundle, _ = giraud_two_point
    sf = SiteFunctor(bundle.projection, trivial_topology(bundle.total), sier)
    verdict = is_comorphism(sf)
    assert not verdict.ok
    assert verdict.witness[1] == ("u",)
    assert replay(verdict, sf)


def test_cover_preserving_examples(walk2, one, sier):
    assert is_cover_preserving(identity_site(walk2, sier)).ok
    bang_site = SiteFunctor(corpus.bang(walk2), sier, trivial_topology(one))
    assert is_cover_preserving(bang_site).ok
    empty_covers = saturate(one, {"*": [[]]})
    pick_site = SiteFunctor(corpus.pick(walk2, "a"), empty_covers, sier)
    verdict = is_cover_preserving(pick_site)
    assert not verdict.ok
    assert replay(verdict, pick_site)


def test_continuous_identity_and_giraud(walk2, sier, giraud_two_point):
    assert is_continuous(identity_site(walk2, sier)).ok
    bundle, giraud = giraud_two_point
    sf = SiteFunctor(bundle.projection, giraud, sier)
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
    a_fun = total_functor(morphism)
    sf = SiteFunctor(
        a_fun,
        giraud_topology(two_point, sier),
        giraud_topology(target, sier),
    )
    assert is_continuous(sf).ok


def test_covering_flat_identity(walk2, sier):
    assert is_covering_flat(identity_site(walk2, sier)).ok


def test_covering_flat_vacuous_when_empty_sieve_covers(walk2, one):
    everything = saturate(walk2, {c: [[]] for c in walk2.objects})
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
    empty_covers = saturate(one, {"*": [[]]})
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
        giraud_topology(di.indexed, induced),
        giraud_topology(cix, top),
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
    gir_tgt = giraud_topology(w_over_one, trivial_topology(one))
    phi = identity_transform(compose_functors(tgt.projection, a_fun))
    return Prop33Square(a_fun, corpus.bang(walk2), phi, tgt.projection, src.projection, gir_tgt)


def test_prop33_identity_square(two_point, sier):
    bundle = grothendieck(two_point)
    gir = giraud_topology(two_point, sier)
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
    a_fun = total_functor(morphism)
    gir_tgt = giraud_topology(target, sier)
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
# Every topology on a small base, the oracle the topology tests enumerate


def enumerate_topologies(base):
    """Yield every topology on ``base`` in a deterministic order.

    Covers of a finite site are closed under intersection, so J(c) is the
    principal up-set of the least cover S(c).  The candidate least covers per
    object are therefore its sieves, sorted by the size and then the content
    of their up-sets; their products are filtered by stability and
    transitivity (``_least_cover_failure``).  Raises CapExceeded on an
    object with more than 14 sieves.
    """
    per_object = []
    for c in base.objects:
        lat = sieve_lattice(base, c)
        if len(lat) > 14:
            raise CapExceeded("sieve lattice too large on {}".format(c))
        upsets = {s: sorted(tuple(sorted(t)) for t in lat if s <= t) for s in lat}
        per_object.append(sorted(lat, key=lambda s: (len(upsets[s]), upsets[s])))
    for combo in itertools.product(*per_object):
        least = dict(zip(base.objects, combo))
        if not _least_cover_failure(base, least):
            yield Topology(base, least)


def minimality_instances(per_seed):
    """def-2.5-minimality's corpus case, then its first ``per_seed`` fuzz
    instances at seeds 0 and 1 that pass its size gate."""
    spec = experiments.EXPERIMENTS["def-2.5-minimality"]
    caps = Caps()
    out = [{"indexed": corpus.two_point(), "base_topology": corpus.sier()}]
    for seed in (0, 1):
        for index in range(per_seed):
            try:
                inst = spec.make(derive_seed(seed, index), caps)
            except (GenerationError, CapExceeded):
                continue
            if topology_candidate_count(grothendieck(inst["indexed"]).total) <= caps.enumeration_limit:
                out.append(inst)
    return out


def test_comorphism_topologies_are_exactly_the_up_set_of_giraud():
    # Def. 2.5 decided as def-2.5-minimality decided it before it compared
    # Giraud with the least comorphism topology: over every topology on the
    # total category
    instances = minimality_instances(50)
    candidates = comorphic = 0
    for inst in instances:
        cix, base_topology = inst["indexed"], inst["base_topology"]
        bundle = grothendieck(cix)
        gir = giraud_topology(cix, base_topology)
        assert gir == min_comorphism_topology(bundle.projection, base_topology)
        topologies = list(enumerate_topologies(bundle.total))
        passes = {k for k in topologies if is_comorphism(SiteFunctor(bundle.projection, k, base_topology)).ok}
        assert passes == {k for k in topologies if topology_leq(gir, k)}
        candidates += len(topologies)
        comorphic += len(passes)
    assert len(instances) >= 90
    assert 0 < comorphic < candidates


def test_minimality_fails_on_a_wrong_least_comorphism_topology(monkeypatch):
    monkeypatch.setattr(experiments, "min_comorphism_topology", lambda functor, _: trivial_topology(functor.source))
    report = experiments.run_experiment("def-2.5-minimality", 0, Caps(instances=0))
    assert [f.label for f in report.failures] == ["twopoint-sier"]
    assert report.failures[0].message.startswith("the Giraud topology is not the least comorphism topology")


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
            image = image_sieve(functor, c, sieve)
            if not j_tgt.is_cover(functor.ob(c), image):
                return False, (c, tuple(sorted(sieve)), tuple(sorted(image)))
    return True, ()


def reference_comma_component_table(functor_to_d, d_i):
    """Map (element, arrow d_i -> image) to a component id of the comma
    category (d_i ↓ G), read off the built and validated comma category."""
    pick = constant_functor(terminal_category(), functor_to_d.target, d_i)
    comma = comma_category(pick, functor_to_d)
    comp_of = {name: idx for idx, group in enumerate(connected_components(comma.category)) for name in group}
    return {(e, w): comp_of[name] for name, (_, e, w) in comma.obj_data.items()}


@dataclass(frozen=True)
class ElementsCategory:
    """The category of elements of a sieve, with its projection to the base."""

    category: FinCategory
    projection: FinFunctor
    object_arrow: dict[str, str]


def elements_of_sieve(base, apex, sieve) -> ElementsCategory:
    """Objects are the arrows of a sieve on ``apex``; morphisms are factorisations."""
    members = sorted(sieve)
    assert all(base.tgt[f] == apex for f in members), "not a sieve on {}".format(apex)
    obj_of = {f: "<{}>".format(f) for f in members}
    names = tuple(obj_of[f] for f in members)
    arrows = {}
    data = {}
    for f in members:
        for g in members:
            for w in base.hom(base.src[f], base.src[g]):
                if base.compose(g, w) == f:
                    name = "{}@{}->{}".format(w, obj_of[f], obj_of[g])
                    arrows[name] = (obj_of[f], obj_of[g])
                    data[name] = w
    identity = {}
    for f in members:
        o = obj_of[f]
        identity[o] = "{}@{}->{}".format(base.identity[base.src[f]], o, o)
    table = {}
    for b, a in composable_pairs(arrows):
        w = base.compose(data[b], data[a])
        table[(b, a)] = "{}@{}->{}".format(w, arrows[a][0], arrows[b][1])
    cat = validate_category(names, arrows, identity, table)
    proj = validate_functor(
        {obj_of[f]: base.src[f] for f in members},
        {a: data[a] for a in arrows},
        cat,
        base,
    )
    return ElementsCategory(cat, proj, {obj_of[f]: f for f in members})


def reference_is_continuous(sf):
    """Cover preservation plus the zig-zag condition on every source cover."""
    ok, witness = reference_is_cover_preserving(sf)
    if not ok:
        return False, ("not_cover_preserving",) + witness
    functor, j_src, k_tgt = sf.functor, sf.source_topology, sf.target_topology
    ccat, dcat = functor.source, functor.target
    for c in ccat.objects:
        for sieve in j_src.sieves(c):
            elems = elements_of_sieve(ccat, c, sieve)
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
                                        tables[d_i] = reference_comma_component_table(to_d, d_i)
                                    c1 = tables[d_i].get((obj_of[f], dcat.compose(alpha, t)))
                                    c2 = tables[d_i].get((obj_of[g], dcat.compose(beta, t)))
                                    if c1 is not None and c1 == c2:
                                        qualifying.add(t)
                                if not k_tgt.is_cover(d, frozenset(qualifying)):
                                    witness = (c, tuple(sorted(sieve)), f, g, d, alpha, beta, tuple(sorted(qualifying)))
                                    return False, ("no_local_connection", witness)
    return True, ()


def _reference_flat_f2_sieve(sf, d, c1, u1, c2, u2):
    """Arrows h into d along which (u1, u2) factors through one image F(c)."""
    functor = sf.functor
    ccat, dcat = functor.source, functor.target
    good = set()
    for h in dcat.into(d):
        e = dcat.src[h]
        found = False
        for c in ccat.objects:
            for s1 in ccat.hom(c, c1):
                a1 = functor.ar(s1)
                target1 = dcat.compose(u1, h)
                for gamma in dcat.hom(e, functor.ob(c)):
                    if dcat.compose(a1, gamma) != target1:
                        continue
                    for s2 in ccat.hom(c, c2):
                        if dcat.compose(functor.ar(s2), gamma) == dcat.compose(u2, h):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found:
            good.add(h)
    return frozenset(good)


def _reference_flat_f3_sieve(sf, d, s, t, u):
    """Arrows h into d along which u factors through an equalizing F(w)."""
    functor = sf.functor
    ccat, dcat = functor.source, functor.target
    c1 = ccat.src[s]
    good = set()
    for h in dcat.into(d):
        e = dcat.src[h]
        target = dcat.compose(u, h)
        found = False
        for c in ccat.objects:
            for w in ccat.hom(c, c1):
                if ccat.compose(s, w) != ccat.compose(t, w):
                    continue
                aw = functor.ar(w)
                for gamma in dcat.hom(e, functor.ob(c)):
                    if dcat.compose(aw, gamma) == target:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            good.add(h)
    return frozenset(good)


def reference_is_covering_flat(sf):
    """F1-F3 with every qualifying sieve built over all of into(d) and then
    tested for being a cover; returns (ok, witness, trace)."""
    functor, k_tgt = sf.functor, sf.target_topology
    ccat, dcat = functor.source, functor.target
    trace = []
    for d in dcat.objects:
        w = frozenset(
            h for h in dcat.into(d) if any(dcat.hom(dcat.src[h], functor.ob(c)) for c in ccat.objects)
        )
        if not k_tgt.is_cover(d, w):
            return False, ("no_local_cone", d, tuple(sorted(w))), ()
        trace.append(("f1", d))
    for d in dcat.objects:
        for c1 in ccat.objects:
            for u1 in dcat.hom(d, functor.ob(c1)):
                for c2 in ccat.objects:
                    for u2 in dcat.hom(d, functor.ob(c2)):
                        w = _reference_flat_f2_sieve(sf, d, c1, u1, c2, u2)
                        if not k_tgt.is_cover(d, w):
                            return False, ("no_local_span", (d, c1, u1, c2, u2), tuple(sorted(w))), ()
                        trace.append(("f2", d, u1, u2))
    for s in ccat.arrows:
        for t in ccat.arrows:
            if ccat.src[s] != ccat.src[t] or ccat.tgt[s] != ccat.tgt[t]:
                continue
            for d in dcat.objects:
                for u in dcat.hom(d, functor.ob(ccat.src[s])):
                    if dcat.compose(functor.ar(s), u) != dcat.compose(functor.ar(t), u):
                        continue
                    w = _reference_flat_f3_sieve(sf, d, s, t, u)
                    if not k_tgt.is_cover(d, w):
                        return False, ("no_local_equalization", (d, s, t, u), tuple(sorted(w))), ()
                    trace.append(("f3", d, s, t, u))
    return True, (), tuple(trace)


def reference_is_dense_morphism(sf):
    """Morphism of sites, cover reflection, local covering by images, and
    local fullness and faithfulness with every qualifying set built over all
    of into(c); returns (ok, witness, trace)."""
    cp = is_cover_preserving(sf)
    if not cp.ok:
        return False, ("not_morphism_of_sites", "not_cover_preserving") + cp.witness, ()
    ok, witness, flat_trace = reference_is_covering_flat(sf)
    if not ok:
        return False, ("not_morphism_of_sites", "not_covering_flat") + witness, ()
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    ccat, dcat = functor.source, functor.target
    trace = list(cp.trace + flat_trace)
    for c in ccat.objects:
        lost = sorted(j_src.least[c] - image_cover_meet(functor, j_tgt, c))
        if lost:
            return False, ("cover_not_reflected", c, tuple(sorted(sieve_without(ccat, c, lost[0])))), ()
    images = {functor.ob(c) for c in ccat.objects}
    for d in dcat.objects:
        w = generate_sieve(dcat, d, [m for m in dcat.into(d) if dcat.src[m] in images])
        if not j_tgt.is_cover(d, w):
            return False, ("not_locally_covered_by_images", d, tuple(sorted(w))), ()
        trace.append(("images-cover", d))
    for c1 in ccat.objects:
        for c2 in ccat.objects:
            for g in dcat.hom(functor.ob(c1), functor.ob(c2)):
                good = set()
                for v in ccat.into(c1):
                    if any(dcat.compose(g, functor.ar(v)) == functor.ar(g2) for g2 in ccat.hom(ccat.src[v], c2)):
                        good.add(v)
                if not j_src.is_cover(c1, frozenset(good)):
                    return False, ("not_locally_full", (c1, c2, g), tuple(sorted(good))), ()
                trace.append(("local-fullness", c1, c2, g))
    for g1 in ccat.arrows:
        for g2 in ccat.arrows:
            if g1 >= g2 or ccat.src[g1] != ccat.src[g2] or ccat.tgt[g1] != ccat.tgt[g2]:
                continue
            if functor.ar(g1) != functor.ar(g2):
                continue
            c1 = ccat.src[g1]
            good = frozenset(v for v in ccat.into(c1) if ccat.compose(g1, v) == ccat.compose(g2, v))
            if not j_src.is_cover(c1, good):
                return False, ("not_locally_faithful", (g1, g2), tuple(sorted(good))), ()
            trace.append(("local-faithfulness", g1, g2))
    return True, (), tuple(trace)


def parallel_pair_site_functor():
    """The parallel pair s, t: x -> y sent to the terminal site, both sides
    trivial.  F(s) = F(t), but no arrow into x equalizes s and t, so F3 fails
    at d = *."""
    pair = build_category(("x", "y"), {"s": ("x", "y"), "t": ("x", "y")})
    return SiteFunctor(corpus.bang(pair), trivial_topology(pair), trivial_topology(terminal_category()))


def retract_point_site_functor():
    """The point s of the retract, from the trivial terminal site to the
    retract with s covered by {m}.  F is flat and covers are reflected, but
    t: s -> s is not the image of any arrow, even locally on {id_*}."""
    retract = corpus.retract()
    return SiteFunctor(
        corpus.pick(retract, "s"),
        trivial_topology(terminal_category()),
        saturate(retract, {"s": [["m"]]}),
    )


def retract_two_point_site_functor():
    """Two points p, q of the retract's s, with k: q -> p sent to t and p
    covered by {k}.  F is a morphism of sites that reflects covers, but
    id_s: F(p) -> F(q) is not locally the image of an arrow p -> q; the image
    id_s of id_q starts at F(q) = F(p) but comes from q, so it qualifies
    no arrow into p."""
    retract = corpus.retract()
    points = build_category(("p", "q"), {"k": ("q", "p")})
    functor = validate_functor({"p": "s", "q": "s"}, {"id_p": "id_s", "id_q": "id_s", "k": "t"}, points, retract)
    return SiteFunctor(functor, saturate(points, {"p": [["k"]]}), corpus.retract_topology(retract))


def cospan_site_functor():
    """x -f-> c <-g- y with {f, g} covering c, mapped to the terminal site.

    Cover preserving, but f and g are not connected in the elements of the
    cover, so the zig-zag condition fails."""
    cospan = corpus.build_category(("x", "c", "y"), {"f": ("x", "c"), "g": ("y", "c")})
    covers = saturate(cospan, {"c": [["f", "g"]]})
    return SiteFunctor(corpus.bang(cospan), covers, trivial_topology(terminal_category()))


def comorphism_instance(seed, caps):
    """A random functor into a random site, with the least comorphism
    topology on its source."""
    rng = random.Random(seed)
    cat, topology = gen_site(rng, caps)
    for _ in range(30):
        src, _ = gen_site(rng, caps)
        try:
            fn = gen_functor(rng, src, cat)
        except GenerationError:
            continue
        return {"functor": fn, "source_topology": min_comorphism_topology(fn, topology), "target_topology": topology}
    raise GenerationError("no comorphism instance within caps")


def fuzzed_site_functors(instances):
    """Fixed-seed site functors: fuzzed site-functor, comorphism and dense-pair
    instances, each also with the trivial source topology."""
    out = []
    for make in (
        functools.partial(generate_instance, "site-functor"),
        comorphism_instance,
        functools.partial(generate_instance, "dense-pair"),
    ):
        for index in range(instances):
            try:
                inst = make(derive_seed(7, index), Caps())
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


def test_least_cover_flatness_and_density_match_the_qualifying_set_searches(differential_site_functors):
    outcomes = {}
    hand_built = [parallel_pair_site_functor(), retract_point_site_functor(), retract_two_point_site_functor()]
    for sf in differential_site_functors + hand_built:
        for decide, reference in (
            (is_covering_flat, reference_is_covering_flat),
            (is_dense_morphism, reference_is_dense_morphism),
        ):
            verdict = decide(sf)
            assert (verdict.ok, verdict.witness, verdict.trace) == reference(sf)
            key = (verdict.rule,) + verdict.witness[:1]
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes[("covering-flat", "no_local_cone")] >= 296
    assert outcomes[("covering-flat", "no_local_span")] >= 831
    assert outcomes[("covering-flat", "no_local_equalization")] >= 1
    assert outcomes[("dense-morphism", "cover_not_reflected")] >= 418
    assert outcomes[("dense-morphism", "not_locally_covered_by_images")] >= 29
    assert outcomes[("dense-morphism", "not_locally_full")] >= 2


def test_covering_flat_fails_without_local_equalization():
    sf = parallel_pair_site_functor()
    verdict = is_covering_flat(sf)
    assert verdict.witness == ("no_local_equalization", ("*", "s", "t", "id_*"), ())
    assert not verdict.ok and replay(verdict, sf)


def test_dense_fails_without_local_fullness():
    sf = retract_point_site_functor()
    assert is_morphism_of_sites(sf).ok
    verdict = is_dense_morphism(sf)
    assert verdict.witness == ("not_locally_full", ("*", "*", "t"), ())
    assert not verdict.ok and replay(verdict, sf)


def test_continuity_fails_on_an_unconnected_cospan_cover():
    sf = cospan_site_functor()
    assert is_cover_preserving(sf).ok
    verdict = is_continuous(sf)
    assert not verdict.ok
    assert verdict.witness == ("no_local_connection", ("c", ("f", "g"), "f", "g", "*", "id_*", "id_*", ()))
    assert replay(verdict, sf)


def test_positive_replay_refuses_a_forged_or_truncated_trace(giraud_two_point, sier):
    bundle, giraud = giraud_two_point
    below_giraud = SiteFunctor(bundle.projection, trivial_topology(bundle.total), sier)
    assert not is_comorphism(below_giraud).ok
    assert not replay(Verdict(True, "comorphism", (), ()), below_giraud)
    assert not replay(Verdict(True, "cover-preserving", (), ()), below_giraud)

    sf = SiteFunctor(bundle.projection, giraud, sier)
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


# ---------------------------------------------------------------------------
# Comma components from one union-find over the elements, against the
# elements categories and comma categories they replaced


@dataclass(frozen=True)
class ElementsOfPresheaf:
    category: FinCategory
    projection: FinFunctor
    obj_data: dict[str, tuple[str, str]]


def elements_of_presheaf(p: Presheaf) -> ElementsOfPresheaf:
    """Objects are pairs (c, element of p(c)); arrows are base arrows whose
    action carries the target element back to the source one."""
    base = p.base
    obj_data = {}
    for c in base.objects:
        for a in p.values[c]:
            obj_data["<{}|{}>".format(c, a)] = (c, a)
    names = tuple(sorted(obj_data))
    arrows = {}
    data = {}
    for o1 in names:
        c1, a1 = obj_data[o1]
        for o2 in names:
            c2, a2 = obj_data[o2]
            for h in base.hom(c1, c2):
                if p.act(h, a2) == a1:
                    name = "{}@{}->{}".format(h, o1, o2)
                    arrows[name] = (o1, o2)
                    data[name] = h
    identity = {}
    for o in names:
        c, _ = obj_data[o]
        identity[o] = "{}@{}->{}".format(base.identity[c], o, o)
    table = {}
    for b, (bs, bt) in arrows.items():
        for a, (asrc, at) in arrows.items():
            if at == bs:
                table[(b, a)] = "{}@{}->{}".format(base.compose(data[b], data[a]), asrc, bt)
    cat = validate_category(names, arrows, identity, table)
    proj = validate_functor({o: obj_data[o][0] for o in names}, {a: data[a] for a in arrows}, cat, base)
    return ElementsOfPresheaf(cat, proj, obj_data)


def test_elements_of_presheaf_projection(walk2):
    worked = validate_presheaf(walk2, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}})
    el = elements_of_presheaf(worked)
    assert len(el.category.objects) == 3
    for name, (c, a) in el.obj_data.items():
        assert el.projection.ob(name) == c


def reference_check_prop33_conditions(square):
    """Both comparison conditions, with local connectedness read off the
    comma categories over the validated elements of each pullback presheaf."""
    a_fun, b_fun, phi = square.a_top, square.b_base, square.phi.component
    p, p2, k_top = square.p, square.p_prime, square.k_top
    dcat, d2cat = p.source, p2.source
    ccat, c2cat = p.target, p2.target
    trace = []
    for f_prime in c2cat.arrows:
        c2_obj, c1_obj = c2cat.src[f_prime], c2cat.tgt[f_prime]
        for d_prime in d2cat.objects:
            for u_prime in c2cat.hom(p2.ob(d_prime), c1_obj):
                triplets = []
                for dbar in d2cat.objects:
                    for gbar in d2cat.hom(dbar, d_prime):
                        for ubar in c2cat.hom(p2.ob(dbar), c2_obj):
                            if c2cat.compose(u_prime, p2.ar(gbar)) == c2cat.compose(f_prime, ubar):
                                triplets.append((dbar, gbar, ubar))
                for d in dcat.objects:
                    for g in dcat.hom(d, a_fun.ob(d_prime)):
                        rhs_fixed = ccat.compose(ccat.compose(b_fun.ar(u_prime), phi[d_prime]), p.ar(g))
                        for u2 in ccat.hom(p.ob(d), b_fun.ob(c2_obj)):
                            if ccat.compose(b_fun.ar(f_prime), u2) != rhs_fixed:
                                continue
                            qualifying = {
                                t
                                for t in dcat.into(d)
                                if any(
                                    ccat.compose(u2, p.ar(t))
                                    == ccat.compose(ccat.compose(b_fun.ar(ubar), phi[dbar]), p.ar(x))
                                    and dcat.compose(g, t) == dcat.compose(a_fun.ar(gbar), x)
                                    for dbar, gbar, ubar in triplets
                                    for x in dcat.hom(dcat.src[t], a_fun.ob(dbar))
                                )
                            }
                            if not k_top.is_cover(d, frozenset(qualifying)):
                                where = (f_prime, d_prime, u_prime, d, g, u2)
                                return False, ("no_local_triplets", where, tuple(sorted(qualifying))), ()
                            trace.append(("b1", f_prime, d_prime, u_prime, d, g, u2))
                presheaf, elem_data = prop33_pullback_data(p2, d_prime, u_prime, f_prime)
                elems = elements_of_presheaf(presheaf)
                obj_name = {pair: name for name, pair in elems.obj_data.items()}
                to_d = compose_functors(a_fun, elems.projection)
                tables = {}
                for d in dcat.objects:
                    trips = [
                        (dbar, elem, x)
                        for dbar in d2cat.objects
                        for elem in presheaf.values[dbar]
                        for x in dcat.hom(d, a_fun.ob(dbar))
                    ]
                    for i, (d1, e1, x1) in enumerate(trips):
                        g1, u1 = elem_data[d1][e1]
                        left1 = ccat.compose(ccat.compose(b_fun.ar(u1), phi[d1]), p.ar(x1))
                        for d2_, e2_, x2 in trips[i:]:
                            g2, u2_ = elem_data[d2_][e2_]
                            if left1 != ccat.compose(ccat.compose(b_fun.ar(u2_), phi[d2_]), p.ar(x2)):
                                continue
                            if dcat.compose(a_fun.ar(g1), x1) != dcat.compose(a_fun.ar(g2), x2):
                                continue
                            qualifying = set()
                            for t in dcat.into(d):
                                e = dcat.src[t]
                                if e not in tables:
                                    tables[e] = reference_comma_component_table(to_d, e)
                                k1 = tables[e].get((obj_name[(d1, e1)], dcat.compose(x1, t)))
                                k2 = tables[e].get((obj_name[(d2_, e2_)], dcat.compose(x2, t)))
                                if k1 is not None and k1 == k2:
                                    qualifying.add(t)
                            if not k_top.is_cover(d, frozenset(qualifying)):
                                where = (f_prime, d_prime, u_prime, d, (e1, x1), (e2_, x2))
                                witness = ("triplets_not_locally_connected", where, tuple(sorted(qualifying)))
                                return False, witness, ()
                            trace.append(("b2", f_prime, d_prime, u_prime, d, e1, e2_))
    return True, (), tuple(trace)


def fixed_base_square(morphism, topology):
    """The square `prop-3.3-conditions` checks for a fixed-base morphism."""
    a_fun = total_functor(morphism)
    tgt_proj = grothendieck(morphism.target).projection
    phi = identity_transform(compose_functors(tgt_proj, a_fun))
    k_top = giraud_topology(morphism.target, topology)
    return Prop33Square(a_fun, identity_functor(topology.base), phi, tgt_proj, grothendieck(morphism.source).projection, k_top)


SQUARE_CAPS = replace(Caps(), base_objects=2, fiber_objects=2)


def experiment_prop33_squares(instances):
    """The fuzzed squares of `prop-3.3-conditions` at seed 0."""
    out = []
    for index in range(instances):
        rng = random.Random(derive_seed(0, index))
        try:
            cix, topology = gen_fibration(rng, SQUARE_CAPS)
            morphism = gen_indexed_morphism(rng, cix, SQUARE_CAPS)
        except (GenerationError, CapExceeded):
            continue
        out.append(fixed_base_square(morphism, topology))
    return out


def terminal_base_squares(draws):
    """Squares over the terminal base: B is `bang`, A a random functor between
    the total categories, and the top topology random or trivial."""
    one = terminal_category()
    out = []
    for index in range(draws):
        rng = random.Random(derive_seed(3, index))
        try:
            cix, _ = gen_fibration(rng, SQUARE_CAPS)
            cat, src = cix.base, grothendieck(cix)
            fiber, _ = gen_site(rng, SQUARE_CAPS)
            tgt = grothendieck(validate_indexed(one, {"*": fiber}, {}))
            a_fun = gen_functor(rng, src.total, tgt.total)
        except (GenerationError, CapExceeded):
            continue
        k_top = gen_topology(rng, tgt.total) if rng.random() < 0.5 else trivial_topology(tgt.total)
        phi = identity_transform(compose_functors(tgt.projection, a_fun))
        out.append(Prop33Square(a_fun, corpus.bang(cat), phi, tgt.projection, src.projection, k_top))
    return out


def disconnected_triplets_square():
    """walk2 -> retract sending u to the split epi e, over the terminal base.

    At f' = u, d' = b, u' = id_b the pullback presheaf has one element, over
    a, and e o id_s = e o t, so the triplets (id_s) and (t) at s must be
    locally connected; they are joined only after precomposing with m or t,
    and {m, t} does not cover s in the trivial topology."""
    w, r = corpus.walk2(), corpus.retract()
    a_fun = validate_functor({"a": "s", "b": "r"}, {"id_a": "id_s", "id_b": "id_r", "u": "e"}, w, r)
    phi = identity_transform(compose_functors(corpus.bang(r), a_fun))
    return Prop33Square(a_fun, corpus.bang(w), phi, corpus.bang(r), identity_functor(w), trivial_topology(r))


@pytest.fixture(scope="module")
def differential_squares():
    return experiment_prop33_squares(120) + terminal_base_squares(400) + [disconnected_triplets_square()]


def _partition(components):
    """The groups of keys that share a component id."""
    groups = {}
    for key, comp in components.items():
        groups.setdefault(comp, set()).add(key)
    return {frozenset(group) for group in groups.values()}


def assert_components_match_the_comma_route(elements, projection, key_of, functor):
    """One union-find over the elements of G = functor o projection has, for
    every d_i, the components of the comma category (d_i ↓ G)."""
    to_d = compose_functors(functor, projection)
    comp = _comma_components(
        functor.target,
        {key_of[x]: to_d.ob(x) for x in elements.objects},
        [(key_of[elements.src[a]], key_of[elements.tgt[a]], to_d.ar(a)) for a in elements.arrows],
    )
    expected = set()
    for d_i in functor.target.objects:
        table = reference_comma_component_table(to_d, d_i)
        expected |= _partition({(key_of[x], w): k for (x, w), k in table.items()})
    assert _partition(comp) == expected


def test_comma_components_match_the_comma_categories_on_sieve_elements(differential_site_functors):
    checked = 0
    for sf in differential_site_functors[:300]:
        ccat = sf.functor.source
        for c in ccat.objects:
            for sieve in sieve_lattice(ccat, c)[:8]:
                el = elements_of_sieve(ccat, c, sieve)
                assert_components_match_the_comma_route(el.category, el.projection, el.object_arrow, sf.functor)
                checked += 1
    assert checked >= 1000


def test_comma_components_match_the_comma_categories_on_pullback_presheaves(differential_squares):
    checked = 0
    for square in differential_squares:
        p2, c2cat = square.p_prime, square.p_prime.target
        for f_prime in c2cat.arrows:
            for d_prime in p2.source.objects:
                for u_prime in c2cat.hom(p2.ob(d_prime), c2cat.tgt[f_prime]):
                    presheaf, _ = prop33_pullback_data(p2, d_prime, u_prime, f_prime)
                    el = elements_of_presheaf(presheaf)
                    assert_components_match_the_comma_route(el.category, el.projection, el.obj_data, square.a_top)
                    checked += 1
    assert checked >= 1000


def test_prop33_conditions_match_the_comma_route(differential_squares):
    outcomes = {}
    for square in differential_squares:
        verdict = check_prop33_conditions(square)
        assert (verdict.ok, verdict.witness, verdict.trace) == reference_check_prop33_conditions(square)
        key = verdict.witness[:1]
        outcomes[key] = outcomes.get(key, 0) + 1
    assert set(outcomes) == {(), ("no_local_triplets",), ("triplets_not_locally_connected",)}
    assert outcomes[("no_local_triplets",)] >= 5


def test_prop33_fails_on_triplets_joined_only_locally():
    square = disconnected_triplets_square()
    verdict = check_prop33_conditions(square)
    assert not verdict.ok
    assert verdict.witness == (
        "triplets_not_locally_connected",
        ("u", "b", "id_b", "s", ("(u,id_a)", "id_s"), ("(u,id_a)", "t")),
        ("m", "t"),
    )
    assert replay(verdict, square)


def test_continuity_has_no_hidden_object_cap():
    # the least cover of c has 71 members: more than the 64 objects a
    # validated elements category may have
    cat = build_category(("c", "x"), {"f{:02d}".format(i): ("x", "c") for i in range(70)})
    sf = identity_site(cat, trivial_topology(cat))
    verdict = is_continuous(sf)
    assert verdict.ok
    assert replay(verdict, sf)
