import itertools
import math
import random
from collections import Counter

import pytest

from finsite import corpus, experiments, presheaf
from finsite.fincat import (
    StructureError,
    build_category,
    compose_functors,
    entries_by_last_arrow,
    identity_functor,
    validate_category,
)
from finsite.deciders import SiteFunctor, is_continuous
from finsite.generate import Caps, GenerationError, derive_seed, gen_presheaf, gen_site, generate_instance
from finsite.presheaf import (
    Presheaf,
    _as_components,
    _assignments,
    _natural_maps,
    is_sheaf,
    matching_families,
    plus,
    precompose,
    prop33_pullback_data,
    representable,
    sheaf_targets,
    sheafify,
    unit_universal_property,
    validate_presheaf,
)
from finsite.sieves import (
    CapExceeded,
    Topology,
    maximal_sieve,
    pullback_arrows,
    saturate,
    trivial_topology,
)
from test_verify import enumerate_topologies


@pytest.fixture
def worked(walk2):
    return validate_presheaf(walk2, {"b": ("0", "1"), "a": ("*",)}, {"u": {"0": "*", "1": "*"}})


def amalgamations(p, apex, sieve, family):
    """The elements of p(apex) that restrict to ``family`` along every member
    of the sieve, in the order of p(apex)."""
    members = sorted(sieve)
    return [a for a in p.values[apex] if all(p.act(f, a) == family[f] for f in members)]


def brute_force_families(p, sieve):
    """Independent oracle: filter raw assignments by pairwise compatibility."""
    base = p.base
    members = sorted(sieve)
    out = []
    for values in itertools.product(*(p.values[base.src[f]] for f in members)):
        fam = dict(zip(members, values))
        good = True
        for f in members:
            for g in base.into(base.src[f]):
                fg = base.compose(f, g)
                if fg in fam and p.act(g, fam[f]) != fam[fg]:
                    good = False
        if good:
            out.append(fam)
    return out


def test_presheaf_functoriality_is_validated(walk2):
    with pytest.raises(StructureError, match="identity action"):
        validate_presheaf(
            walk2,
            {"a": ("0", "1"), "b": ("x",)},
            {"u": {"x": "0"}, "id_a": {"0": "1", "1": "0"}, "id_b": {"x": "x"}},
        )


def test_matching_families_agree_with_brute_force(worked, walk2, sier):
    for c in walk2.objects:
        for sieve in sier.covers[c]:
            ours = matching_families(worked, sieve)
            oracle = brute_force_families(worked, sieve)
            assert sorted(map(sorted, (f.items() for f in ours))) == sorted(
                map(sorted, (f.items() for f in oracle))
            )


def test_everything_is_a_sheaf_for_the_trivial_topology(worked, walk2):
    ok, _ = is_sheaf(worked, trivial_topology(walk2))
    assert ok


def test_worked_example_is_not_a_sheaf(worked, sier):
    ok, witness = is_sheaf(worked, sier)
    assert not ok
    kind, (obj, sieve, fam, glue) = witness
    assert kind == "ambiguous_amalgamation"
    assert obj == "b"
    assert sieve == ("u",)
    assert len(glue) == 2


def test_least_cover_of_sier_at_b(sier):
    assert sier.least["b"] == frozenset({"u"})


def test_hand_built_topology_that_is_not_pullback_stable_is_refused(worked, walk2):
    # S(b) is the empty sieve, so u*S(b) is empty and misses S(a) = {id_a}
    broken = Topology(walk2, {"a": frozenset({"id_a"}), "b": frozenset()})
    for build in (plus, sheafify):
        with pytest.raises(StructureError, match="not inside the pullback") as info:
            build(worked, broken)
        assert info.value.witness == "u"


def test_a_topology_on_another_base_is_refused_before_any_work(worked, walk2):
    # the refusal comes first: no KeyError from plus reading S(a) on chain3,
    # and no CapExceeded from a budget too small for chain3's presheaf space
    chain3 = corpus.chain3()
    with pytest.raises(StructureError, match="different bases"):
        plus(worked, trivial_topology(chain3))
    with pytest.raises(StructureError, match="different bases"):
        next(sheaf_targets(chain3, trivial_topology(walk2), 3, 10))


def test_representable_at_b_is_a_sier_sheaf(walk2, sier):
    yb = representable(walk2, "b")
    # oracle: count amalgamations for each brute-forced family
    for c in walk2.objects:
        for sieve in sier.covers[c]:
            for fam in brute_force_families(yb, sieve):
                assert len(amalgamations(yb, c, sieve, fam)) == 1
    ok, _ = is_sheaf(yb, sier)
    assert ok


def test_plus_on_trivial_topology_is_isomorphic(worked, walk2):
    result = plus(worked, trivial_topology(walk2))
    for c in walk2.objects:
        comp = result.unit[c]
        assert len(set(comp.values())) == len(worked.values[c]) == len(result.presheaf.values[c])


def test_plus_collapses_the_worked_example(worked, sier):
    result = plus(worked, sier)
    assert len(result.presheaf.values["b"]) == 1
    assert len(result.presheaf.values["a"]) == 1


def test_plus_of_separated_presheaf_is_a_sheaf(walk2, sier):
    separated = validate_presheaf(
        walk2, {"b": ("0",), "a": ("*", "+")}, {"u": {"0": "*"}}
    )
    ok, _ = is_sheaf(separated, sier)
    assert not ok
    once = plus(separated, sier)
    ok, _ = is_sheaf(once.presheaf, sier)
    assert ok


def test_sheafify_constant_singleton(worked, sier):
    result = sheafify(worked, sier)
    assert all(len(result.sheaf.values[c]) == 1 for c in worked.base.objects)


def test_sheafify_sheaf_input_has_iso_unit(walk2, sier):
    yb = representable(walk2, "b")
    result = sheafify(yb, sier)
    for c in walk2.objects:
        comp = result.unit[c]
        assert len(set(comp.values())) == len(yb.values[c]) == len(result.sheaf.values[c])


def test_sheafify_is_idempotent_up_to_iso(worked, sier):
    once = sheafify(worked, sier)
    twice = sheafify(once.sheaf, sier)
    for c in worked.base.objects:
        comp = twice.unit[c]
        assert len(set(comp.values())) == len(once.sheaf.values[c]) == len(twice.sheaf.values[c])


def test_unit_universal_property_on_walk2(worked, walk2, sier):
    sh = sheafify(worked, sier)
    for target in sheaf_targets(walk2, sier, max_size=3):
        ok, witness = unit_universal_property(worked, sh, target)
        assert ok, witness


def test_precompose_identity(worked, walk2):
    again = precompose(worked, identity_functor(walk2))
    assert again.values == worked.values
    assert again.action == worked.action


def test_precompose_pick_b(worked, walk2, one):
    restricted = precompose(worked, corpus.pick(walk2, "b"))
    assert restricted.values == {"*": ("0", "1")}


def test_precompose_respects_composition(worked, walk2, one):
    pick_b = corpus.pick(walk2, "b")
    bang = corpus.bang(walk2)
    left = precompose(worked, compose_functors(pick_b, bang))
    right = precompose(precompose(worked, pick_b), bang)
    assert left.values == right.values and left.action == right.action


def test_continuity_implies_sheaf_preservation_direction(walk2, one, sier):
    # bang: (walk2, sier) -> (one, trivial) is continuous; restriction of any
    # bounded sheaf downstairs is a sheaf upstairs
    from finsite.deciders import SiteFunctor, is_continuous

    bang = corpus.bang(walk2)
    sf = SiteFunctor(bang, sier, trivial_topology(one))
    assert is_continuous(sf).ok
    for q in sheaf_targets(one, trivial_topology(one), max_size=3):
        ok, _ = is_sheaf(precompose(q, bang), sier)
        assert ok


def test_prop33_pullback_along_identities(walk2):
    p = prop33_pullback_data(identity_functor(walk2), "b", "id_b", "id_b")[0]
    for e in walk2.objects:
        assert len(p.values[e]) == len(walk2.hom(e, "b"))


def test_prop33_pullback_with_empty_homs(walk2):
    # no arrows b -> a, so the pullback presheaf over d' = a is empty at b
    p = prop33_pullback_data(identity_functor(walk2), "a", "id_a", "id_a")[0]
    assert p.values["b"] == ()


def test_prop33_pullback_two_point_instance(two_point, walk2):
    from finsite.fibration import grothendieck

    bundle = grothendieck(two_point)
    proj = bundle.projection
    d_prime = "(x0,b)"
    p = prop33_pullback_data(proj, d_prime, "id_b", "u")[0]
    total = bundle.total
    for e in total.objects:
        expected = set()
        for g in total.hom(e, d_prime):
            for u2 in walk2.hom(proj.ob(e), "a"):
                if walk2.compose("u", u2) == walk2.compose("id_b", proj.ar(g)):
                    expected.add("({},{})".format(g, u2))
        assert set(p.values[e]) == expected


def test_presheaf_morphism_enumeration_counts(walk2):
    singleton = validate_presheaf(walk2, {"a": ("*",), "b": ("*",)}, {"u": {"*": "*"}})
    pair = validate_presheaf(walk2, {"a": ("0", "1"), "b": ("0", "1")}, {"u": {"0": "0", "1": "1"}})
    maps = [_as_components(singleton, image) for image in _natural_maps(singleton, pair)]
    assert len(maps) == 2


# ---------------------------------------------------------------------------
# Differential oracles: the full-scan and pairwise-scan algorithms that the
# incremental and counting versions in finsite.presheaf replaced.


def reference_presheaf_morphisms(p, q):
    """Per-object backtracking that re-checks every naturality square."""
    base = p.base
    objs = list(base.objects)
    assign = {}

    def consistent():
        for f in base.arrows:
            s, t = base.src[f], base.tgt[f]
            if s in assign and t in assign:
                for a in p.values[t]:
                    if assign[s][p.act(f, a)] != q.act(f, assign[t][a]):
                        return False
        return True

    def go(i):
        if i == len(objs):
            yield {c: dict(m) for c, m in assign.items()}
            return
        c = objs[i]
        dom, cod = p.values[c], q.values[c]
        for image in itertools.product(cod, repeat=len(dom)):
            assign[c] = dict(zip(dom, image))
            if consistent():
                yield from go(i + 1)
            del assign[c]

    yield from go(0)


def reference_enumerate_presheaves(base, max_size, budget=200_000):
    """Every labelled presheaf with value sets {0..k-1}, k <= max_size, by
    per-arrow backtracking that re-checks every composition-table entry.
    Raises CapExceeded under the rule of ``sheaf_targets``: when the
    labelled assignment space exceeds the budget."""
    non_id = [f for f in base.arrows if not base.is_identity(f)]
    sizes = list(itertools.product(range(max_size + 1), repeat=len(base.objects)))
    space = 0
    for combo in sizes:
        sz = dict(zip(base.objects, combo))
        space += min(budget + 1, math.prod(max(1, sz[base.src[f]]) ** sz[base.tgt[f]] for f in non_id))
        if space > budget:
            raise CapExceeded("presheaf enumeration space exceeds budget")
    for combo in sizes:
        sz = dict(zip(base.objects, combo))
        values = {c: tuple(str(i) for i in range(sz[c])) for c in base.objects}
        assign = {}

        def consistent():
            for (g, f), h in base.table.items():
                acts = []
                for a in (f, g, h):
                    if base.is_identity(a):
                        acts.append({v: v for v in values[base.src[a]]})
                    else:
                        acts.append(assign.get(a))
                fa, ga, ha = acts
                if fa is None or ga is None or ha is None:
                    continue
                for a in values[base.tgt[g]]:
                    if fa[ga[a]] != ha[a]:
                        return False
            return True

        def go(i):
            if i == len(non_id):
                yield validate_presheaf(base, values, {f: dict(m) for f, m in assign.items()})
                return
            f = non_id[i]
            dom = values[base.tgt[f]]
            cod = values[base.src[f]]
            if len(dom) > 0 and len(cod) == 0:
                return
            for image in itertools.product(cod, repeat=len(dom)):
                assign[f] = dict(zip(dom, image))
                if consistent():
                    yield from go(i + 1)
                del assign[f]

        yield from go(0)


def reference_unit_universal_property(p, topology, target):
    """Sheafify, then for every map p -> target scan Hom(sh, target) pairwise
    for the h with h . unit equal to it."""
    sh = sheafify(p, topology)
    factorisations = list(reference_presheaf_morphisms(sh.sheaf, target))
    for m in reference_presheaf_morphisms(p, target):
        hits = [
            h for h in factorisations
            if {c: {a: h[c][sh.unit[c][a]] for a in sh.unit[c]} for c in sh.unit} == m
        ]
        if len(hits) != 1:
            return False, ("factorisations", len(hits), tuple(sorted((c, tuple(sorted(v.items()))) for c, v in m.items())))
    return True, ()


def small_fuzzed_sites(count):
    """Fixed-seed sites with at most two objects, each with a presheaf."""
    caps = Caps(base_objects=2)
    out = []
    index = 0
    while len(out) < count:
        rng = random.Random(derive_seed(3, index))
        index += 1
        cat, topology = gen_site(rng, caps)
        if len(cat.objects) <= 2:
            out.append((cat, topology, gen_presheaf(rng, cat, 3)))
    return out


def ordered(p):
    return (list(p.values.items()), [(f, list(m.items())) for f, m in p.action.items()])


def canonical_form(p):
    """Brute force: the least, over all per-object relabellings, of the
    value sizes and the image tuples of the non-identity arrows in value-index
    order.  Two presheaves with the same value sets {0..k-1} are isomorphic
    iff their canonical forms are equal."""
    base = p.base
    non_id = [f for f in base.arrows if not base.is_identity(f)]
    index = {c: {a: i for i, a in enumerate(p.values[c])} for c in base.objects}
    sizes = tuple(len(p.values[c]) for c in base.objects)
    best = None
    for perms in itertools.product(*(itertools.permutations(range(n)) for n in sizes)):
        # to[c][i]: the new index of the i-th element of p(c)
        to = dict(zip(base.objects, perms))
        back = {c: sorted(range(len(m)), key=m.__getitem__) for c, m in to.items()}
        form = tuple(
            tuple(to[base.src[f]][index[base.src[f]][p.act(f, p.values[base.tgt[f]][i])]] for i in back[base.tgt[f]])
            for f in non_id
        )
        if best is None or form < best:
            best = form
    return sizes, best


def test_enumerate_presheaves_matches_the_full_scan_in_order():
    # one presheaf per isomorphism class: the first of its class in the
    # order of the all-labellings reference
    merged = 0
    for cat, _, _ in small_fuzzed_sites(60):
        ours = list(sheaf_targets(cat, trivial_topology(cat), 3))
        reference = list(reference_enumerate_presheaves(cat, 3))
        firsts = {}
        for q in reference:
            firsts.setdefault(canonical_form(q), q)
        assert [ordered(q) for q in ours] == [ordered(q) for q in firsts.values()]
        # every reference presheaf is isomorphic to exactly one yielded one
        yielded = Counter(canonical_form(q) for q in ours)
        assert all(yielded[canonical_form(q)] == 1 for q in reference)
        merged += len(reference) - len(ours)
    assert merged


def test_presheaf_morphisms_match_the_full_scan_in_order():
    for cat, _, p in small_fuzzed_sites(60):
        for q in reference_enumerate_presheaves(cat, 3):
            ours = [list((c, list(m.items())) for c, m in _as_components(p, h).items()) for h in _natural_maps(p, q)]
            oracle = [list((c, list(m.items())) for c, m in h.items()) for h in reference_presheaf_morphisms(p, q)]
            assert ours == oracle


def test_unit_universal_property_matches_the_pairwise_scan():
    # every enumerated target, not only sheaves, so failing verdicts with 0
    # and with several factorisations are compared as well
    seen = set()
    for cat, topology, p in small_fuzzed_sites(60):
        sh = sheafify(p, topology)
        for q in reference_enumerate_presheaves(cat, 3):
            ours = unit_universal_property(p, sh, q)
            assert ours == reference_unit_universal_property(p, topology, q)
            seen.add("ok" if ours[0] else min(ours[1][1], 2))
    assert seen == {"ok", 0, 2}


def reference_sheaf_targets(base, topology, max_size, budget=200_000):
    """The orderly stream of every presheaf up to isomorphism, filtered by
    is_sheaf: sheaf targets before the sheaf condition pruned the search."""
    return (q for q in sheaf_targets(base, trivial_topology(base), max_size, budget) if is_sheaf(q, topology)[0])


def counting_validations(monkeypatch):
    """Count the presheaves that finsite.presheaf builds through validate_presheaf."""
    built = Counter()
    real = presheaf.validate_presheaf

    def counted(*args):
        built["presheaves"] += 1
        return real(*args)

    monkeypatch.setattr(presheaf, "validate_presheaf", counted)
    return built


def reversed_arrow_order(cat):
    """The same category, its non-identity arrows renamed to sort in reverse."""
    non_id = [f for f in cat.arrows if not cat.is_identity(f)]
    name = {f: "r{:02d}".format(len(non_id) - k) for k, f in enumerate(non_id)}
    name.update((i, i) for i in cat.identity.values())
    return validate_category(
        cat.objects,
        {name[f]: (cat.src[f], cat.tgt[f]) for f in cat.arrows},
        cat.identity,
        {(name[g], name[f]): name[h] for (g, f), h in cat.table.items()},
    )


def reference_sheaf_targets_full_image_loop(base, topology, max_size, budget=200_000):
    """Sheaf targets as the search ran before the per-element candidates:
    every image tuple of an arrow is built as an action table, checked
    against every composition-table entry filed under the arrow, then put to
    the orbit test against the whole stabiliser of the prefix, and a least
    prefix is checked against the sheaf conditions it decides."""
    non_id = [f for f in base.arrows if not base.is_identity(f)]
    sizes = list(itertools.product(range(max_size + 1), repeat=len(base.objects)))
    space = 0
    for combo in sizes:
        per = 1
        sz = dict(zip(base.objects, combo))
        for f in non_id:
            per *= max(1, sz[base.src[f]]) ** sz[base.tgt[f]]
            if per > budget:
                break
        space += per
        if space > budget:
            raise CapExceeded("presheaf enumeration space exceeds budget")
    position = {f: i for i, f in enumerate(non_id)}
    entries = entries_by_last_arrow(base, non_id)
    decided = [[] for _ in non_id]
    singletons = []
    for c in base.objects:
        sieve = topology.least[c]
        if base.identity[c] in sieve:
            continue
        if not sieve:
            singletons.append(c)
            continue
        read = set(sieve).union(*(base.into(base.src[f]) for f in sieve))
        decided[max(position[a] for a in read if a in position)].append(c)
    fresh, slot = [], {}
    for f in non_id:
        fresh.append([c for c in dict.fromkeys((base.src[f], base.tgt[f])) if c not in slot])
        for c in fresh[-1]:
            slot[c] = len(slot)
    perms = [
        [(q, tuple(sorted(range(n), key=q.__getitem__))) for q in itertools.permutations(range(n))]
        for n in range(max_size + 1)
    ]

    def glues(p, c):
        sieve = topology.least[c]
        return all(len(amalgamations(p, c, sieve, fam)) == 1 for fam in matching_families(p, sieve))

    for combo in sizes:
        sz = dict(zip(base.objects, combo))
        if any(sz[c] != 1 for c in singletons):
            continue
        if any(sz[base.tgt[f]] and not sz[base.src[f]] for f in non_id):
            continue
        values = {c: tuple(str(i) for i in range(sz[c])) for c in base.objects}
        acts = {f: {v: v for v in values[base.src[f]]} for f in base.arrows if base.is_identity(f)}
        provisional = Presheaf(base, values, acts)

        def consistent(i):
            for g, f, h in entries[i]:
                for a in values[base.tgt[g]]:
                    if acts[f][acts[g][a]] != acts[h][a]:
                        return False
            return True

        def extend(i, group):
            if i == len(non_id):
                yield validate_presheaf(base, values, {f: dict(acts[f]) for f in non_id})
                return
            f = non_id[i]
            dom, cod = values[base.tgt[f]], values[base.src[f]]
            for c in fresh[i]:
                group = [sigma + (pair,) for sigma in group for pair in perms[sz[c]]]
            s, t = slot[base.src[f]], slot[base.tgt[f]]
            for image in itertools.product(range(len(cod)), repeat=len(dom)):
                acts[f] = {a: cod[x] for a, x in zip(dom, image)}
                if consistent(i):
                    fixing = []
                    for sigma in group:
                        to, back = sigma[s][0], sigma[t][1]
                        moved = tuple([to[image[j]] for j in back])
                        if moved < image:
                            break
                        if moved == image:
                            fixing.append(sigma)
                    else:
                        if all(glues(provisional, c) for c in decided[i]):
                            yield from extend(i + 1, fixing)
                del acts[f]

        yield from extend(0, [()])


def test_sheaf_targets_match_the_filtered_orderly_stream(monkeypatch):
    # fuzzed sites with up to three objects, in both arrow orders, under every
    # topology; a chain e -z-> d -a-> c whose arrow z into the source of
    # the cover member a sorts after every member of the cover {a, a.z} of c;
    # chain3 (a composite) and retract (an idempotent t.t = t, which the
    # entries filed before it already force, and an inverse pair e.m = id_r);
    # and the one-arrow monoids t.t = t and t.t = id, where t occurs twice in
    # the only entry, so it is checked on each image of t.  The stream is
    # the filtered orderly stream and the full image loop's, in the same
    # order, and only the yielded sheaves are ever built.
    built = counting_validations(monkeypatch)
    compared = pruned = 0
    chain = build_category(("c", "d", "e"), {"a": ("d", "c"), "b": ("e", "c"), "z": ("e", "d")}, {("a", "z"): "b"})
    monoids = [build_category(("x",), {"t": ("x", "x")}, {("t", "t"): h}) for h in ("t", "id_x")]
    corpus_cases = [(cat, 3) for cat in [corpus.chain3(), corpus.retract()] + monoids]
    fuzzed = [(base, 3) for cat, _, _ in fuzzed_site_presheaves(40) for base in (cat, reversed_arrow_order(cat))]
    for cat, max_size in [(chain, 2)] + corpus_cases + fuzzed:
        for topology in enumerate_topologies(cat):
            try:
                reference = list(reference_sheaf_targets(cat, topology, max_size, 20_000))
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    next(sheaf_targets(cat, topology, max_size, 20_000))
                with pytest.raises(CapExceeded):
                    next(reference_sheaf_targets_full_image_loop(cat, topology, max_size, 20_000))
                continue
            orderly = built["presheaves"]
            built.clear()
            ours = list(sheaf_targets(cat, topology, max_size, 20_000))
            assert [ordered(q) for q in ours] == [ordered(q) for q in reference]
            assert built["presheaves"] == len(ours)
            full = list(reference_sheaf_targets_full_image_loop(cat, topology, max_size, 20_000))
            assert [ordered(q) for q in full] == [ordered(q) for q in ours]
            built.clear()
            compared += 1
            pruned += orderly - len(ours)
    assert compared > 200 and pruned


def test_an_empty_least_cover_prunes_every_size_but_one(walk2, monkeypatch):
    # the empty sieve covers a: a sheaf has one element at a, any number at b
    topology = saturate(walk2, {"a": [[]]})
    assert topology.least["a"] == frozenset()
    reference = list(reference_sheaf_targets(walk2, topology, 3))
    built = counting_validations(monkeypatch)
    ours = list(sheaf_targets(walk2, topology, 3))
    assert [ordered(q) for q in ours] == [ordered(q) for q in reference]
    assert [len(q.values["b"]) for q in ours] == [0, 1, 2, 3]
    assert all(len(q.values["a"]) == 1 for q in ours)
    everything = list(sheaf_targets(walk2, trivial_topology(walk2), 3))
    assert built["presheaves"] == len(ours) + len(everything) and len(everything) > len(ours)


def test_sheaf_targets_keep_the_budget_on_the_labelled_space():
    # every sieve covers, so the one sheaf is the terminal presheaf; the
    # budget still bounds the labelled presheaf space
    cat = corpus.chain3()
    everything = saturate(cat, {c: [[]] for c in cat.objects})
    non_id = [f for f in cat.arrows if not cat.is_identity(f)]
    space = sum(
        math.prod(max(1, sz[cat.src[f]]) ** sz[cat.tgt[f]] for f in non_id)
        for sz in (dict(zip(cat.objects, combo)) for combo in itertools.product(range(4), repeat=len(cat.objects)))
    )
    targets = list(sheaf_targets(cat, everything, 3, space))
    assert [q.values for q in targets] == [{c: ("0",) for c in cat.objects}]
    for budget in (space - 1, 10):
        with pytest.raises(CapExceeded):
            next(sheaf_targets(cat, everything, 3, budget))
        with pytest.raises(CapExceeded):
            next(reference_enumerate_presheaves(cat, 3, budget))


def reference_matching_families(p, sieve):
    """Backtracking in sorted order that scans every compatibility triple
    after each assignment."""
    base = p.base
    members = sorted(sieve)
    pairs = []
    for f in members:
        for g in base.into(base.src[f]):
            fg = base.compose(f, g)
            if fg in sieve:
                pairs.append((f, g, fg))
    out = []
    assign = {}

    def ok(f):
        for (a, g, ag) in pairs:
            if a in assign and ag in assign and (a == f or ag == f):
                if p.act(g, assign[a]) != assign[ag]:
                    return False
        return True

    def go(i):
        if i == len(members):
            out.append(dict(assign))
            return
        f = members[i]
        for v in p.values[base.src[f]]:
            assign[f] = v
            if ok(f):
                go(i + 1)
            del assign[f]

    go(0)
    return out


def test_matching_families_match_the_triple_scan_in_order():
    count = 0
    for cat, topology, presheaves in fuzzed_site_presheaves(60):
        for q in presheaves:
            for c in cat.objects:
                for sieve in (topology.least[c], maximal_sieve(cat, c)):
                    ours = matching_families(q, sieve)
                    assert [list(fam.items()) for fam in ours] == [
                        list(fam.items()) for fam in reference_matching_families(q, sieve)
                    ]
                    count += len(ours)
    assert count


def reference_assignments(domains, links):
    """Every tuple of the product of the domains that keeps every link."""
    every = [link for filed in links for link in filed]
    return [a for a in itertools.product(*domains) if all(a[x] == table[a[y]] for x, table, y in every)]


def random_links(rng, domains):
    """Links (x, table, y) filed under max(x, y); a table maps y's domain mostly
    into x's domain, sometimes to a value outside it."""
    links = [[] for _ in domains]
    for _ in range(rng.randint(0, 2 * len(domains))):
        x, y = rng.randrange(len(domains)), rng.randrange(len(domains))
        table = {b: rng.choice(domains[x] or ("z",)) if rng.random() < 0.9 else "z" for b in domains[y]}
        links[max(x, y)].append((x, table, y))
    return links


def test_assignments_match_the_filtered_product_in_order():
    rng = random.Random(2)
    cases = [([], []), ([()], [[]]), ([("a", "b")], [[]])]
    for _ in range(300):
        domains = [tuple(rng.sample("abcd", rng.randint(1, 3))) for _ in range(rng.randint(1, 5))]
        cases.append((domains, random_links(rng, domains)))
        # the same slots with the first, then the last, domain emptied
        for k in (0, len(domains) - 1):
            emptied = domains[:k] + [()] + domains[k + 1 :]
            cases.append((emptied, random_links(rng, emptied)))
    later = Counter()
    partial = 0
    for domains, links in cases:
        ours = list(_assignments(domains, links))
        assert ours == reference_assignments(domains, links)
        partial += 0 < len(ours) < math.prod(map(len, domains))
        later.update("x" if x > y else "y" if y > x else "same" for filed in links for x, _, y in filed)
    assert list(_assignments([], [])) == [()]
    assert list(_assignments([()], [[]])) == [] and list(_assignments([("a", "b"), ()], [[], []])) == []
    assert later["x"] and later["y"] and later["same"] and partial


def reference_validate_presheaf(base, values, action):
    """validate_presheaf checking every composition-table entry."""
    values = {c: tuple(v) for c, v in values.items()}
    action = {f: dict(m) for f, m in action.items()}
    for c in base.objects:
        if c not in values:
            raise StructureError("missing value set at {}".format(c), witness=c)
        if len(set(values[c])) != len(values[c]):
            raise StructureError("duplicate elements at {}".format(c), witness=c)
    for f in base.arrows:
        if base.is_identity(f):
            action.setdefault(f, {a: a for a in values[base.src[f]]})
    for f in base.arrows:
        m = action.get(f)
        if m is None:
            raise StructureError("missing action along {}".format(f), witness=f)
        s, t = base.src[f], base.tgt[f]
        if set(m) != set(values[t]) or not set(m.values()) <= set(values[s]):
            raise StructureError("action along {} is not a map values({}) -> values({})".format(f, t, s), witness=f)
    for c in base.objects:
        i = base.identity[c]
        if action[i] != {a: a for a in values[c]}:
            raise StructureError("identity action at {} is not the identity".format(c), witness=c)
    for (g, f), h in base.table.items():
        fa, ga, ha = action[f], action[g], action[h]
        for a in values[base.tgt[g]]:
            if fa[ga[a]] != ha[a]:
                raise StructureError("actions not functorial on ({}, {})".format(g, f), witness=(g, f))
    return Presheaf(base, values, action)


def validation_outcome(check, base, values, action):
    try:
        out = check(base, values, action)
    except StructureError as exc:
        return "refused", str(exc), exc.witness
    return "accepted", list(out.values.items()), [(f, list(m.items())) for f, m in out.action.items()]


# the opening words of each refusal of validate_presheaf
REFUSALS = (
    "missing value set",
    "duplicate elements",
    "missing action",
    "action along",
    "identity action",
    "actions not functorial",
)


def refusal(outcome):
    if outcome[0] == "accepted":
        return "accepted"
    return next(kind for kind in REFUSALS if outcome[1].startswith(kind))


def broken_copies(rng, q):
    """(how, values, action): q's own tables, then copies broken in one place
    by redirecting one element of one action (identities included), dropping
    a value set, repeating an element, dropping an action, or making an
    action a non-map by a missing key, an extra key or a value outside its
    codomain.  A break that q has no room for is left out."""
    cat = q.base

    def tables():
        return dict(q.values), {f: dict(m) for f, m in q.action.items()}

    out = [("none", *tables())]
    for _ in range(3):
        f = rng.choice(cat.arrows)
        if q.action[f] and len(q.values[cat.src[f]]) > 1:
            values, action = tables()
            a = rng.choice(sorted(action[f]))
            action[f][a] = rng.choice([b for b in q.values[cat.src[f]] if b != action[f][a]])
            out.append(("redirected", values, action))
    c = rng.choice(cat.objects)
    values, action = tables()
    del values[c]
    out.append(("dropped value set", values, action))
    if q.values[c]:
        values, action = tables()
        values[c] += values[c][:1]
        out.append(("repeated element", values, action))
    f = rng.choice(cat.arrows)
    values, action = tables()
    del action[f]
    out.append(("dropped action", values, action))
    if q.action[f]:
        values, action = tables()
        del action[f][rng.choice(sorted(action[f]))]
        out.append(("missing key", values, action))
        values, action = tables()
        action[f][rng.choice(sorted(action[f]))] = "outside"
        out.append(("value outside the codomain", values, action))
    if q.values[cat.src[f]]:
        values, action = tables()
        action[f]["extra"] = q.values[cat.src[f]][0]
        out.append(("extra key", values, action))
    return out


def test_validate_presheaf_matches_the_full_entry_scan():
    # every presheaf of size at most 2 on fuzzed sites, and copies of each
    # broken in one place; every refusal is compared with the reference
    rng = random.Random(11)
    outcomes = Counter()
    sites = [(cat, presheaves) for cat, _, presheaves in fuzzed_site_presheaves(60)]
    sites += [(cat, list(reference_enumerate_presheaves(cat, 2))) for cat in (corpus.iso2(), corpus.retract())]
    for cat, presheaves in sites:
        for q in presheaves:
            for how, values, action in broken_copies(rng, q):
                ours = validation_outcome(validate_presheaf, cat, values, action)
                assert ours == validation_outcome(reference_validate_presheaf, cat, values, action)
                outcomes[how, refusal(ours)] += 1
    assert {kind for _, kind in outcomes} == {"accepted", *REFUSALS}
    # each break is refused, at least once, by the check that it targets
    for how, kind in [
        ("dropped value set", "missing value set"),
        ("repeated element", "duplicate elements"),
        ("dropped action", "missing action"),
        ("missing key", "action along"),
        ("extra key", "action along"),
        ("value outside the codomain", "action along"),
        ("redirected", "identity action"),
        ("redirected", "actions not functorial"),
    ]:
        assert outcomes[how, kind], (how, kind)


# ---------------------------------------------------------------------------
# Differential oracles: the plus construction by classes of (cover, matching
# family) under common-refinement agreement, and the sheaf condition on every
# cover, which the least-cover versions in finsite.presheaf replaced.


def reference_plus(p, topology):
    """Union-find over all (cover, family) pairs; a class is named by its
    canonical member (largest cover, then lexicographic).  Returns the
    presheaf, the unit and the class name of every (cover, family) pair."""
    base = p.base
    pairs_at = {}
    for c in base.objects:
        pairs = []
        for sieve in topology.sieves(c):
            for fam in matching_families(p, sieve):
                pairs.append((sieve, fam))
        pairs_at[c] = pairs
    parent = {}

    def fam_key(fam):
        return tuple(sorted(fam.items()))

    def key(c, sieve, fam):
        return (c, tuple(sorted(sieve)), fam_key(fam))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for c in base.objects:
        for sieve, fam in pairs_at[c]:
            parent.setdefault(key(c, sieve, fam), key(c, sieve, fam))
        pairs = pairs_at[c]
        for i, (s1, f1) in enumerate(pairs):
            for (s2, f2) in pairs[i + 1 :]:
                meet = s1 & s2
                agree = False
                for s3 in topology.covers[c]:
                    if s3 <= meet and all(f1[a] == f2[a] for a in s3):
                        agree = True
                        break
                if agree:
                    union(key(c, s1, f1), key(c, s2, f2))
    classes = {c: {} for c in base.objects}
    for c in base.objects:
        for sieve, fam in pairs_at[c]:
            k = key(c, sieve, fam)
            classes[c].setdefault(find(k), []).append((sieve, fam))

    def canonical(members):
        best = None
        for sieve, fam in members:
            cand = (-len(sieve), tuple(sorted(sieve)), fam_key(fam))
            if best is None or cand < best:
                best = cand
        return (tuple(best[1]), best[2])

    values = {}
    class_of = {c: {} for c in base.objects}
    for c in base.objects:
        reps = sorted(canonical(m) for m in classes[c].values())
        names = {rep: "s{}".format(i) for i, rep in enumerate(reps)}
        values[c] = tuple(names[rep] for rep in reps)
        for root, members in classes[c].items():
            nm = names[canonical(members)]
            for sieve, fam in members:
                class_of[c][(tuple(sorted(sieve)), fam_key(fam))] = nm
    action = {}
    rep_pair = {c: {} for c in base.objects}
    for c in base.objects:
        for (skey, fkey), nm in class_of[c].items():
            rep_pair[c].setdefault(nm, (skey, fkey))
    for f in base.arrows:
        s, t = base.src[f], base.tgt[f]
        m = {}
        for nm in values[t]:
            skey, fkey = rep_pair[t][nm]
            sieve = frozenset(skey)
            fam = dict(fkey)
            pb = pullback_arrows(base, f, sieve)
            pulled = {g: fam[base.compose(f, g)] for g in pb}
            m[nm] = class_of[s][(tuple(sorted(pb)), fam_key(pulled))]
        action[f] = m
    out = validate_presheaf(base, values, action)
    unit = {}
    for c in base.objects:
        top = maximal_sieve(base, c)
        unit[c] = {}
        for a in p.values[c]:
            fam = {f: p.act(f, a) for f in top}
            unit[c][a] = class_of[c][(tuple(sorted(top)), fam_key(fam))]
    return out, unit, class_of


def reference_is_sheaf(p, topology):
    """The sheaf condition on every cover, smallest covers first."""
    for c in p.base.objects:
        for sieve in topology.sieves(c):
            for fam in matching_families(p, sieve):
                glue = amalgamations(p, c, sieve, fam)
                if len(glue) != 1:
                    kind = "no_amalgamation" if not glue else "ambiguous_amalgamation"
                    return False, (kind, (c, tuple(sorted(sieve)), tuple(sorted(fam.items())), tuple(glue)))
    return True, ()


def fuzzed_site_presheaves(count, budget=100):
    """Fixed-seed sites with at most three objects, each with every presheaf
    of size at most 2 when that is within budget, else 20 random ones."""
    caps = Caps(base_objects=3)
    out = []
    index = 0
    while len(out) < count:
        rng = random.Random(derive_seed(4, index))
        index += 1
        cat, topology = gen_site(rng, caps)
        if len(cat.objects) > 3:
            continue
        try:
            presheaves = list(reference_enumerate_presheaves(cat, 2, budget))
        except CapExceeded:
            presheaves = [gen_presheaf(rng, cat, 2) for _ in range(20)]
        out.append((cat, topology, presheaves))
    return out


def assert_plus_matches_the_reference(q, topology):
    """s<i> at c, the i-th matching family on S(c), goes to the reference
    class of (S(c), that family); this must be a bijection that commutes
    with the unit and with every action."""
    ours = plus(q, topology)
    ref, ref_unit, class_of = reference_plus(q, topology)
    base = q.base
    iso = {}
    for c in base.objects:
        least = topology.least[c]
        fams = sorted(tuple(sorted(fam.items())) for fam in matching_families(q, least))
        names = tuple("s{}".format(i) for i in range(len(fams)))
        assert ours.presheaf.values[c] == names
        iso[c] = {nm: class_of[c][(tuple(sorted(least)), k)] for nm, k in zip(names, fams)}
        assert sorted(iso[c].values()) == sorted(ref.values[c])
    for c in base.objects:
        for a in q.values[c]:
            assert iso[c][ours.unit[c][a]] == ref_unit[c][a]
    for f in base.arrows:
        s, t = base.src[f], base.tgt[f]
        for x in ours.presheaf.values[t]:
            assert iso[s][ours.presheaf.act(f, x)] == ref.act(f, iso[t][x])
    return ours


def test_plus_matches_the_refinement_classes():
    # both applications of sheafify: plus of p, then plus of that
    resized = 0
    for cat, topology, presheaves in fuzzed_site_presheaves(150):
        for q in presheaves:
            once = assert_plus_matches_the_reference(q, topology)
            assert_plus_matches_the_reference(once.presheaf, topology)
            resized += any(len(once.presheaf.values[c]) != len(q.values[c]) for c in cat.objects)
    assert resized


def test_is_sheaf_matches_the_all_covers_check():
    verdicts = Counter()
    for cat, topology, presheaves in fuzzed_site_presheaves(150):
        for q in presheaves:
            ok, witness = is_sheaf(q, topology)
            assert ok == reference_is_sheaf(q, topology)[0]
            verdicts[ok] += 1
            if ok:
                continue
            kind, (c, sieve, fam, glue) = witness
            assert sieve == tuple(sorted(topology.least[c]))
            assert dict(fam) in matching_families(q, frozenset(sieve))
            found = amalgamations(q, c, frozenset(sieve), dict(fam))
            assert len(found) != 1 and tuple(found) == glue
            assert kind == ("no_amalgamation" if not found else "ambiguous_amalgamation")
    assert verdicts[True] and verdicts[False]


def test_every_labelled_presheaf_is_a_sheaf_for_the_trivial_topology():
    # the least cover of every object is maximal, so is_sheaf checks nothing;
    # the all-covers check still looks at every matching family
    count = 0
    for cat, _, _ in small_fuzzed_sites(60):
        topology = trivial_topology(cat)
        for q in reference_enumerate_presheaves(cat, 3):
            assert is_sheaf(q, topology) == (True, ())
            assert reference_is_sheaf(q, topology) == (True, ())
            count += 1
    assert count


# ---------------------------------------------------------------------------
# Witnesses under isomorph-free targets: both oracles are invariant under
# relabelling, so the first failing labelled sheaf target is the first of its
# class, and sheaf_targets yields it with the same verdict.  Value-set sizes
# are invariant too, so this holds within each size combination.


def first_failures(targets, verdict):
    """For each combination of value-set sizes, in stream order, the first
    target that fails and its verdict."""
    out = {}
    for q in targets:
        sizes = tuple(len(v) for v in q.values.values())
        if sizes not in out:
            result = verdict(q)
            if not result[0]:
                out[sizes] = (ordered(q), result)
    return out


def labelled_sheaf_targets(base, topology, max_size, budget):
    return (q for q in reference_enumerate_presheaves(base, max_size, budget) if is_sheaf(q, topology)[0])


def same_first_failures(base, topology, verdict, max_size, budget):
    """The labelled stream and sheaf_targets fail first on the same target with
    the same verdict, overall and per size combination; returns how many size
    combinations fail."""
    try:
        labelled = first_failures(labelled_sheaf_targets(base, topology, max_size, budget), verdict)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            next(sheaf_targets(base, topology, max_size, budget))
        return 0
    ours = first_failures(sheaf_targets(base, topology, max_size, budget), verdict)
    assert list(ours.items()) == list(labelled.items())
    return len(labelled)


def fuzzed_site_functors():
    """Fuzzed site functors, and identities between every pair of topologies
    on small fuzzed sites, continuous or not."""
    functors = []
    for index in range(150):
        try:
            inst = generate_instance("site-functor", derive_seed(9, index), Caps(base_objects=3))
        except GenerationError:
            continue
        functors.append(SiteFunctor(inst["functor"], inst["source_topology"], inst["target_topology"]))
    for cat, _, _ in small_fuzzed_sites(60):
        topologies = list(enumerate_topologies(cat))
        functors.extend(SiteFunctor(identity_functor(cat), j, k) for j in topologies for k in topologies)
    return functors


def test_sheaf_targets_keep_the_first_failing_target_of_a_restriction():
    # site functors that are not continuous, so that restricting a sheaf can
    # give a presheaf that is not a sheaf
    failing = []
    for sf in fuzzed_site_functors():
        if is_continuous(sf).ok:
            continue

        def restricts_to_a_sheaf(q):
            return is_sheaf(precompose(q, sf.functor), sf.source_topology)

        failing.append(same_first_failures(sf.functor.target, sf.target_topology, restricts_to_a_sheaf, 3, 3000))
    assert max(failing) > 1


def reference_unpreserved_sheaf(functor, source_topology, targets):
    """The continuity cross-check before it checked each distinct restriction
    once: every target is restricted and checked, in order."""
    for q in targets:
        ok, witness = is_sheaf(precompose(q, functor), source_topology)
        if not ok:
            return witness
    return None


def test_cross_check_matches_a_check_of_every_target(monkeypatch):
    # continuous functors and, run past the experiment's continuity gate,
    # others whose restrictions can fail: the first failure and its witness
    # are the same, and a pass checks fewer restrictions than there are targets
    checks = []

    def counted_is_sheaf(p, topology):
        checks.append(p)
        return is_sheaf(p, topology)

    monkeypatch.setattr(experiments, "is_sheaf", counted_is_sheaf)
    outcomes = Counter()
    for sf in fuzzed_site_functors():
        try:
            targets = list(sheaf_targets(sf.functor.target, sf.target_topology, 3, 3000))
        except CapExceeded:
            continue
        checks.clear()
        ours = experiments._unpreserved_sheaf(sf.functor, sf.source_topology, targets)
        assert ours == reference_unpreserved_sheaf(sf.functor, sf.source_topology, targets)
        outcomes[is_continuous(sf).ok, ours is None] += 1
        if ours is None:
            outcomes["targets"] += len(targets)
            outcomes["checks"] += len(checks)
    assert outcomes[True, True] and outcomes[False, False] and not outcomes[True, False]
    assert outcomes["checks"] < outcomes["targets"]


def test_sheaf_targets_keep_the_first_failing_target_of_a_mismatched_unit():
    # the sheafification for another topology is not universal for the sheaves
    # of this one
    failing = []
    for cat, topology, p in small_fuzzed_sites(60):
        for other in enumerate_topologies(cat):
            sh = sheafify(p, other)
            failing.append(same_first_failures(cat, topology, lambda q: unit_universal_property(p, sh, q), 3, 200_000))
    assert max(failing) > 1
