
import functools
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from finsite import corpus
from finsite import sieves
from finsite.deciders import SiteFunctor, is_dense_morphism
from finsite.fibration import cartesian_lift_name, direct_image, giraud_topology, grothendieck
from finsite.fincat import StructureError, build_category, full_subcategory, identity_functor, validate_functor
from finsite.generate import (
    Caps,
    GenerationError,
    constant_indexed,
    derive_seed,
    generate_instance,
    min_comorphism_topology,
    pushforward_topology,
    shrink_fibration,
    shrink_site,
)
from finsite.sieves import (
    CapExceeded,
    Topology,
    InducedTopologyError,
    _least_cover_failure,
    generate_sieve,
    image_cover_meet,
    image_sieve,
    induced_image_topology,
    is_topology,
    maximal_sieve,
    pullback_arrows,
    saturate,
    sieve_lattice,
    sieve_without,
    topology_candidate_count,
    topology_leq,
    trivial_topology,
)
from test_verify import comorphism_instance, elements_of_sieve, enumerate_topologies


def validate_sieve(base, apex, arrows):
    """Check that ``arrows`` is a sieve on ``apex``, naming the first escape."""
    arrows = frozenset(arrows)
    for f in sorted(arrows):
        if base.tgt[f] != apex:
            raise StructureError("arrow {} does not target the apex {}".format(f, apex), witness=f)
        for g in base.into(base.src[f]):
            if base.compose(f, g) not in arrows:
                raise StructureError(
                    "not precomposition-closed: {} o {} escapes".format(f, g), witness=(f, g)
                )
    return arrows


def least_generators(top):
    """The least covers of a topology as a coverage: one family per object."""
    return {c: [top.least[c]] for c in top.base.objects}


def test_generate_sieve_from_identity_is_maximal(walk2):
    s = generate_sieve(walk2, "b", ("id_b",))
    assert s == maximal_sieve(walk2, "b") == frozenset({"id_b", "u"})


def test_generate_sieve_from_u(walk2):
    assert generate_sieve(walk2, "b", ("u",)) == frozenset({"u"})


def test_generate_empty_sieve(walk2):
    assert generate_sieve(walk2, "b", ()) == frozenset()


def test_generate_sieve_rejects_mixed_targets(walk2):
    with pytest.raises(StructureError, match="mixed targets"):
        generate_sieve(walk2, "b", ("id_a",))


def test_sieve_closure_is_validated(walk2):
    with pytest.raises(StructureError, match="precomposition"):
        validate_sieve(walk2, "b", {"id_b"})


def test_pullback_along_identity(walk2):
    s = generate_sieve(walk2, "b", ("u",))
    assert pullback_arrows(walk2, "id_b", s) == s


def test_pullback_of_maximal_is_maximal(walk2):
    s = maximal_sieve(walk2, "b")
    assert pullback_arrows(walk2, "u", s) == maximal_sieve(walk2, "a")


def test_pullback_of_generated_u_along_u(walk2):
    s = generate_sieve(walk2, "b", ("u",))
    assert pullback_arrows(walk2, "u", s) == frozenset({"id_a"})


def test_saturate_empty_coverage_is_trivial(walk2):
    assert saturate(walk2, {}) == trivial_topology(walk2)


def test_saturate_rejects_an_unknown_object(walk2):
    with pytest.raises(StructureError, match="coverage indexes unknown object z") as err:
        saturate(walk2, {"z": [[]]})
    assert err.value.witness == "z"


def test_saturate_rejects_a_member_with_another_target(walk2):
    with pytest.raises(StructureError, match="family member id_a does not target b") as err:
        saturate(walk2, {"b": [["u", "id_a"]]})
    assert err.value.witness == "id_a"


def test_saturate_rejects_a_member_that_is_not_an_arrow(walk2):
    with pytest.raises(StructureError, match="family member v is not an arrow") as err:
        saturate(walk2, {"b": [["u"], ["v"]]})
    assert err.value.witness == "v"


def test_saturate_sier_by_hand(walk2):
    top = saturate(walk2, {"b": [["u"]]})
    assert top.covers["b"] == frozenset({frozenset({"u"}), frozenset({"u", "id_b"})})
    assert top.covers["a"] == frozenset({frozenset({"id_a"})})


def test_saturate_empty_family_forces_everything(walk2):
    top = saturate(walk2, {"b": [[]]})
    # empty sieve covers b; transitivity then makes every sieve on b covering,
    # and stability pushes the empty sieve down to a
    assert top.covers["b"] == frozenset(sieve_lattice(walk2, "b"))
    assert top.covers["a"] == frozenset(sieve_lattice(walk2, "a"))


def test_is_topology_on_trivial(walk2):
    ok, witness = is_topology(walk2, trivial_topology(walk2).covers)
    assert ok and witness == ()


def test_is_topology_missing_maximality(walk2):
    covers = {
        "a": frozenset({maximal_sieve(walk2, "a")}),
        "b": frozenset({frozenset({"u"})}),
    }
    ok, witness = is_topology(walk2, covers)
    assert not ok
    assert witness == ("maximality", "b")


def test_saturate_output_is_topology(walk2, retract):
    for base, gens in ((walk2, {"b": [["u"]]}), (retract, {"s": [["m"]]})):
        top = saturate(base, gens)
        ok, witness = is_topology(base, top.covers)
        assert ok, witness


def test_induced_topology_along_identity(walk2, sier):
    assert induced_image_topology(identity_functor(walk2), sier) == sier


def test_induced_topology_along_bang_is_sier(walk2, one, sier):
    induced = induced_image_topology(corpus.bang(walk2), trivial_topology(one))
    assert induced == sier


def test_induced_topology_restricts_dense_subcategory(retract):
    top = corpus.retract_topology(retract)
    sub = full_subcategory(retract, ["r"])
    inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, sub, retract)
    induced = induced_image_topology(inclusion, top)
    manual = {
        c: frozenset(
            s
            for s in sieve_lattice(sub, c)
            if top.is_cover(c, generate_sieve(retract, c, sorted(s)))
        )
        for c in sub.objects
    }
    assert induced.covers == manual


# ---------------------------------------------------------------------------
# The meet of the image covers against the sieve-lattice walks it replaced


def reference_induced_image_topology(functor, target_topology):
    """Every sieve whose generated image covers, checked by ``is_topology``."""
    src = functor.source
    covers = {}
    for c in src.objects:
        covers[c] = frozenset(
            s
            for s in sieve_lattice(src, c)
            if target_topology.is_cover(functor.ob(c), image_sieve(functor, c, s))
        )
    ok, witness = is_topology(src, covers)
    if not ok:
        raise InducedTopologyError("candidate not a topology: {}".format(witness), witness=witness)
    return Topology(src, {c: frozenset.intersection(*covers[c]) for c in src.objects})


def reference_reflects_covers(functor, j_src, j_tgt):
    """The first (object, sieve) whose image covers while the sieve does not,
    in sieve-lattice order; None when covers are reflected."""
    for c in functor.source.objects:
        for sieve in sieve_lattice(functor.source, c):
            if j_tgt.is_cover(functor.ob(c), image_sieve(functor, c, sieve)) and not j_src.is_cover(c, sieve):
                return c, sieve
    return None


def span_onto_an_arrow():
    """f1: a1 -> c and f2: a2 -> c both sent to p: Y -> X, with {p} covering X.

    The sieves {f1} and {f2} have covering images, but their meet, the empty
    sieve, has not."""
    src = build_category(("a1", "a2", "c"), {"f1": ("a1", "c"), "f2": ("a2", "c")})
    tgt = build_category(("Y", "X"), {"p": ("Y", "X")})
    functor = validate_functor(
        {"a1": "Y", "a2": "Y", "c": "X"},
        {"id_a1": "id_Y", "id_a2": "id_Y", "id_c": "id_X", "f1": "p", "f2": "p"},
        src,
        tgt,
    )
    return functor, saturate(tgt, {"X": [["p"]]})


def corpus_induction_cases():
    """(functor, source topology, target topology) from the corpus cases of
    the sieve and decider tests."""
    walk2, one, retract = corpus.walk2(), corpus.one(), corpus.retract()
    sier, retract_top = corpus.sier(walk2), corpus.retract_topology(retract)
    r_inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, full_subcategory(retract, ["r"]), retract)
    a_inclusion = validate_functor({"a": "a"}, {"id_a": "id_a"}, full_subcategory(walk2, ["a"]), walk2)
    span, span_top = span_onto_an_arrow()
    cases = [
        (identity_functor(walk2), sier, sier),
        (identity_functor(walk2), trivial_topology(walk2), sier),
        (corpus.bang(walk2), sier, trivial_topology(one)),
        (r_inclusion, trivial_topology(r_inclusion.source), retract_top),
        (a_inclusion, trivial_topology(a_inclusion.source), trivial_topology(walk2)),
        (span, trivial_topology(span.source), span_top),
    ]
    two_point = corpus.two_point(walk2)
    bundle = grothendieck(two_point)
    cases.append((bundle.projection, giraud_topology(two_point, sier), sier))
    induced = induced_image_topology(r_inclusion, retract_top)
    cases.append((r_inclusion, induced, retract_top))
    fib = corpus.discrete(("m0", "m1"))
    cix = constant_indexed(retract, fib)
    di = direct_image(cix, r_inclusion)
    cases.append((di.q, giraud_topology(di.indexed, induced), giraud_topology(cix, retract_top)))
    return cases


def site_functor_cases():
    """The site-functor instances of seeds 0-499 with at most three objects per site."""
    cases = []
    for seed in range(500):
        try:
            inst = generate_instance("site-functor", seed, Caps(base_objects=3))
        except (GenerationError, CapExceeded):
            continue
        cases.append((seed, inst["functor"], inst["source_topology"], inst["target_topology"]))
    return cases


def assert_meet_matches_the_lattice_walks(functor, j_src, j_tgt):
    """Compare induction and reflection with their references; return the
    induced witness, or () for a topology, and whether covers are reflected."""
    try:
        expected = reference_induced_image_topology(functor, j_tgt)
    except InducedTopologyError:
        expected = None
    try:
        induced = induced_image_topology(functor, j_tgt)
        outcome = ()
    except InducedTopologyError as exc:
        induced, outcome = None, exc.witness
    assert induced == expected
    src = functor.source
    for c in src.objects:
        covering = [s for s in sieve_lattice(src, c) if j_tgt.is_cover(functor.ob(c), image_sieve(functor, c, s))]
        meet = frozenset(src.into(c)).intersection(*covering)
        assert image_cover_meet(functor, j_tgt, c) == meet
    failure = reference_reflects_covers(functor, j_src, j_tgt)
    verdict = is_dense_morphism(SiteFunctor(functor, j_src, j_tgt))
    if verdict.witness[:1] != ("not_morphism_of_sites",):
        assert (verdict.witness[:1] == ("cover_not_reflected",)) == (failure is not None)
    if failure is not None and verdict.witness[:1] == ("cover_not_reflected",):
        _, c, sieve = verdict.witness
        assert c == failure[0]
        assert j_tgt.is_cover(functor.ob(c), image_sieve(functor, c, sieve))
        assert not j_src.is_cover(c, frozenset(sieve))
    return outcome, failure is None


def test_induced_topology_and_reflection_match_the_lattice_walks_on_the_corpus():
    outcomes = [assert_meet_matches_the_lattice_walks(*case) for case in corpus_induction_cases()]
    assert ((), True) in outcomes
    assert ("meet_not_a_cover", "c") in [witness for witness, _ in outcomes]
    assert not all(reflects for _, reflects in outcomes)


def test_induced_topology_on_a_span_onto_one_arrow():
    functor, top = span_onto_an_arrow()
    with pytest.raises(InducedTopologyError) as reference:
        reference_induced_image_topology(functor, top)
    assert reference.value.witness == ("stability", ("c", ("f1",), "f2"))
    assert image_cover_meet(functor, top, "c") == frozenset()
    assert sieve_without(functor.source, "c", "f1") == frozenset({"f2"})
    with pytest.raises(InducedTopologyError) as raised:
        induced_image_topology(functor, top)
    assert raised.value.witness == ("meet_not_a_cover", "c")


def test_induced_topology_and_reflection_match_the_lattice_walks_on_fuzzed_site_functors():
    not_principal, not_a_topology, not_reflected = [], [], 0
    for seed, functor, j_src, j_tgt in site_functor_cases():
        outcome, reflects = assert_meet_matches_the_lattice_walks(functor, j_src, j_tgt)
        if outcome[:1] == ("meet_not_a_cover",):
            not_principal.append(seed)
        elif outcome:
            not_a_topology.append(seed)
        not_reflected += not reflects
    assert (len(not_principal), not_principal[0]) == (15, 12)
    assert not_a_topology == [170, 452]
    assert not_reflected == 230


def test_topology_leq_examples(walk2, sier):
    assert topology_leq(trivial_topology(walk2), sier)
    assert not topology_leq(sier, trivial_topology(walk2))


def test_enumerate_topologies_on_one(one):
    tops = list(enumerate_topologies(one))
    assert len(tops) == 2


def test_enumerate_topologies_on_walk2(walk2, sier):
    tops = list(enumerate_topologies(walk2))
    assert trivial_topology(walk2) in tops
    assert sier in tops
    assert len(tops) == 4


def reference_upsets(lattice, top):
    """Independent oracle: every family of non-maximal sieves, kept when upward closed."""
    out = []
    others = [s for s in lattice if s != top]
    for bits in range(1 << len(others)):
        fam = {top} | {s for i, s in enumerate(others) if bits >> i & 1}
        if all(t in fam for s in fam for t in lattice if s <= t):
            out.append(frozenset(fam))
    out.sort(key=lambda fam: (len(fam), tuple(sorted(tuple(sorted(s)) for s in fam))))
    return out


def reference_upsets_per_object(base):
    return [reference_upsets(sieve_lattice(base, c), maximal_sieve(base, c)) for c in base.objects]


def reference_candidate_count(base):
    total = 1
    for upsets in reference_upsets_per_object(base):
        total *= len(upsets)
        if total > 10**9:
            return total
    return total


def reference_enumerate_topologies(base):
    for combo in itertools.product(*reference_upsets_per_object(base)):
        covers = dict(zip(base.objects, combo))
        if is_topology(base, covers)[0]:
            top = Topology(base, {c: frozenset.intersection(*fam) for c, fam in covers.items()})
            assert top.covers == covers
            yield top


def fuzzed_bases(instances):
    """Distinct fixed-seed fibration bases and total categories with at most 14 sieves per object."""
    out = {}
    for index in range(instances):
        try:
            inst = generate_instance("fibration", derive_seed(5, index), Caps())
        except (GenerationError, CapExceeded):
            continue
        for cat in (inst["indexed"].base, grothendieck(inst["indexed"]).total):
            if all(len(sieve_lattice(cat, c)) <= 14 for c in cat.objects):
                out.setdefault(cat, None)
    return list(out)


def minimality_seed1_total():
    """The def-2.5-minimality seed-1 total category with a 22-sieve lattice."""
    inst = generate_instance("fibration", derive_seed(1, 4), replace(Caps(), base_objects=3, fiber_objects=2))
    return grothendieck(inst["indexed"]).total


@pytest.mark.parametrize("name, expected", [("one-trivial", 2), ("walk2-sier", 6), ("chain3", 24), ("retract", 6)])
def test_topology_candidate_count_on_the_corpus(name, expected):
    base = {n: cat for n, cat, _ in corpus.corpus_sites()}[name]
    assert topology_candidate_count(base) == expected


def test_topology_candidate_count_matches_the_subset_filter():
    for base in fuzzed_bases(200):
        assert topology_candidate_count(base) == reference_candidate_count(base)


def enumerable_bases():
    """The corpus sites and the fuzzed bases with at most 2000 candidate topologies."""
    bases = [base for _, base, _ in corpus.corpus_sites()]
    return bases + [base for base in fuzzed_bases(200) if topology_candidate_count(base) <= 2000]


def test_enumerate_topologies_matches_the_subset_filter_in_order():
    for base in enumerable_bases():
        assert list(enumerate_topologies(base)) == list(reference_enumerate_topologies(base))


def test_least_cover_filter_agrees_with_is_topology_on_every_candidate():
    verdicts = set()
    for base in enumerable_bases():
        lattices = [sieve_lattice(base, c) for c in base.objects]
        for least in itertools.product(*lattices):
            upsets = [frozenset(t for t in lat if s <= t) for s, lat in zip(least, lattices)]
            expected = is_topology(base, dict(zip(base.objects, upsets)))[0]
            assert (not _least_cover_failure(base, dict(zip(base.objects, least)))) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_topology_candidate_count_on_a_22_sieve_lattice():
    total = minimality_seed1_total()
    sizes = {c: len(sieve_lattice(total, c)) for c in total.objects}
    assert max(sizes.values()) == 22
    # 156 up-sets on the 22-sieve lattice were counted once by reference_upsets,
    # which filters 2^21 families and takes seconds; the other lattices are small
    expected = 156
    for c in total.objects:
        if sizes[c] != 22:
            expected *= len(reference_upsets(sieve_lattice(total, c), maximal_sieve(total, c)))
    assert topology_candidate_count(total) == expected


def test_enumerate_topologies_refuses_a_lattice_over_14_sieves():
    with pytest.raises(CapExceeded, match="sieve lattice too large"):
        next(enumerate_topologies(minimality_seed1_total()))


def test_topology_leq_is_a_partial_order_on_walk2(walk2):
    tops = list(enumerate_topologies(walk2))
    for t1 in tops:
        assert topology_leq(t1, t1)
        for t2 in tops:
            if topology_leq(t1, t2) and topology_leq(t2, t1):
                assert t1 == t2
            for t3 in tops:
                if topology_leq(t1, t2) and topology_leq(t2, t3):
                    assert topology_leq(t1, t3)


def _families(base, obj, rng_bits):
    into = sorted(base.into(obj))
    picked = [f for i, f in enumerate(into) if rng_bits >> i & 1]
    return picked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_saturate_idempotent_and_monotone_on_retract(bits_r, bits_s):
    base = corpus.retract()
    top = saturate(base, {"r": [_families(base, "r", bits_r)], "s": [_families(base, "s", bits_s)]})
    assert saturate(base, least_generators(top)) == top
    # upward closure of the covers
    for c in base.objects:
        for s in top.covers[c]:
            for t in sieve_lattice(base, c):
                if s <= t:
                    assert t in top.covers[c]
    # monotone: adding a generator can only grow the result
    bigger = {
        "r": [_families(base, "r", bits_r)],
        "s": [_families(base, "s", bits_s), ["m"]],
    }
    assert topology_leq(top, saturate(base, bigger))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7))
def test_saturated_covers_are_pullback_stable(bits):
    base = corpus.walk2()
    top = saturate(base, {"b": [_families(base, "b", bits)]})
    for c in base.objects:
        for s in top.covers[c]:
            for f in base.into(c):
                assert pullback_arrows(base, f, s) in top.covers[base.src[f]]


def reference_saturate(base, generators):
    """The former saturation, a worklist over whole sieve lattices: seed with
    the maximal and generated sieves, then close under upward containment,
    pullback stability and transitivity until nothing changes."""
    lattice = {c: sieve_lattice(base, c) for c in base.objects}
    covering = {c: {maximal_sieve(base, c)} for c in base.objects}
    for c, fams in generators.items():
        for fam in fams:
            covering[c].add(generate_sieve(base, c, fam))
    changed = True
    while changed:
        changed = False
        for c in base.objects:
            cov = covering[c]
            for s in list(cov):
                for t in lattice[c]:
                    if s <= t and t not in cov:
                        cov.add(t)
                        changed = True
            for s in list(cov):
                for f in base.into(c):
                    pb = pullback_arrows(base, f, s)
                    if pb not in covering[base.src[f]]:
                        covering[base.src[f]].add(pb)
                        changed = True
            for r in lattice[c]:
                if r in cov:
                    continue
                for t in cov:
                    if all(pullback_arrows(base, f, r) in covering[base.src[f]] for f in t):
                        cov.add(r)
                        changed = True
                        break
    covering = {c: frozenset(v) for c, v in covering.items()}
    top = Topology(base, {c: frozenset.intersection(*v) for c, v in covering.items()})
    assert top.covers == covering
    return top


def fuzzed_coverages(count, seed):
    """Random (base, generators) pairs on the corpus and fuzzed bases: some
    objects get no generators, families are arbitrary subsets of into(c)
    (often not sieves) and may be empty."""
    rng = random.Random(seed)
    bases = [base for _, base, _ in corpus.corpus_sites()] + fuzzed_bases(200)
    for _ in range(count):
        base = rng.choice(bases)
        gens = {}
        for c in base.objects:
            if rng.random() < 0.3:
                continue
            into = sorted(base.into(c))
            gens[c] = [rng.sample(into, rng.randint(0, min(3, len(into)))) for _ in range(rng.randint(0, 3))]
        yield base, gens


def test_saturate_matches_the_worklist_on_the_corpus():
    named = [(name, top) for name, _, top in corpus.corpus_sites()]
    for name, top in named + list(corpus.corpus_workspace().topologies.items()):
        gens = least_generators(top)
        assert saturate(top.base, gens) == reference_saturate(top.base, gens) == top, name


def test_saturate_matches_the_worklist_on_fuzzed_coverages():
    kinds = set()
    for base, gens in fuzzed_coverages(1200, seed=10):
        for c in base.objects:
            fams = gens.get(c, [])
            if not fams:
                kinds.add("no generators")
            for fam in fams:
                if not fam:
                    kinds.add("empty family")
                elif generate_sieve(base, c, fam) != frozenset(fam):
                    kinds.add("not a sieve")
        assert saturate(base, gens) == reference_saturate(base, gens)
    assert kinds == {"no generators", "empty family", "not a sieve"}


def test_saturate_is_the_least_topology_covering_its_generators():
    topologies = {base: list(enumerate_topologies(base)) for base in enumerable_bases()}
    coverages = 0
    for base, gens in fuzzed_coverages(1000, seed=12):
        if base not in topologies:
            continue
        sieves = [(c, generate_sieve(base, c, fam)) for c, fams in gens.items() for fam in fams]
        covering = [k for k in topologies[base] if all(k.is_cover(c, s) for c, s in sieves)]
        least = saturate(base, gens)
        assert least in covering
        assert all(topology_leq(least, k) for k in covering)
        coverages += 1
    assert coverages >= 800


def representation_cases():
    """The corpus topologies and the saturations of fuzzed coverages."""
    tops = [top for _, _, top in corpus.corpus_sites()] + list(corpus.corpus_workspace().topologies.values())
    return tops + [saturate(base, gens) for base, gens in fuzzed_coverages(300, seed=11)]


def test_covers_are_the_up_set_of_the_least_cover():
    for top in representation_cases():
        base = top.base
        assert is_topology(base, top.covers)[0]
        for c in base.objects:
            assert top.covers[c] == frozenset(s for s in sieve_lattice(base, c) if top.least[c] <= s)
            assert frozenset.intersection(*top.covers[c]) == top.least[c]


def test_is_cover_is_membership_in_covers():
    for top in representation_cases():
        for c in top.base.objects:
            for s in sieve_lattice(top.base, c):
                assert top.is_cover(c, s) == (s in top.covers[c])


GENERATED_KINDS = ("site", "fibration", "site-functor", "comorphism", "dense-pair")


def generated_topologies(instances):
    """Every topology in fixed-seed instances of each kind, Giraud topologies
    included; the comorphism instances come from the recipe in the tests."""
    out = []
    for kind in GENERATED_KINDS:
        make = comorphism_instance if kind == "comorphism" else functools.partial(generate_instance, kind)
        for index in range(instances):
            try:
                inst = make(derive_seed(7, index), Caps())
            except (GenerationError, CapExceeded):
                continue
            out.extend(v for v in inst.values() if isinstance(v, Topology))
            if kind == "fibration":
                out.append(giraud_topology(inst["indexed"], inst["base_topology"]))
    return out


def test_saturate_matches_the_worklist_on_generated_topologies():
    tops = generated_topologies(15)
    assert len(tops) > 80
    for top in tops:
        gens = least_generators(top)
        assert saturate(top.base, gens) == reference_saturate(top.base, gens) == top


def fuzzed_instances(kind, instances, seed=9):
    for index in range(instances):
        try:
            yield generate_instance(kind, derive_seed(seed, index), Caps())
        except (GenerationError, CapExceeded):
            continue


def test_giraud_topology_from_least_covers_equals_all_covers():
    for inst in fuzzed_instances("fibration", 100):
        cix, top = inst["indexed"], inst["base_topology"]
        bundle = grothendieck(cix)
        gens = {
            name: [[cartesian_lift_name(cix, x, c, f) for f in s] for s in top.covers[c]]
            for name, (x, c) in bundle.obj_pair.items()
        }
        assert giraud_topology(cix, top) == saturate(bundle.total, gens)


def test_min_comorphism_topology_from_least_covers_equals_all_covers():
    for inst in fuzzed_instances("site-functor", 100):
        fn, top = inst["functor"], inst["target_topology"]
        gens = {
            d: [[h for h in fn.source.into(d) if fn.ar(h) in s] for s in top.covers[fn.ob(d)]]
            for d in fn.source.objects
        }
        assert min_comorphism_topology(fn, top) == saturate(fn.source, gens)


def test_pushforward_topology_from_least_covers_equals_all_covers():
    for index, inst in enumerate(fuzzed_instances("site-functor", 100)):
        fn, top = inst["functor"], inst["source_topology"]
        tgt = fn.target
        gens = {c: [] for c in tgt.objects}
        for c in fn.source.objects:
            gens[fn.ob(c)].extend([fn.ar(f) for f in sorted(s)] for s in top.covers[c])
        assert pushforward_topology(fn, top) == saturate(tgt, gens)
        rng = random.Random(index)
        for c in tgt.objects:
            if rng.random() < 0.3:
                into = sorted(tgt.into(c))
                gens[c].append(rng.sample(into, rng.randint(0, min(2, len(into)))))
        assert pushforward_topology(fn, top, random.Random(index)) == saturate(tgt, gens)


def restricted_all_covers(top, sub):
    keep = set(sub.arrows)
    return saturate(sub, {c: [sorted(s & keep) for s in top.covers[c]] for c in sub.objects})


def never_fails(log):
    """A shrink predicate that records each candidate and keeps none."""

    def still_fails(*candidate):
        log.append(candidate)
        return False

    return still_fails


def test_shrink_site_restricts_least_covers_like_all_covers():
    tried = []
    for inst in fuzzed_instances("site", 100):
        cat, top = inst["category"], inst["topology"]
        candidates = []
        shrink_site(cat, top, never_fails(candidates))
        for sub, sub_top in candidates:
            assert sub_top == restricted_all_covers(top, sub)
        tried.extend(candidates)
    assert len(tried) > 40


def test_shrink_fibration_restricts_least_covers_like_all_covers():
    tried = []
    for inst in fuzzed_instances("fibration", 100):
        cix, top = inst["indexed"], inst["base_topology"]
        candidates = []
        shrink_fibration(cix, top, never_fails(candidates))
        for sub_cix, sub_top in candidates:
            sub = sub_cix.base
            assert sub_top == (top if sub == cix.base else restricted_all_covers(top, sub))
            if sub != cix.base:
                tried.append(sub)
    assert len(tried) > 20


def test_prop412_extra_topology_from_least_covers_equals_all_covers():
    for index, inst in enumerate(fuzzed_instances("fibration", 100)):
        gir = giraud_topology(inst["indexed"], inst["base_topology"])
        total = gir.base
        extras = {c: [] for c in total.objects}
        rng = random.Random(index)
        for c in total.objects:
            if rng.random() < 0.4:
                into = sorted(total.into(c))
                extras[c].append(rng.sample(into, rng.randint(0, min(2, len(into)))))
        least = {c: [sorted(gir.least[c])] + extras[c] for c in total.objects}
        every = {c: [sorted(s) for s in gir.covers[c]] + extras[c] for c in total.objects}
        assert saturate(total, least) == saturate(total, every)


def test_saturate_needs_stability_and_transitivity():
    # a0 -> a1 -> a2 with the empty sieve covering a1: stability empties the
    # least cover of a0, and then transitivity empties that of a2
    chain = corpus.chain3()
    top = saturate(chain, {"a1": [[]], "a2": [["a1->a2"]]})
    assert top.least == dict.fromkeys(chain.objects, frozenset())


def parallel_arrows(n):
    """Objects x and c with n parallel arrows x -> c: 2^n + 1 sieves on c."""
    return build_category(("x", "c"), {"f{:02d}".format(i): ("x", "c") for i in range(n)})


def test_sieve_lattice_refuses_to_pass_its_cap(monkeypatch):
    monkeypatch.setattr(sieves, "SIEVE_LATTICE_CAP", 9)
    assert len(sieve_lattice(parallel_arrows(3), "c")) == 9
    monkeypatch.setattr(sieves, "SIEVE_LATTICE_CAP", 8)
    with pytest.raises(CapExceeded, match="more than 8 sieves on c"):
        sieve_lattice(parallel_arrows(3), "c")


def test_saturate_refuses_17_parallel_arrows():
    # the lattice refuses 17 parallel arrows; saturation builds no lattice
    base = parallel_arrows(17)
    with pytest.raises(CapExceeded, match="sieves on c"):
        sieve_lattice(base, "c")
    assert saturate(base, least_generators(trivial_topology(base))) == trivial_topology(base)


def test_elements_of_maximal_sieve(walk2):
    el = elements_of_sieve(walk2, "b", maximal_sieve(walk2, "b"))
    assert len(el.category.objects) == 2
    non_id = [a for a in el.category.arrows if not el.category.is_identity(a)]
    assert len(non_id) == 1


def test_elements_of_principal_sieve(walk2):
    el = elements_of_sieve(walk2, "b", generate_sieve(walk2, "b", ("u",)))
    assert len(el.category.objects) == 1
    assert all(el.category.is_identity(a) for a in el.category.arrows)


def test_elements_of_empty_sieve(walk2):
    el = elements_of_sieve(walk2, "b", frozenset())
    assert el.category.objects == ()


def test_map_topology_transports_along_iso(walk2, sier, map_topology):
    renamed = {"a": "a2", "b": "b2", "u": "u2", "id_a": "id_a2", "id_b": "id_b2"}
    other = corpus.build_category(("a2", "b2"), {"u2": ("a2", "b2")})
    iso = validate_functor(
        {"a": "a2", "b": "b2"},
        {"u": "u2", "id_a": "id_a2", "id_b": "id_b2"},
        walk2,
        other,
    )
    moved = map_topology(iso, sier)
    assert moved.covers["b2"] == frozenset({frozenset({"u2"}), frozenset({"u2", "id_b2"})})
