
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from finsite import corpus
from finsite.fibration import grothendieck
from finsite.fincat import StructureError, identity_functor, validate_functor
from finsite.generate import Caps, GenerationError, derive_seed, generate_instance
from finsite.sieves import (
    CapExceeded,
    Sieve,
    Topology,
    _least_covers_are_a_topology,
    coverage_of,
    elements_of_sieve,
    enumerate_topologies,
    generate_sieve,
    induced_image_topology,
    is_topology,
    make_coverage,
    map_topology,
    maximal_sieve,
    pullback_sieve,
    saturate,
    sieve_lattice,
    topology_candidate_count,
    topology_leq,
    trivial_topology,
    validate_sieve,
)


def test_generate_sieve_from_identity_is_maximal(walk2):
    s = generate_sieve(walk2, "b", ("id_b",))
    assert s.arrows == maximal_sieve(walk2, "b").arrows == frozenset({"id_b", "u"})


def test_generate_sieve_from_u(walk2):
    assert generate_sieve(walk2, "b", ("u",)).arrows == frozenset({"u"})


def test_generate_empty_sieve(walk2):
    assert generate_sieve(walk2, "b", ()).arrows == frozenset()


def test_generate_sieve_rejects_mixed_targets(walk2):
    with pytest.raises(StructureError, match="mixed targets"):
        generate_sieve(walk2, "b", ("id_a",))


def test_sieve_closure_is_validated(walk2):
    with pytest.raises(StructureError, match="precomposition"):
        validate_sieve(walk2, "b", {"id_b"})


def test_pullback_along_identity(walk2):
    s = generate_sieve(walk2, "b", ("u",))
    assert pullback_sieve("id_b", s).arrows == s.arrows


def test_pullback_of_maximal_is_maximal(walk2):
    s = maximal_sieve(walk2, "b")
    assert pullback_sieve("u", s).arrows == maximal_sieve(walk2, "a").arrows


def test_pullback_of_generated_u_along_u(walk2):
    s = generate_sieve(walk2, "b", ("u",))
    assert pullback_sieve("u", s).arrows == frozenset({"id_a"})


def test_saturate_empty_coverage_is_trivial(walk2):
    assert saturate(make_coverage(walk2, {})) == trivial_topology(walk2)


def test_saturate_sier_by_hand(walk2):
    top = saturate(make_coverage(walk2, {"b": [["u"]]}))
    assert top.covers["b"] == frozenset({frozenset({"u"}), frozenset({"u", "id_b"})})
    assert top.covers["a"] == frozenset({frozenset({"id_a"})})


def test_saturate_empty_family_forces_everything(walk2):
    top = saturate(make_coverage(walk2, {"b": [[]]}))
    # empty sieve covers b; transitivity then makes every sieve on b covering,
    # and stability pushes the empty sieve down to a
    assert top.covers["b"] == frozenset(sieve_lattice(walk2, "b"))
    assert top.covers["a"] == frozenset(sieve_lattice(walk2, "a"))


def test_is_topology_on_trivial(walk2):
    ok, witness = is_topology(walk2, trivial_topology(walk2).covers)
    assert ok and witness == ()


def test_is_topology_missing_maximality(walk2):
    covers = {
        "a": frozenset({maximal_sieve(walk2, "a").arrows}),
        "b": frozenset({frozenset({"u"})}),
    }
    ok, witness = is_topology(walk2, covers)
    assert not ok
    assert witness == ("maximality", "b")


def test_saturate_output_is_topology(walk2, retract):
    for base, gens in ((walk2, {"b": [["u"]]}), (retract, {"s": [["m"]]})):
        top = saturate(make_coverage(base, gens))
        ok, witness = is_topology(base, top.covers)
        assert ok, witness


def test_induced_topology_along_identity(walk2, sier):
    assert induced_image_topology(identity_functor(walk2), sier) == sier


def test_induced_topology_along_bang_is_sier(walk2, one, sier):
    induced = induced_image_topology(corpus.bang(walk2), trivial_topology(one))
    assert induced == sier


def test_induced_topology_restricts_dense_subcategory(retract):
    from finsite.fincat import full_subcategory

    top = corpus.retract_topology(retract)
    sub = full_subcategory(retract, ["r"])
    inclusion = validate_functor({"r": "r"}, {"id_r": "id_r"}, sub, retract)
    induced = induced_image_topology(inclusion, top)
    manual = {
        c: frozenset(
            s
            for s in sieve_lattice(sub, c)
            if top.is_cover(c, generate_sieve(retract, c, sorted(s)).arrows)
        )
        for c in sub.objects
    }
    assert induced.covers == manual


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
    return [reference_upsets(sieve_lattice(base, c), maximal_sieve(base, c).arrows) for c in base.objects]


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
            yield Topology(base, covers)


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
            assert _least_covers_are_a_topology(base, dict(zip(base.objects, least))) == expected
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
            expected *= len(reference_upsets(sieve_lattice(total, c), maximal_sieve(total, c).arrows))
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
    cov = make_coverage(base, {"r": [_families(base, "r", bits_r)], "s": [_families(base, "s", bits_s)]})
    top = saturate(cov)
    assert saturate(coverage_of(top)) == top
    # upward closure of the covers
    for c in base.objects:
        for s in top.covers[c]:
            for t in sieve_lattice(base, c):
                if s <= t:
                    assert t in top.covers[c]
    # monotone: adding a generator can only grow the result
    bigger = make_coverage(
        base,
        {
            "r": [_families(base, "r", bits_r)],
            "s": [_families(base, "s", bits_s), ["m"]],
        },
    )
    assert topology_leq(top, saturate(bigger))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7))
def test_saturated_covers_are_pullback_stable(bits):
    base = corpus.walk2()
    top = saturate(make_coverage(base, {"b": [_families(base, "b", bits)]}))
    for c in base.objects:
        for s in top.covers[c]:
            for f in base.into(c):
                assert pullback_sieve(f, Sieve(base, c, s)).arrows in top.covers[base.src[f]]


def test_elements_of_maximal_sieve(walk2):
    el = elements_of_sieve(maximal_sieve(walk2, "b"))
    assert len(el.category.objects) == 2
    non_id = [a for a in el.category.arrows if not el.category.is_identity(a)]
    assert len(non_id) == 1


def test_elements_of_principal_sieve(walk2):
    el = elements_of_sieve(generate_sieve(walk2, "b", ("u",)))
    assert len(el.category.objects) == 1
    assert all(el.category.is_identity(a) for a in el.category.arrows)


def test_elements_of_empty_sieve(walk2):
    el = elements_of_sieve(Sieve(walk2, "b", frozenset()))
    assert el.category.objects == ()


def test_map_topology_transports_along_iso(walk2, sier):
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
