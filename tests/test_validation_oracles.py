"""Differential oracles for the validators' fast paths.

``validate_category`` checks each table entry once in table order and scans
for undefined pairs only when the entry count is short; ``validate_functor``
skips entries with an identity factor; ``arrow_is_cartesian`` counts lifts in
a dict.  The references below are the straightforward versions they
replaced.  On generated categories, functors and fibrations, and on
corruptions of them, both must accept the same inputs, build the same
tables, and raise the same message with the same witness.
``validate_presheaf`` reads identities through the category's tables; its
reference reads them through ``is_identity``, on one corrupted input per
check.  Every validator also rejects keys its base does not have.
"""
import random
from collections import Counter

from finsite import corpus
from finsite.fibration import arrow_is_cartesian, grothendieck, validate_indexed
from finsite.fincat import (
    DEFAULT_MAX_ARROWS,
    DEFAULT_MAX_OBJECTS,
    FinCategory,
    FinFunctor,
    StructureError,
    arrow_category,
    identity_functor,
    validate_category,
    validate_functor,
    validate_transform,
)
from finsite.generate import (
    Caps,
    all_functors,
    derive_seed,
    gen_category,
    gen_functor,
    gen_site,
    generate_instance,
)

from finsite.presheaf import Presheaf, representable, validate_presheaf

from test_fibration import cartesian_table_cases


def reference_validate_category(objects, arrows, identity, table) -> FinCategory:
    """``validate_category`` as it was before its success path: every table
    entry checked in sorted order, then every composable pair looked up."""
    objects = tuple(sorted(objects))
    if len(set(objects)) != len(objects):
        raise StructureError("duplicate object identifiers")
    if len(objects) > DEFAULT_MAX_OBJECTS:
        raise StructureError("object cap exceeded: {} > {}".format(len(objects), DEFAULT_MAX_OBJECTS))
    arrows = dict(arrows)
    names = tuple(sorted(arrows))
    if len(names) > DEFAULT_MAX_ARROWS:
        raise StructureError("arrow cap exceeded: {} > {}".format(len(names), DEFAULT_MAX_ARROWS))
    obj_set = set(objects)
    src, tgt = {}, {}
    for a in names:
        s, t = arrows[a]
        if s not in obj_set or t not in obj_set:
            raise StructureError("arrow {} has dangling endpoint ({}, {})".format(a, s, t), witness=a)
        src[a], tgt[a] = s, t
    identity = dict(identity)
    for c in objects:
        i = identity.get(c)
        if i is None:
            raise StructureError("object {} has no identity arrow".format(c), witness=c)
        if i not in arrows or src[i] != c or tgt[i] != c:
            raise StructureError("identity of {} is not an endo-arrow on it".format(c), witness=c)
    table = dict(table)
    for (g, f), h in sorted(table.items()):
        if g not in arrows or f not in arrows:
            raise StructureError("composite of unknown arrows ({}, {})".format(g, f), witness=(g, f))
        if src[g] != tgt[f]:
            raise StructureError("non-composable pair ({}, {})".format(g, f), witness=(g, f))
        if h not in arrows:
            raise StructureError("composite ({}, {}) lands outside the arrow set".format(g, f), witness=(g, f))
        if src[h] != src[f] or tgt[h] != tgt[g]:
            raise StructureError("composite of ({}, {}) has wrong endpoints".format(g, f), witness=(g, f))
    cat = FinCategory(objects, names, src, tgt, identity, table)
    for g in names:
        for f in cat.into(src[g]):
            if (g, f) not in table:
                raise StructureError("composable pair ({}, {}) left undefined".format(g, f), witness=(g, f))
    for f in names:
        if table[(f, identity[src[f]])] != f:
            raise StructureError("right unit law fails at {}".format(f), witness=f)
        if table[(identity[tgt[f]], f)] != f:
            raise StructureError("left unit law fails at {}".format(f), witness=f)
    if all(len(parallel) <= 1 for parallel in cat._hom.values()):
        return cat
    ids = cat._ids
    for g in names:
        if g in ids:
            continue
        for f in cat.into(src[g]):
            if f in ids:
                continue
            gf = table[(g, f)]
            for h in cat.out_of(tgt[g]):
                if h not in ids and table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise StructureError(
                        "associativity fails on ({}, {}, {})".format(h, g, f), witness=(h, g, f)
                    )
    return cat


def reference_validate_functor(obj_map, arr_map, source, target) -> FinFunctor:
    """Totality, endpoints, identities, then every entry of the source table."""
    obj_map, arr_map = dict(obj_map), dict(arr_map)
    target_objects, target_arrows = set(target.objects), set(target.arrows)
    for x in source.objects:
        if x not in obj_map:
            raise StructureError("dangling object {}".format(x), witness=x)
        if obj_map[x] not in target_objects:
            raise StructureError("object {} maps outside the target".format(x), witness=x)
    for f in source.arrows:
        g = arr_map.get(f)
        if g is None:
            raise StructureError("arrow {} has no image".format(f), witness=f)
        if g not in target_arrows:
            raise StructureError("arrow {} maps outside the target".format(f), witness=f)
        if target.src[g] != obj_map[source.src[f]] or target.tgt[g] != obj_map[source.tgt[f]]:
            raise StructureError("image of {} has wrong endpoints".format(f), witness=f)
    for c in source.objects:
        if arr_map[source.identity[c]] != target.identity[obj_map[c]]:
            raise StructureError("identity of {} not preserved".format(c), witness=c)
    for (g, f), h in source.table.items():
        if target.compose(arr_map[g], arr_map[f]) != arr_map[h]:
            raise StructureError("composite ({}, {}) not preserved".format(g, f), witness=(g, f))
    return FinFunctor(source, target, obj_map, arr_map)


def counter_arrow_is_cartesian(total, proj, f) -> bool:
    """The lifts of every (h, g) counted with a Counter over the arrows into
    src(f), read through ``compose``, ``ar`` and ``ob``."""
    base = proj.target
    d_prime, d = total.src[f], total.tgt[f]
    pf = proj.ar(f)
    lifts = Counter((proj.ar(h2), total.compose(f, h2)) for h2 in total.into(d_prime))
    for g in total.into(d):
        pg = proj.ar(g)
        for h in base.hom(proj.ob(total.src[g]), proj.ob(d_prime)):
            if base.compose(pf, h) == pg and lifts[(h, g)] != 1:
                return False
    return True


def outcome(fn, *args):
    """("raise", message, witness) or ("ok", result)."""
    try:
        return ("ok", fn(*args))
    except StructureError as error:
        return ("raise", str(error), error.witness)


def presentation(cat):
    return cat.objects, {a: (cat.src[a], cat.tgt[a]) for a in cat.arrows}, dict(cat.identity), dict(cat.table)


def category_cases(count):
    """Corpus categories, generated ones and their arrow categories, and
    total categories of generated fibrations (these have parallel arrows)."""
    yield from (corpus.one(), corpus.walk2(), corpus.retract(), corpus.chain3(), corpus.iso2())
    for index in range(count):
        cat, _ = gen_category(random.Random(derive_seed(21, index)), Caps())
        yield cat
        yield arrow_category(cat).category
        yield grothendieck(generate_instance("fibration", derive_seed(22, index), Caps())["indexed"]).total


def corrupt_category(rng, kind, objects, arrows, identity, table):
    """One or two damaged entries of one kind, picked at random, so that the
    first bad entry in table order is often not the first in sorted order.
    A composite is redirected to a parallel arrow where it has one, so that
    the endpoints still agree and a unit law or associativity breaks."""
    arrows, table = dict(arrows), dict(table)
    names = sorted(arrows)
    twins = {a: [b for b in names if b != a and arrows[b] == arrows[a]] for a in names}
    for _ in range(min(rng.randint(1, 2), len(table))):
        if kind == "drop":
            del table[rng.choice(sorted(table))]
        elif kind == "redirect":
            key = rng.choice(sorted(k for k, h in table.items() if twins[h]) or sorted(table))
            table[key] = rng.choice(twins[table[key]] or names)
        elif kind == "unknown":
            key = rng.choice(sorted(table))
            if rng.random() < 0.5:
                table[key] = "ghost"
            else:
                table[("ghost", key[1])] = key[0]
        elif kind == "endpoint":
            a = rng.choice(names)
            s, t = arrows[a]
            moved = rng.choice([o for o in objects if o != s] or [s])
            arrows[a] = (moved, t) if rng.random() < 0.5 else (s, moved)
    return objects, arrows, identity, table


CATEGORY_FAULTS = (
    "unknown arrows",
    "non-composable",
    "lands outside",
    "wrong endpoints",
    "left undefined",
    "unit law",
    "associativity",
    "not an endo-arrow",
)


def test_validate_category_matches_the_sorted_scan():
    raised, phrases = Counter(), Counter()
    cases = list(category_cases(200))
    rng = random.Random(22)
    for cat in cases:
        pres = presentation(cat)
        ours, ref = outcome(validate_category, *pres), outcome(reference_validate_category, *pres)
        assert ours[0] == ref[0] == "ok"
        assert list(ours[1].table.items()) == list(ref[1].table.items())
        assert ours[1].arrows == ref[1].arrows and ours[1].src == ref[1].src and ours[1].tgt == ref[1].tgt
        for kind in ("drop", "redirect", "unknown", "endpoint"):
            damaged = corrupt_category(rng, kind, *pres)
            ours, ref = outcome(validate_category, *damaged), outcome(reference_validate_category, *damaged)
            assert ours[0] == ref[0], (kind, ours, ref)
            if ours[0] == "raise":
                assert ours == ref, kind
                raised[kind] += 1
                phrases.update(p for p in CATEGORY_FAULTS if p in ours[1])
            else:
                assert list(ours[1].table.items()) == list(ref[1].table.items())
    assert min(raised.values()) >= len(cases) // 3, raised
    assert set(phrases) == set(CATEGORY_FAULTS), phrases


def functor_cases(count):
    """Generated functors between generated sites, every endofunctor of the
    corpus retract category, and projections of fibrations."""
    caps = Caps(base_objects=3)
    for index in range(count):
        rng = random.Random(derive_seed(23, index))
        src, _ = gen_site(rng, caps)
        tgt, _ = gen_site(rng, caps)
        fn = gen_functor(rng, src, tgt)
        if fn is not None:
            yield fn
    yield from all_functors(corpus.retract(), corpus.retract())
    for bundle in cartesian_table_cases(count // 4):
        yield bundle.projection


def corrupt_functor(rng, kind, fn):
    source, target = fn.source, fn.target
    obj_map, arr_map = dict(fn.obj_map), dict(fn.arr_map)
    if kind == "identity":
        c = rng.choice(source.objects)
        x = obj_map[c]
        others = [a for a in target.hom(x, x) if a != target.identity[x]] or list(target.arrows)
        arr_map[source.identity[c]] = rng.choice(others)
    elif kind == "redirect":
        f = rng.choice(source.arrows)
        g = arr_map[f]
        parallel = [a for a in target.hom(target.src[g], target.tgt[g]) if a != g] or list(target.arrows)
        arr_map[f] = rng.choice(parallel)
    elif kind == "endpoint":
        obj_map[rng.choice(source.objects)] = rng.choice(target.objects)
    elif kind == "drop":
        del arr_map[rng.choice(source.arrows)]
    return obj_map, arr_map, source, target


FUNCTOR_FAULTS = ("identity of", "composite", "wrong endpoints", "has no image")


def test_validate_functor_matches_the_full_table_loop():
    raised, phrases = Counter(), Counter()
    cases = list(functor_cases(200))
    rng = random.Random(24)
    for fn in cases:
        args = (fn.obj_map, fn.arr_map, fn.source, fn.target)
        ours, ref = outcome(validate_functor, *args), outcome(reference_validate_functor, *args)
        assert ours[0] == ref[0] == "ok"
        for kind in ("identity", "redirect", "endpoint", "drop") if fn.source.objects else ():
            damaged = corrupt_functor(rng, kind, fn)
            ours, ref = outcome(validate_functor, *damaged), outcome(reference_validate_functor, *damaged)
            assert ours[0] == ref[0], (kind, ours, ref)
            if ours[0] == "raise":
                assert ours == ref, kind
                raised[kind] += 1
                phrases.update(p for p in FUNCTOR_FAULTS if p in ours[1])
            else:
                assert ours[1].arr_map == ref[1].arr_map
    assert min(raised.values()) >= len(cases) // 4 and len(raised) == 4, raised
    assert set(phrases) == set(FUNCTOR_FAULTS), phrases


def test_cartesian_arrows_match_the_lift_counter():
    """On bundles and on functors that are not fibrations."""
    cartesian = not_cartesian = 0
    projections = [b.projection for b in cartesian_table_cases(60)] + list(functor_cases(60))
    for proj in projections:
        total = proj.source
        for a in total.arrows:
            expected = counter_arrow_is_cartesian(total, proj, a)
            assert arrow_is_cartesian(total, proj, a) == expected, a
            cartesian += expected
            not_cartesian += not expected
    assert cartesian > 100 and not_cartesian > 100, (cartesian, not_cartesian)


def reference_validate_presheaf(base, values, action) -> Presheaf:
    """``validate_presheaf`` before it rejected stray keys: identities read
    through ``is_identity``, identity actions filled in arrow order."""
    values = {c: tuple(v) for c, v in values.items()}
    action = {f: dict(m) for f, m in action.items()}
    vs = {}
    for c in base.objects:
        if c not in values:
            raise StructureError("missing value set at {}".format(c), witness=c)
        vs[c] = set(values[c])
        if len(vs[c]) != len(values[c]):
            raise StructureError("duplicate elements at {}".format(c), witness=c)
    for f in base.arrows:
        if base.is_identity(f):
            action.setdefault(f, {a: a for a in values[base.src[f]]})
    for f in base.arrows:
        m = action.get(f)
        if m is None:
            raise StructureError("missing action along {}".format(f), witness=f)
        s, t = base.src[f], base.tgt[f]
        if m.keys() != vs[t] or not vs[s].issuperset(m.values()):
            raise StructureError("action along {} is not a map values({}) -> values({})".format(f, t, s), witness=f)
    for c in base.objects:
        m = action[base.identity[c]]
        if not all(m[a] == a for a in values[c]):
            raise StructureError("identity action at {} is not the identity".format(c), witness=c)
    for (g, f), h in base.table.items():
        if base.is_identity(f) or base.is_identity(g):
            continue
        fa, ga, ha = action[f], action[g], action[h]
        for a in values[base.tgt[g]]:
            if fa[ga[a]] != ha[a]:
                raise StructureError("actions not functorial on ({}, {})".format(g, f), witness=(g, f))
    return Presheaf(base, values, action)


def presheaf_tables(p):
    """Copies of p's value sets and non-identity actions, to corrupt."""
    base = p.base
    return dict(p.values), {f: dict(m) for f, m in p.action.items() if not base.is_identity(f)}


def corrupted_presheaves():
    """(phrase, base, values, action): one input per check of
    ``validate_presheaf``, each failing that check first."""
    retract, chain = corpus.retract(), corpus.chain3()
    # P(s) = {id_s, t}, P(r) = {m}
    hom_s = representable(retract, "s")
    cases = []
    values, action = presheaf_tables(hom_s)
    del values["r"]
    cases.append(("missing value set", retract, values, action))
    values, action = presheaf_tables(hom_s)
    values["s"] += ("t",)
    cases.append(("duplicate elements", retract, values, action))
    values, action = presheaf_tables(hom_s)
    del action["m"]
    cases.append(("missing action", retract, values, action))
    values, action = presheaf_tables(hom_s)
    action["e"]["id_s"] = "elsewhere"
    cases.append(("is not a map", retract, values, action))
    values, action = presheaf_tables(hom_s)
    action["id_s"] = {"id_s": "t", "t": "id_s"}
    cases.append(("identity action", retract, values, action))
    values, action = presheaf_tables(representable(chain, "a2"))
    composite = next(f for f in action if chain.src[f] == "a0" and chain.tgt[f] == "a2")
    action[composite] = {x: "elsewhere" for x in action[composite]}
    values["a0"] += ("elsewhere",)
    cases.append(("not functorial", chain, values, action))
    # e.m = id_r fails alone: P(r) = {0, 1} goes through P(s) = {0}
    cases.append((
        "not functorial on (e, m)",
        retract,
        {"r": ("0", "1"), "s": ("0",)},
        {"e": {"0": "0", "1": "0"}, "m": {"0": "0"}, "t": {"0": "0"}},
    ))
    return cases


def test_validate_presheaf_keeps_every_message_and_witness():
    for phrase, base, values, action in corrupted_presheaves():
        ours = outcome(validate_presheaf, base, values, action)
        assert ours == outcome(reference_validate_presheaf, base, values, action), phrase
        assert ours[0] == "raise" and phrase in ours[1], (phrase, ours)
    for base in (corpus.retract(), corpus.chain3(), corpus.walk2()):
        for c in base.objects:
            values, action = presheaf_tables(representable(base, c))
            assert validate_presheaf(base, values, action) == reference_validate_presheaf(base, values, action)


def test_validators_name_the_first_stray_key():
    walk2, one = corpus.walk2(), corpus.one()
    worked = presheaf_tables(representable(walk2, "b"))
    values, action = worked
    assert outcome(validate_presheaf, walk2, dict(values, zz=(), ghost=("x",)), action) == (
        "raise", "value set at unknown object ghost", "ghost"
    )
    assert outcome(validate_presheaf, walk2, values, dict(action, ghost={})) == (
        "raise", "action along unknown arrow ghost", "ghost"
    )
    bang = validate_functor({"a": "*", "b": "*"}, {"id_a": "id_*", "id_b": "id_*", "u": "id_*"}, walk2, one)
    args = (bang.source, bang.target)
    assert outcome(validate_functor, dict(bang.obj_map, ghost="*"), bang.arr_map, *args) == (
        "raise", "image of unknown object ghost", "ghost"
    )
    assert outcome(validate_functor, bang.obj_map, dict(bang.arr_map, zz="id_*", ghost="id_*"), *args) == (
        "raise", "image of unknown arrow ghost", "ghost"
    )
    same = identity_functor(walk2)
    component = {c: walk2.identity[c] for c in walk2.objects}
    assert outcome(validate_transform, dict(component, ghost="u"), same, same) == (
        "raise", "component at unknown object ghost", "ghost"
    )
    two_point = corpus.two_point(walk2)
    assert outcome(validate_indexed, walk2, dict(two_point.fiber, ghost=one), two_point.restriction) == (
        "raise", "fiber over unknown object ghost", "ghost"
    )
    restriction = dict(two_point.restriction, ghost=two_point.restriction["u"])
    assert outcome(validate_indexed, walk2, two_point.fiber, restriction) == (
        "raise", "restriction along unknown arrow ghost", "ghost"
    )
