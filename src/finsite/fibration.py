"""Indexed categories, Grothendieck constructions and base-change machinery.

Pseudofunctors are strictified: a restriction table must be functorial on
the nose, which every corpus and fuzzed instance satisfies.  So every
base-change comparison the paper states up to iso (cartesian lifts, the
square of a morphism of fibrations, composites of inverse images) is
decided here on the nose, and no iso is searched for.  Cartesianness
of arrows is always decided by the exhaustive unique-lifting search, for a
whole bundle at once and only when its table is first read; the classical
"vertical part is iso" characterisation is only ever used as a cross-check,
never trusted.  Questions about the fibration of an indexed
category (``is_cartesian_fibration``, ``giraud_topology``) take the indexed
category itself; ``grothendieck`` builds its bundle once and keeps it there.
Every functor between total categories that base change induces (a morphism
of indexed categories, a direct image's projection, an inverse image's
comparison, the structure functor's unit leg) is built by ``_functor_over``.
The finite-limit search, ``finsite.limits``, is imported by the first
cartesian-fibration question; the base-change constructions never load it.
"""
from __future__ import annotations

from functools import cached_property

from .fincat import (
    Adjunction,
    FinCategory,
    FinFunctor,
    Record,
    StructureError,
    check_adjunction,
    composable_pairs,
    compose_functors,
    identity_functor,
    raise_stray_key,
    validate_category,
    validate_functor,
)
from .sieves import Topology, saturate


def pair_obj(x: str, c: str) -> str:
    return "({},{})".format(x, c)


def pair_arr(u: str, f: str, src: str, tgt: str) -> str:
    return "({},{}):{}->{}".format(u, f, src, tgt)


class IndexedCategory(Record):
    """A strict contravariant assignment of fiber categories to a base.

    ``restriction[f]`` for f: c -> c' is a functor fiber(c') -> fiber(c).
    Instances are treated as immutable: ``grothendieck`` builds the total
    category once per instance and keeps it in ``_scratch``, which is not a
    field, so equality and ``repr`` ignore it.
    """

    _fields = ("base", "fiber", "restriction")

    def __init__(self, base: FinCategory, fiber: dict[str, FinCategory], restriction: dict[str, FinFunctor]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "restriction", restriction)
        object.__setattr__(self, "_scratch", {})


def _is_identity_on(r: FinFunctor, cat: FinCategory) -> bool:
    """``r == identity_functor(cat)`` for r: cat -> cat, read entry by entry."""
    return (
        len(r.obj_map) == len(cat.objects)
        and len(r.arr_map) == len(cat.arrows)
        and all(r.obj_map[x] == x for x in cat.objects)
        and all(r.arr_map[a] == a for a in cat.arrows)
    )


def _composes_to(rf: FinFunctor, rg: FinFunctor, rh: FinFunctor, unit: bool) -> bool:
    """``compose_functors(rf, rg) == rh``, read entry by entry.

    With ``unit`` one of rf, rg is an identity restriction and rh the other,
    so the entries agree and only the key sets of rh's maps are compared.
    """
    cat = rg.source
    if len(rh.obj_map) != len(cat.objects) or len(rh.arr_map) != len(cat.arrows):
        return False
    return unit or (
        all(rf.obj_map[rg.obj_map[x]] == rh.obj_map[x] for x in cat.objects)
        and all(rf.arr_map[rg.arr_map[a]] == rh.arr_map[a] for a in cat.arrows)
    )


def validate_indexed(base: FinCategory, fiber, restriction) -> IndexedCategory:
    fiber = dict(fiber)
    restriction = dict(restriction)
    for c in base.objects:
        if c not in fiber:
            raise StructureError("missing fiber over {}".format(c), witness=c)
    if len(fiber) != len(base.objects):
        raise_stray_key(fiber, base.identity, "fiber over unknown object {}")
    for f in base.arrows:
        if base.is_identity(f):
            restriction.setdefault(f, identity_functor(fiber[base.src[f]]))
    for f in base.arrows:
        r = restriction.get(f)
        if r is None:
            raise StructureError("missing restriction along {}".format(f), witness=f)
        if r.source != fiber[base.tgt[f]] or r.target != fiber[base.src[f]]:
            raise StructureError("restriction along {} has wrong endpoints".format(f), witness=f)
    if len(restriction) != len(base.arrows):
        raise_stray_key(restriction, base.src, "restriction along unknown arrow {}")
    for c in base.objects:
        if not _is_identity_on(restriction[base.identity[c]], fiber[c]):
            raise StructureError("restriction along id_{} is not the identity".format(c), witness=c)
    for (g, f), h in base.table.items():
        unit = base.is_identity(g) or base.is_identity(f)
        if not _composes_to(restriction[f], restriction[g], restriction[h], unit):
            raise StructureError(
                "restrictions not strictly functorial on ({}, {})".format(g, f), witness=(g, f)
            )
    return IndexedCategory(base, fiber, restriction)


class FibrationBundle(Record):
    """A total category with its projection; its cartesian table is decided
    on first read.

    It holds no reference to the indexed category whose ``_scratch`` keeps
    it, so the two are freed without the cycle collector.
    """

    _fields = ("total", "projection", "obj_pair", "arr_pair")

    @property
    def base(self) -> FinCategory:
        return self.projection.target

    @cached_property
    def cartesian(self) -> frozenset[str]:
        """The cartesian arrows of ``total``, each decided by the exhaustive
        unique-lifting search the first time the table is read."""
        return frozenset(a for a in self.total.arrows if arrow_is_cartesian(self.total, self.projection, a))


def arrow_is_cartesian(total: FinCategory, proj: FinFunctor, f: str) -> bool:
    """The unique-lifting property, checked over all candidate triples.

    For g: d'' -> tgt(f) and h: p(d'') -> p(src(f)) with p(f).h = p(g) there
    must be exactly one h': d'' -> src(f) over h with f.h' = g.  The lifts of
    every (h, g) are counted in one pass over the arrows into src(f); a lift
    of (h, g) starts where g does.
    """
    base, table, arr_map, obj_map = proj.target, total.table, proj.arr_map, proj.obj_map
    d_prime, d = total.src[f], total.tgt[f]
    pf = arr_map[f]
    lifts: dict[tuple[str, str], int] = {}
    for h2 in total.into(d_prime):
        key = (arr_map[h2], table[(f, h2)])
        lifts[key] = lifts.get(key, 0) + 1
    for g in total.into(d):
        pg = arr_map[g]
        for h in base.hom(obj_map[total.src[g]], obj_map[d_prime]):
            if base.table[(pf, h)] == pg and lifts.get((h, g)) != 1:
                return False
    return True


def grothendieck(cix: IndexedCategory) -> FibrationBundle:
    """Total category of pairs and its projection; the cartesian table is
    decided by the lifting search on its first read, never copied from the
    indexed data.

    Built once per indexed category: later calls return the same bundle."""
    bundle = cix._scratch.get("grothendieck")
    if bundle is None:
        bundle = cix._scratch["grothendieck"] = _grothendieck(cix)
    return bundle


def _grothendieck(cix: IndexedCategory) -> FibrationBundle:
    base = cix.base
    obj_pair = {}
    for c in base.objects:
        for x in cix.fiber[c].objects:
            obj_pair[pair_obj(x, c)] = (x, c)
    names = tuple(sorted(obj_pair))
    arrows = {}
    arr_pair = {}
    for o1 in names:
        x1, c1 = obj_pair[o1]
        for o2 in names:
            x2, c2 = obj_pair[o2]
            for f in base.hom(c1, c2):
                rx2 = cix.restriction[f].ob(x2)
                for u in cix.fiber[c1].hom(x1, rx2):
                    name = pair_arr(u, f, o1, o2)
                    arrows[name] = (o1, o2)
                    arr_pair[name] = (u, f)
    identity = {}
    for o in names:
        x, c = obj_pair[o]
        identity[o] = pair_arr(cix.fiber[c].identity[x], base.identity[c], o, o)
    table = {}
    for b, a in composable_pairs(arrows):
        u1, f1 = arr_pair[a]
        u2, f2 = arr_pair[b]
        asrc = arrows[a][0]
        c1 = obj_pair[asrc][1]
        vert = cix.fiber[c1].compose(cix.restriction[f1].ar(u2), u1)
        table[(b, a)] = pair_arr(vert, base.compose(f2, f1), asrc, arrows[b][1])
    total = validate_category(names, arrows, identity, table)
    proj = validate_functor(
        {o: obj_pair[o][1] for o in names},
        {a: arr_pair[a][1] for a in arrows},
        total,
        base,
    )
    return FibrationBundle(total, proj, obj_pair, arr_pair)


def is_fibration(bundle: FibrationBundle) -> tuple[bool, tuple]:
    """Every base arrow into a projected object must admit a cartesian lift
    lying exactly over it.

    Such a lift is a Street lift (Street, "Fibrations in bicategories",
    1980) with the identity as its iso, so a bundle that passes here is a
    fibration up to iso too."""
    total, proj, base = bundle.total, bundle.projection, bundle.base
    for d in total.objects:
        lifted = {proj.ar(lift) for lift in total.into(d) if lift in bundle.cartesian}
        for f in base.into(proj.ob(d)):
            if f not in lifted:
                return False, ("missing_lift", (f, d))
    return True, ()


def is_morphism_of_fibrations(
    a_fun: FinFunctor,
    b_fun: FinFunctor,
    src: FibrationBundle,
    tgt: FibrationBundle,
) -> tuple[bool, tuple]:
    """The square p_tgt . A = B . p_src commutes on the nose and cartesian
    arrows map to cartesian arrows."""
    if a_fun.source != src.total or a_fun.target != tgt.total:
        raise StructureError("top functor endpoints do not match the bundles")
    if b_fun.source != src.base or b_fun.target != tgt.base:
        raise StructureError("base functor endpoints do not match the bundles")
    top = compose_functors(tgt.projection, a_fun)
    bottom = compose_functors(b_fun, src.projection)
    if top != bottom:
        return False, ("square_not_commuting", next(a for a in src.total.arrows if top.ar(a) != bottom.ar(a)))
    for f in sorted(src.cartesian):
        if a_fun.ar(f) not in tgt.cartesian:
            return False, ("cartesian_broken", f)
    return True, ()


def cartesian_lift_name(cix: IndexedCategory, x: str, c: str, f: str) -> str:
    """The canonical lift (1, f): (C(f)(x), src f) -> (x, c) of f: src -> c."""
    sf = cix.base.src[f]
    rx = cix.restriction[f].ob(x)
    return pair_arr(cix.fiber[sf].identity[rx], f, pair_obj(rx, sf), pair_obj(x, c))


def giraud_topology(cix: IndexedCategory, base_topology: Topology, bundle: FibrationBundle | None = None) -> Topology:
    """Saturation of the coverage whose generator at (x, c) is the canonical
    cartesian-lift family of the least covering sieve of c.

    The lift families of the other covers of c generate larger sieves, so
    adding them would not change the saturation.  The total category is
    ``grothendieck(cix)``, built once per indexed category; ``bundle`` is
    kept only for callers that still pass that same bundle in."""
    if base_topology.base != cix.base:
        raise StructureError("base topology lives on the wrong category")
    if bundle is None:
        bundle = grothendieck(cix)
    generators = {
        name: [[cartesian_lift_name(cix, x, c, f) for f in base_topology.least[c]]]
        for name, (x, c) in bundle.obj_pair.items()
    }
    return saturate(bundle.total, generators)


# ---------------------------------------------------------------------------
# Morphisms of indexed categories (fixed base)


class IndexedMorphism(Record):
    _fields = ("source", "target", "components")


def validate_indexed_morphism(source: IndexedCategory, target: IndexedCategory, components) -> IndexedMorphism:
    if source.base != target.base:
        raise StructureError("indexed morphism needs a common base")
    components = dict(components)
    for c in source.base.objects:
        a_c = components.get(c)
        if a_c is None or a_c.source != source.fiber[c] or a_c.target != target.fiber[c]:
            raise StructureError("bad component at {}".format(c), witness=c)
    for f in source.base.arrows:
        c, c2 = source.base.src[f], source.base.tgt[f]
        lhs = compose_functors(components[c], source.restriction[f])
        rhs = compose_functors(target.restriction[f], components[c2])
        if lhs != rhs:
            raise StructureError("components not natural along {}".format(f), witness=f)
    return IndexedMorphism(source, target, components)


def _functor_over(
    src: FibrationBundle,
    tgt: FibrationBundle,
    base: FinFunctor | None,
    fiber: dict[str, FinFunctor] | None,
) -> FinFunctor:
    """The validated functor src.total -> tgt.total sending (x, c) to
    (A_c(x), B(c)) and (u, f) out of (x, c) to (A_c(u), B(f)).

    B is ``base``, or the identity when it is None; A_c is ``fiber[c]``, or
    the identity when ``fiber`` is None."""
    obj_map = {}
    for name, (x, c) in src.obj_pair.items():
        if fiber is not None:
            x = fiber[c].ob(x)
        obj_map[name] = pair_obj(x, c if base is None else base.ob(c))
    arr_map = {}
    for name, (u, f) in src.arr_pair.items():
        o1, o2 = src.total.src[name], src.total.tgt[name]
        if fiber is not None:
            u = fiber[src.obj_pair[o1][1]].ar(u)
        arr_map[name] = pair_arr(u, f if base is None else base.ar(f), obj_map[o1], obj_map[o2])
    return validate_functor(obj_map, arr_map, src.total, tgt.total)


def total_functor(morphism: IndexedMorphism) -> FinFunctor:
    """The induced functor between Grothendieck constructions over the identity base."""
    return _functor_over(grothendieck(morphism.source), grothendieck(morphism.target), None, morphism.components)


# ---------------------------------------------------------------------------
# Direct image (pullback of the fibration)


class DirectImage(Record):
    _fields = ("indexed", "q", "source", "target")


def direct_image(dix: IndexedCategory, functor: FinFunctor) -> DirectImage:
    """Precompose the indexed category with the functor; q is the second
    projection of the resulting pullback square of total categories."""
    if functor.target != dix.base:
        raise StructureError("functor must land in the indexed category's base")
    fiber = {c: dix.fiber[functor.ob(c)] for c in functor.source.objects}
    restriction = {f: dix.restriction[functor.ar(f)] for f in functor.source.arrows}
    pulled = validate_indexed(functor.source, fiber, restriction)
    src = grothendieck(pulled)
    tgt = grothendieck(dix)
    return DirectImage(pulled, _functor_over(src, tgt, functor, None), src, tgt)


def q_reflects_cartesian(instance: DirectImage) -> tuple[bool, tuple]:
    """f cartesian iff q(f) cartesian, both directions by the lifting search."""
    for f in instance.source.total.arrows:
        up = f in instance.source.cartesian
        down = instance.q.ar(f) in instance.target.cartesian
        if up != down:
            return False, ("mismatch", (f, up, down))
    return True, ()


# ---------------------------------------------------------------------------
# Inverse image along a right adjoint


class InverseImage(Record):
    _fields = ("indexed", "q", "comparison", "source", "target", "adjunction_ok")


def inverse_image_adjoint(cix: IndexedCategory, adj: Adjunction) -> InverseImage:
    """Inverse image of ``cix`` along the right adjoint, computed as the
    pullback along the left adjoint, with both comparison functors.

    q sends (x, d) to (x, L(d)); the comparison sends (x, c) to
    (fiber-restriction-along-counit(x), R(c)); their adjunction is verified
    through the triangle identities.
    """
    left, right = adj.left, adj.right
    if left.target != cix.base:
        raise StructureError("left adjoint must land in the indexed category's base")
    if not check_adjunction(left, right, adj.unit, adj.counit):
        raise StructureError("adjunction data invalid")
    di = direct_image(cix, left)
    pulled, q = di.indexed, di.q
    d_total, c_total = di.source, di.target
    along = {c: cix.restriction[adj.counit[c]] for c in cix.base.objects}
    comparison = _functor_over(c_total, d_total, right, along)
    unit = {}
    for name, (x, d) in d_total.obj_pair.items():
        fib = pulled.fiber[d]
        unit[name] = pair_arr(fib.identity[x], adj.unit[d], name, comparison.ob(q.ob(name)))
    counit = {}
    for name, (x, c) in c_total.obj_pair.items():
        y = along[c].ob(x)
        counit[name] = pair_arr(along[c].target.identity[y], adj.counit[c], q.ob(comparison.ob(name)), name)
    ok = check_adjunction(q, comparison, unit, counit)
    return InverseImage(pulled, q, comparison, d_total, c_total, ok)


def compose_adjunctions(inner: Adjunction, outer: Adjunction) -> Adjunction:
    """Compose L1 -| R1 (inner, nearer the base) with L2 -| R2: the composite
    is L1.L2 -| R2.R1."""
    l1, r1 = inner.left, inner.right
    l2, r2 = outer.left, outer.right
    if l2.target != l1.source:
        raise StructureError("adjunctions not composable")
    left = compose_functors(l1, l2)
    right = compose_functors(r2, r1)
    unit = {}
    for d in l2.source.objects:
        step = outer.unit[d]
        lifted = r2.ar(inner.unit[l2.ob(d)])
        unit[d] = l2.source.compose(lifted, step)
    counit = {}
    for c in l1.target.objects:
        step = l1.ar(outer.counit[r1.ob(c)])
        counit[c] = l1.target.compose(inner.counit[c], step)
    return Adjunction(left, right, unit, counit)


def compose_direct_images(dix: IndexedCategory, f_inner: FinFunctor, f_outer: FinFunctor) -> bool:
    """(dix o F') o F against dix o (F' o F): the pulled-back indexed
    categories must agree on the nose and the projections must compose
    exactly."""
    step_outer = direct_image(dix, f_outer)
    step_inner = direct_image(step_outer.indexed, f_inner)
    once = direct_image(dix, compose_functors(f_outer, f_inner))
    return once.indexed == step_inner.indexed and compose_functors(step_outer.q, step_inner.q) == once.q


def compose_inverse_images(cix: IndexedCategory, adj_inner: Adjunction, adj_outer: Adjunction) -> bool:
    """The comparison functors compose to the composite adjunction's
    comparison, on the nose.

    The composite counit is e1 . L1(e2 R1), and restrictions are strictly
    functorial, so restricting along it is restricting along e1 and then
    along L1(e2 R1): the natural iso between the two sides is the identity."""
    step1 = inverse_image_adjoint(cix, adj_inner)
    step2 = inverse_image_adjoint(step1.indexed, adj_outer)
    combined = inverse_image_adjoint(cix, compose_adjunctions(adj_inner, adj_outer))
    return compose_functors(step2.comparison, step1.comparison) == combined.comparison


# ---------------------------------------------------------------------------
# Cartesian fibrations and the structure functor


def _finite_limits(cat: FinCategory):
    """``limits.finite_limits(cat)``, searched once per category and kept in
    its ``_scratch``; the stored cones are read-only."""
    from . import limits

    found = cat._scratch.get("finite_limits")
    if found is None:
        found = cat._scratch["finite_limits"] = limits.finite_limits(cat)
    return found


def is_cartesian_fibration(cix: IndexedCategory) -> tuple[bool, tuple]:
    """Whether the Grothendieck construction of ``cix`` is a cartesian
    fibration, in the indexed formulation: every fiber has finite limits and
    every restriction functor preserves the found cones.  Each fiber's
    limits are searched once per category, however many indexed categories
    (a direct image reuses its target's fibers) share it."""
    from . import limits

    cones = {}
    for c in cix.base.objects:
        ok, witness, found = _finite_limits(cix.fiber[c])
        if not ok:
            return False, ("fiber", c) + witness
        cones[c] = found
    for f in cix.base.arrows:
        if cix.base.is_identity(f):
            continue
        ok, witness = limits.preserves_cones(cix.restriction[f], cones[cix.base.tgt[f]])
        if not ok:
            return False, ("restriction", f) + witness
    return True, ()


class StructureFunctor(Record):
    _fields = ("composite", "inverse")


def structure_functor(cix: IndexedCategory, adj: Adjunction) -> StructureFunctor:
    """The canonical functor from a total category to its inverse image's:
    the unit-induced functor into the pulled-back fibration followed by the
    pullback projection.  It coincides with the adjoint comparison functor.
    """
    inv = inverse_image_adjoint(cix, adj)
    mid = direct_image(inv.indexed, adj.right)
    along = {c: cix.restriction[adj.counit[c]] for c in cix.base.objects}
    zeta = _functor_over(inv.target, mid.source, None, along)
    return StructureFunctor(compose_functors(mid.q, zeta), inv)
