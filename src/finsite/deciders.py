"""Deciders for functor classes between finite sites.

Every "there exists a covering family such that each member ..." condition
is asked on the least cover S(c) (``Topology.least``) only: on a finite site
the covers J(c) are exactly the sieves containing S(c), so the condition
holds exactly when it holds at every member of S(c) (``_local_miss``).  The
full set of qualifying arrows into c is built only for a failing witness.
Each such condition asks whether an arrow h into c factors in a given way,
and each is one membership test: the factorisations that qualify (the spans
and equalizing arrows of covering flatness, the images F(g2) of local
fullness, the Prop. 3.3 triplets) are built once per decider call as a set
of keys, and h qualifies when its own key is in it.  A key determines the
source of h, so no search over the arrows out of src h is needed.
Comorphism, cover preservation and the zig-zag condition of continuity are
likewise decided on S(c) alone, and so is cover reflection, the first
condition of a dense morphism: S(c) must lie in the meet of the sieves whose
image covers (``sieves.image_cover_meet``), so no decider builds a sieve
lattice.  Local connectedness (continuity, and the second comparison
condition of Prop. 3.3) asks whether two pairs lie in one connected
component of a comma category (d_i ↓ G) over a category of elements;
``_comma_components`` answers it for every d_i with one union-find over the
pairs (x, w: d_i -> G x), without building the elements or the comma
categories.  Verdicts carry replayable witnesses: a negative
witness re-fails its condition, a positive trace re-verifies.
"""
from __future__ import annotations

from .fincat import (
    FinFunctor,
    NatTransform,
    Record,
    StructureError,
    compose_functors,
    representatives,
    validate_transform,
)
from .presheaf import prop33_pullback_data
from .sieves import Topology, generate_sieve, image_cover_meet, image_sieve, sieve_without


class SiteFunctor(Record):
    """A functor decorated with topologies on its source and target."""

    _fields = ("functor", "source_topology", "target_topology")

    def __init__(self, functor: FinFunctor, source_topology: Topology, target_topology: Topology):
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "source_topology", source_topology)
        object.__setattr__(self, "target_topology", target_topology)
        if source_topology.base != functor.source:
            raise StructureError("source topology lives on the wrong category")
        if target_topology.base != functor.target:
            raise StructureError("target topology lives on the wrong category")


class Verdict(Record):
    _fields = ("ok", "rule", "witness", "trace")

    def __init__(self, ok: bool, rule: str, witness: tuple = (), trace: tuple = ()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "trace", trace)

    def __bool__(self):
        return self.ok


def is_comorphism(sf: SiteFunctor) -> Verdict:
    """Target covers of image objects lift to source covers mapping inside them.

    Per object c it suffices that F maps S_J(c) into S_K(F c): the least
    target cover is the hardest to lift into, and S_J(c) lifts whenever any
    cover does.
    """
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    trace = []
    for c in functor.source.objects:
        sieve = j_tgt.least[functor.ob(c)]
        lift = j_src.least[c]
        if not all(functor.ar(f) in sieve for f in lift):
            return Verdict(False, "comorphism", (c, tuple(sorted(sieve))))
        trace.append((c, tuple(sorted(sieve)), tuple(sorted(lift))))
    return Verdict(True, "comorphism", (), tuple(trace))


def is_cover_preserving(sf: SiteFunctor) -> Verdict:
    """The image of every source cover covers; the image of S_J(c) is the
    least of them, since generated images are monotone."""
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    trace = []
    for c in functor.source.objects:
        sieve = j_src.least[c]
        image = image_sieve(functor, c, sieve)
        if not j_tgt.is_cover(functor.ob(c), image):
            return Verdict(False, "cover-preserving", (c, tuple(sorted(sieve)), tuple(sorted(image))))
        trace.append((c, tuple(sorted(sieve)), tuple(sorted(image))))
    return Verdict(True, "cover-preserving", (), tuple(trace))


def _comma_components(dcat, objects: dict, arrows) -> dict:
    """Connected components of the comma categories (d_i ↓ G), for every d_i.

    G maps a category of elements to ``dcat``: ``objects`` maps each element
    x to G(x), and ``arrows`` lists each element arrow a: x -> y as
    (x, y, G(a)).  The objects of (d_i ↓ G) are the pairs (x, w: d_i -> G x),
    and each element arrow a joins (x, w) to (y, G(a) o w); every comma arrow
    is such a join.  A join keeps src(w), so one union-find over all pairs
    separates the comma categories of every d_i.  Maps each pair to a
    representative of its component.
    """
    return representatives(
        [(x, w) for x, gx in objects.items() for w in dcat.into(gx)],
        [((x, w), (y, dcat.compose(ga, w))) for x, y, ga in arrows for w in dcat.into(objects[x])],
    )


def is_continuous(sf: SiteFunctor) -> Verdict:
    """Cover preservation plus the zig-zag cofinality condition: every square
    over a pair of cover members is locally connected in the comma category
    of the cover's elements.

    The zig-zag condition is checked on S_J(c) only.  If it holds there, it
    holds on every R containing S(c): a square on f, g in R pulls back along
    a K-cover to squares on members of S(c), and each f o x is joined to f
    by the arrow x of el(R).  The components of each comma category
    (d_i ↓ F o el(S(c))) come from ``_comma_components``, fed the members f
    of S(c) and their factorisations g o w = f.
    """
    cp = is_cover_preserving(sf)
    if not cp.ok:
        return Verdict(False, "continuous", ("not_cover_preserving",) + cp.witness, ())
    functor, j_src, k_tgt = sf.functor, sf.source_topology, sf.target_topology
    ccat, dcat = functor.source, functor.target
    trace = list(cp.trace)
    for c in ccat.objects:
        sieve = j_src.least[c]
        members = sorted(sieve)
        comp = _comma_components(
            dcat,
            {f: functor.ob(ccat.src[f]) for f in members},
            [(ccat.compose(g, w), g, functor.ar(w)) for g in members for w in ccat.into(ccat.src[g])],
        )
        for f in members:
            for g in members:
                af, ag = functor.ar(f), functor.ar(g)
                for d in dcat.objects:
                    for alpha in dcat.hom(d, functor.ob(ccat.src[f])):
                        lhs = dcat.compose(af, alpha)
                        for beta in dcat.hom(d, functor.ob(ccat.src[g])):
                            if lhs != dcat.compose(ag, beta):
                                continue
                            miss = _local_miss(
                                k_tgt,
                                dcat,
                                d,
                                lambda t: comp[(f, dcat.compose(alpha, t))] == comp[(g, dcat.compose(beta, t))],
                            )
                            if miss is not None:
                                return Verdict(
                                    False,
                                    "continuous",
                                    ("no_local_connection", (c, tuple(sorted(sieve)), f, g, d, alpha, beta, miss)),
                                )
                            trace.append((c, f, g, d, alpha, beta))
    return Verdict(True, "continuous", (), tuple(trace))


def _local_miss(topology: Topology, cat, d: str, holds) -> tuple | None:
    """None when ``holds`` at every member of the least cover S(d), that is
    when the arrows into d where it holds form a cover; otherwise those
    arrows, sorted, as the witness of the miss."""
    if all(holds(t) for t in topology.least[d]):
        return None
    return tuple(sorted(t for t in cat.into(d) if holds(t)))


def is_covering_flat(sf: SiteFunctor) -> Verdict:
    """Localised filtering: cones into images exist locally, pairs of
    generalized elements admit local spans through one image, and parallel
    pairs are locally equalized."""
    functor, k_tgt = sf.functor, sf.target_topology
    ccat, dcat = functor.source, functor.target
    trace = []
    # the objects with an arrow into some image F(c): the same for every d
    has_cone = {e for e in dcat.objects if any(dcat.hom(e, functor.ob(c)) for c in ccat.objects)}
    for d in dcat.objects:
        miss = _local_miss(k_tgt, dcat, d, lambda h: dcat.src[h] in has_cone)
        if miss is not None:
            return Verdict(False, "covering-flat", ("no_local_cone", d, miss))
        trace.append(("f1", d))
    # F2 asks whether (u1 h, u2 h) is one of the pairs (F s1 o gamma, F s2 o gamma)
    # over the spans s1: c -> c1, s2: c -> c2 and the gamma into F(c); a pair
    # names c1 and c2, since F need not be injective on objects
    spans = {
        (ccat.tgt[s1], ccat.tgt[s2], dcat.compose(functor.ar(s1), gamma), dcat.compose(functor.ar(s2), gamma))
        for c in ccat.objects
        for s1 in ccat.out_of(c)
        for s2 in ccat.out_of(c)
        for gamma in dcat.into(functor.ob(c))
    }
    for d in dcat.objects:
        for c1 in ccat.objects:
            for u1 in dcat.hom(d, functor.ob(c1)):
                for c2 in ccat.objects:
                    for u2 in dcat.hom(d, functor.ob(c2)):
                        miss = _local_miss(
                            k_tgt, dcat, d, lambda h: (c1, c2, dcat.compose(u1, h), dcat.compose(u2, h)) in spans
                        )
                        if miss is not None:
                            return Verdict(False, "covering-flat", ("no_local_span", (d, c1, u1, c2, u2), miss))
                        trace.append(("f2", d, u1, u2))
    for s in ccat.arrows:
        for t in ccat.arrows:
            if ccat.src[s] != ccat.src[t] or ccat.tgt[s] != ccat.tgt[t]:
                continue
            # F3 asks whether u h is one of the F(w) o gamma with s w = t w
            equalized = {
                dcat.compose(functor.ar(w), gamma)
                for w in ccat.into(ccat.src[s])
                if ccat.compose(s, w) == ccat.compose(t, w)
                for gamma in dcat.into(functor.ob(ccat.src[w]))
            }
            for d in dcat.objects:
                for u in dcat.hom(d, functor.ob(ccat.src[s])):
                    if dcat.compose(functor.ar(s), u) != dcat.compose(functor.ar(t), u):
                        continue
                    miss = _local_miss(k_tgt, dcat, d, lambda h: dcat.compose(u, h) in equalized)
                    if miss is not None:
                        return Verdict(False, "covering-flat", ("no_local_equalization", (d, s, t, u), miss))
                    trace.append(("f3", d, s, t, u))
    return Verdict(True, "covering-flat", (), tuple(trace))


def is_morphism_of_sites(sf: SiteFunctor) -> Verdict:
    cp = is_cover_preserving(sf)
    if not cp.ok:
        return Verdict(False, "morphism-of-sites", ("not_cover_preserving",) + cp.witness)
    fl = is_covering_flat(sf)
    if not fl.ok:
        return Verdict(False, "morphism-of-sites", ("not_covering_flat",) + fl.witness)
    return Verdict(True, "morphism-of-sites", (), cp.trace + fl.trace)


def is_dense_morphism(sf: SiteFunctor) -> Verdict:
    """Morphism of sites + cover reflection, local covering by images, local
    fullness and local faithfulness, each with a replayable witness.

    Covers are reflected at c when every sieve whose image covers F(c)
    contains S_J(c), that is when S_J(c) lies in their meet
    (``image_cover_meet``).  Otherwise the first g of S_J(c) outside the
    meet names the witness M_g (``sieve_without``): its image covers, and it
    lacks g, so it is no J-cover.
    """
    ms = is_morphism_of_sites(sf)
    if not ms.ok:
        return Verdict(False, "dense-morphism", ("not_morphism_of_sites",) + ms.witness)
    functor, j_src, j_tgt = sf.functor, sf.source_topology, sf.target_topology
    ccat_src, ccat_tgt = functor.source, functor.target
    trace = list(ms.trace)
    for c in ccat_src.objects:
        lost = sorted(j_src.least[c] - image_cover_meet(functor, j_tgt, c))
        if lost:
            witness = tuple(sorted(sieve_without(ccat_src, c, lost[0])))
            return Verdict(False, "dense-morphism", ("cover_not_reflected", c, witness))
    images = {functor.ob(c) for c in ccat_src.objects}
    for d in ccat_tgt.objects:
        family = [m for m in ccat_tgt.into(d) if ccat_tgt.src[m] in images]
        miss = _local_miss(j_tgt, ccat_tgt, d, generate_sieve(ccat_tgt, d, family).__contains__)
        if miss is not None:
            return Verdict(False, "dense-morphism", ("not_locally_covered_by_images", d, miss))
        trace.append(("images-cover", d))
    # local fullness asks whether (src v, g F(v)) is one of the (src g2, F(g2))
    # over the arrows g2 into c2
    images_into = {c2: {(ccat_src.src[g2], functor.ar(g2)) for g2 in ccat_src.into(c2)} for c2 in ccat_src.objects}
    for c1 in ccat_src.objects:
        for c2 in ccat_src.objects:
            lifted = images_into[c2]
            for g in ccat_tgt.hom(functor.ob(c1), functor.ob(c2)):
                miss = _local_miss(
                    j_src, ccat_src, c1, lambda v: (ccat_src.src[v], ccat_tgt.compose(g, functor.ar(v))) in lifted
                )
                if miss is not None:
                    return Verdict(False, "dense-morphism", ("not_locally_full", (c1, c2, g), miss))
                trace.append(("local-fullness", c1, c2, g))
    for g1 in ccat_src.arrows:
        for g2 in ccat_src.arrows:
            if g1 >= g2 or ccat_src.src[g1] != ccat_src.src[g2] or ccat_src.tgt[g1] != ccat_src.tgt[g2]:
                continue
            if functor.ar(g1) != functor.ar(g2):
                continue
            miss = _local_miss(
                j_src, ccat_src, ccat_src.src[g1], lambda v: ccat_src.compose(g1, v) == ccat_src.compose(g2, v)
            )
            if miss is not None:
                return Verdict(False, "dense-morphism", ("not_locally_faithful", (g1, g2), miss))
            trace.append(("local-faithfulness", g1, g2))
    return Verdict(True, "dense-morphism", (), tuple(trace))


class Prop33Square(Record):
    """The square of a comparison condition check: a continuous functor over a
    base-change morphism, with the connecting transformation and the topology
    on the top-right site."""

    _fields = ("a_top", "b_base", "phi", "p", "p_prime", "k_top")

    def __init__(
        self,
        a_top: FinFunctor,
        b_base: FinFunctor,
        phi: NatTransform,
        p: FinFunctor,
        p_prime: FinFunctor,
        k_top: Topology,
    ):
        object.__setattr__(self, "a_top", a_top)
        object.__setattr__(self, "b_base", b_base)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_prime", p_prime)
        object.__setattr__(self, "k_top", k_top)
        validate_transform(phi.component, compose_functors(p, a_top), compose_functors(b_base, p_prime))
        if k_top.base != p.source:
            raise StructureError("top topology must live on the target total category")


def check_prop33_conditions(square: Prop33Square) -> Verdict:
    """Both site-level conditions: local existence of compatible triplets, and
    local connectedness of triplet pairs in the comma category over the
    pullback presheaf's elements, whose components come from
    ``_comma_components``.

    A pair of triplets with the same (left, top) key is locally connected
    when it is joined after each t of S(d), that is when the two triplets
    have the same signature: the components reached along S(d).
    """
    a_fun, b_fun, phi = square.a_top, square.b_base, square.phi.component
    p, p2, k_top = square.p, square.p_prime, square.k_top
    dcat, d2cat = p.source, p2.source
    ccat, c2cat = p.target, p2.target
    trace = []
    for f_prime in c2cat.arrows:
        c2_obj, c1_obj = c2cat.src[f_prime], c2cat.tgt[f_prime]
        for d_prime in d2cat.objects:
            for u_prime in c2cat.hom(p2.ob(d_prime), c1_obj):
                presheaf, elem_data = prop33_pullback_data(p2, d_prime, u_prime, f_prime)
                # the triplets (dbar, element (gbar, ubar), x) by src x, each with
                # its key (B(ubar) phi_dbar p(x), A(gbar) x)
                triplets: dict[str, list] = {d: [] for d in dcat.objects}
                for dbar in d2cat.objects:
                    for elem in presheaf.values[dbar]:
                        gbar, ubar = elem_data[dbar][elem]
                        left, top = ccat.compose(b_fun.ar(ubar), phi[dbar]), a_fun.ar(gbar)
                        for x in dcat.into(a_fun.ob(dbar)):
                            key = (ccat.compose(left, p.ar(x)), dcat.compose(top, x))
                            triplets[dcat.src[x]].append((dbar, elem, x, key))
                keys = {entry[3] for entries in triplets.values() for entry in entries}
                for d in dcat.objects:
                    for g in dcat.hom(d, a_fun.ob(d_prime)):
                        rhs_fixed = ccat.compose(
                            ccat.compose(b_fun.ar(u_prime), phi[d_prime]), p.ar(g)
                        )
                        for u2 in ccat.hom(p.ob(d), b_fun.ob(c2_obj)):
                            if ccat.compose(b_fun.ar(f_prime), u2) != rhs_fixed:
                                continue
                            miss = _local_miss(
                                k_top, dcat, d, lambda t: (ccat.compose(u2, p.ar(t)), dcat.compose(g, t)) in keys
                            )
                            if miss is not None:
                                return Verdict(
                                    False, "prop33", ("no_local_triplets", (f_prime, d_prime, u_prime, d, g, u2), miss)
                                )
                            trace.append(("b1", f_prime, d_prime, u_prime, d, g, u2))
                comp = _comma_components(
                    dcat,
                    {(e2, elem): a_fun.ob(e2) for e2 in d2cat.objects for elem in presheaf.values[e2]},
                    [
                        ((d2cat.src[h], presheaf.act(h, elem)), (d2cat.tgt[h], elem), a_fun.ar(h))
                        for h in d2cat.arrows
                        for elem in presheaf.values[d2cat.tgt[h]]
                    ],
                )
                for d in dcat.objects:
                    least = sorted(k_top.least[d])
                    trips = [
                        (dbar, elem, x, key, tuple(comp[((dbar, elem), dcat.compose(x, t))] for t in least))
                        for dbar, elem, x, key in triplets[d]
                    ]
                    for i, (d1, e1, x1, key1, sig1) in enumerate(trips):
                        for (d2_, e2_, x2, key2, sig2) in trips[i:]:
                            if key1 != key2:
                                continue
                            if sig1 != sig2:
                                miss = _local_miss(
                                    k_top,
                                    dcat,
                                    d,
                                    lambda t: comp[((d1, e1), dcat.compose(x1, t))]
                                    == comp[((d2_, e2_), dcat.compose(x2, t))],
                                )
                                return Verdict(
                                    False,
                                    "prop33",
                                    (
                                        "triplets_not_locally_connected",
                                        (f_prime, d_prime, u_prime, d, (e1, x1), (e2_, x2)),
                                        miss,
                                    ),
                                )
                            trace.append(("b2", f_prime, d_prime, u_prime, d, e1, e2_))
    return Verdict(True, "prop33", (), tuple(trace))


# ---------------------------------------------------------------------------
# Witness replay


def _is_least(topology: Topology, obj: str, sieve: frozenset[str]) -> bool:
    """Whether ``sieve`` is the least cover S(obj)."""
    return topology.least[obj] == sieve


def replay(verdict: Verdict, subject) -> bool:
    """Re-evaluate the decided condition at the verdict's witness or trace.

    Negative verdicts must re-fail; positive verdicts must re-verify.
    Returns True when the replay is consistent with the verdict.
    """
    if verdict.rule == "comorphism":
        sf, functor = subject, subject.functor
        if verdict.ok:
            return tuple(entry[0] for entry in verdict.trace) == functor.source.objects and all(
                _is_least(sf.target_topology, functor.ob(c), frozenset(sieve))
                and sf.source_topology.is_cover(c, frozenset(lift))
                and all(functor.ar(f) in sieve for f in lift)
                for c, sieve, lift in verdict.trace
            )
        # any cover mapping inside the sieve contains S_J(c), which then maps inside it too
        c, sieve = verdict.witness
        return not all(functor.ar(f) in sieve for f in sf.source_topology.least[c])
    if verdict.rule == "cover-preserving":
        sf, functor = subject, subject.functor
        if verdict.ok:
            return tuple(entry[0] for entry in verdict.trace) == functor.source.objects and all(
                _is_least(sf.source_topology, c, frozenset(sieve))
                and frozenset(image) == image_sieve(functor, c, sieve)
                and sf.target_topology.is_cover(functor.ob(c), frozenset(image))
                for c, sieve, image in verdict.trace
            )
        c, sieve, image = verdict.witness
        return not sf.target_topology.is_cover(functor.ob(c), frozenset(image))
    if verdict.rule in ("continuous", "covering-flat", "morphism-of-sites", "dense-morphism", "prop33"):
        fresh = {
            "continuous": is_continuous,
            "covering-flat": is_covering_flat,
            "morphism-of-sites": is_morphism_of_sites,
            "dense-morphism": is_dense_morphism,
            "prop33": check_prop33_conditions,
        }[verdict.rule](subject)
        return fresh.ok == verdict.ok and (verdict.ok or fresh.witness == verdict.witness)
    raise StructureError("unknown verdict rule {}".format(verdict.rule))
